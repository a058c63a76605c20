package executor

import (
	"testing"
	"unsafe"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// TestSizeHintCappedByWorkMem: a cached plan's hash join sizes its build side
// from the last run, and never past work_mem. After a 100 000-row build the
// next Open makes room for 100 000 rows; under 64 KiB it makes room for no
// more than 64 KiB, however large the last build was.
func TestSizeHintCappedByWorkMem(t *testing.T) {
	const rows = 100_000
	// Two stores with the same tables: the build side holds 100 000 rows in
	// one and none in the other, so after an Open over the second the join's
	// slabs are exactly what it made room for (and its hint is 0 rows).
	store := func(n int) *storage.Store {
		s := storage.NewStore()
		for _, name := range []string{"p", "b"} {
			tab, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: []catalog.Column{{Name: "k", Type: value.KindInt}}})
			if err != nil {
				t.Fatal(err)
			}
			if name == "b" {
				batch := make([]value.Row, n)
				for i := range batch {
					batch[i] = value.Row{value.NewInt(int64(i))}
				}
				if _, err := tab.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	scan := func(name string) *algebra.Scan {
		return &algebra.Scan{Table: name, Alias: name, Sch: algebra.Schema{{Name: "k", Table: name, Type: value.KindInt}}}
	}
	plan := algebra.NewJoin(algebra.JoinInner, scan("p"), scan("b"), &algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(1)})
	full, empty := store(rows), store(0)
	var hints SizeHints
	open := func(s *storage.Store, workMem int64) *hashJoinIter {
		ctx := NewContext(s)
		ctx.Mem = NewMemTracker(workMem, t.TempDir())
		stream, err := OpenCached(ctx, plan, &hints, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stream.Close() })
		return stream.it.(*hashJoinIter)
	}
	slabBytes := func(h *hashJoinIter) int64 {
		return int64(cap(h.rows))*int64(unsafe.Sizeof(buildRow{})) + int64(cap(h.table.entries))*int64(unsafe.Sizeof(keyEntry{})) +
			int64(cap(h.table.arena)) + int64(cap(h.table.heads))*4
	}
	open(full, 0) // records the build side
	if h := open(empty, 0); cap(h.rows) != rows || cap(h.table.entries) != rows || cap(h.table.arena) != 9*rows {
		t.Errorf("unlimited work_mem: room for %d rows, %d keys, %d key bytes; want %d, %d, %d", cap(h.rows), cap(h.table.entries), cap(h.table.arena), rows, rows, 9*rows)
	}
	const budget = 64 << 10
	open(full, 0) // the empty build recorded itself
	if h := open(empty, budget); slabBytes(h) > budget || cap(h.rows) == 0 {
		t.Errorf("64 KiB work_mem: the build side made room for %d rows in %d bytes, want some within %d", cap(h.rows), slabBytes(h), budget)
	}
}

// TestSizeHintOfASpilledGroupBy: a cached GROUP BY that spills records what
// its group table held when it first overflowed work_mem, so its next run
// takes its group and state slabs once, at Open, sized for that, and folds
// the level-0 pass and every partition in them without growing them.
func TestSizeHintOfASpilledGroupBy(t *testing.T) {
	const keys = 2000
	s := storage.NewStore()
	tab, err := s.CreateTable(&catalog.TableDef{Name: "g", Columns: []catalog.Column{
		{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindInt}}})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]value.Row, 2*keys)
	for i := range batch {
		batch[i] = value.Row{value.NewInt(int64(i % keys)), value.NewInt(int64(i))}
	}
	if _, err := tab.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	sch := algebra.Schema{{Name: "k", Table: "g", Type: value.KindInt}, {Name: "v", Table: "g", Type: value.KindInt}}
	plan := algebra.NewAgg(&algebra.Scan{Table: "g", Alias: "g", Sch: sch}, []algebra.Expr{intCol(0)},
		[]algebra.AggExpr{{Func: algebra.AggSum, Arg: intCol(1)}, {Func: algebra.AggCount}}, []string{"k"}, []string{"sum", "count"})
	var hints SizeHints
	run := func() (*aggIter, int) {
		// A fresh tracker each run: its free list is empty, so a slab is made
		// exactly as large as asked for.
		ctx := NewContext(s)
		ctx.Mem = NewMemTracker(64<<10, t.TempDir())
		stream, err := OpenCached(ctx, plan, &hints, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stream.Close() })
		a, ok := stream.it.(*aggIter)
		if !ok {
			t.Fatalf("the plan's root is a %T", stream.it)
		}
		if a.d.merger == nil {
			t.Fatal("the GROUP BY did not spill at 64 KiB")
		}
		n, _ := a.slot.size(ctx, aggGroupBytes+keyEntryBytes+2*aggStateBytes)
		return a, n
	}
	run()
	a, n := run()
	if n == 0 || n >= keys {
		t.Fatalf("the spilled run recorded room for %d groups, want some of the %d", n, keys)
	}
	if cap(a.fold.groups) != n || cap(a.fold.states) != 2*n {
		t.Errorf("the second run ended with slabs of %d groups and %d states, want the %d and %d it took at Open",
			cap(a.fold.groups), cap(a.fold.states), n, 2*n)
	}
}
