package executor

import (
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// graceStore holds inputs sized so that, at a 4 KiB work_mem, every level-1
// partition of every operator below is itself far over budget:
//
//	wide(k, g, s): 12000 rows, k = i (all distinct), g = i % 3000, s a string
//	dup(k, g, s):  the first 4000 rows of wide, twice over
//	hot(k, s):     3000 rows, k = i % 1500, plus 700 rows of the one key 7
func graceStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	mk := func(name string, cols []catalog.Column, rows []value.Row) {
		tab, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: cols})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	kgs := []catalog.Column{{Name: "k", Type: value.KindInt}, {Name: "g", Type: value.KindInt}, {Name: "s", Type: value.KindString}}
	var wide []value.Row
	for i := 0; i < 12000; i++ {
		wide = append(wide, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 3000)),
			value.NewString(fmt.Sprintf("payload-%06d", i*7919%12000))})
	}
	mk("wide", kgs, wide)
	mk("dup", kgs, append(append([]value.Row{}, wide[:4000]...), wide[:4000]...))
	var hot []value.Row
	for i := 0; i < 3000; i++ {
		hot = append(hot, value.Row{value.NewInt(int64(i % 1500)), value.NewString(fmt.Sprintf("h-%d", i))})
	}
	for i := 0; i < 700; i++ {
		hot = append(hot, value.Row{value.NewInt(7), value.NewString(fmt.Sprintf("hot-%d", i))})
	}
	mk("hot", []catalog.Column{{Name: "k", Type: value.KindInt}, {Name: "s", Type: value.KindString}}, hot)
	return s
}

func graceScan(table string) *algebra.Scan {
	sch := algebra.Schema{{Name: "k", Table: table, Type: value.KindInt}}
	if table != "hot" {
		sch = append(sch, algebra.Column{Name: "g", Table: table, Type: value.KindInt})
	}
	return &algebra.Scan{Table: table, Alias: table, Sch: append(sch, algebra.Column{Name: "s", Table: table, Type: value.KindString})}
}

// TestGraceDriverRecursion runs every client of the grace driver at a work_mem
// that forces its partitions to be re-partitioned at least once more (level
// >= 2), and holds the result — rows and order — to the same plan run with
// unlimited memory.
func TestGraceDriverRecursion(t *testing.T) {
	s := graceStore(t)
	icol := func(i int) algebra.Expr { return &algebra.ColIdx{Idx: i, Typ: value.KindInt} }
	scol := func(i int) algebra.Expr { return &algebra.ColIdx{Idx: i, Typ: value.KindString} }
	project := func(in algebra.Op, cols ...int) algebra.Op {
		p := &algebra.Project{Input: in}
		for _, c := range cols {
			p.Exprs = append(p.Exprs, &algebra.ColIdx{Idx: c, Typ: in.Schema()[c].Type})
			p.Sch = append(p.Sch, in.Schema()[c])
		}
		return p
	}
	// The hot-key join: hot ⋈ hot on k. Key 7 alone carries 702 build rows —
	// more than any budget-sized chunk — so once rehashing has isolated it, its
	// partition joins in chunks; the 1499 other keys force the levels above.
	// The residual s < s leaves the last probe of every key unmatched.
	hotJoin := func(kind algebra.JoinKind) algebra.Op {
		l, r := graceScan("hot"), graceScan("hot")
		j := &algebra.Join{Kind: kind, Left: project(l, 0, 1), Right: r,
			Cond: &algebra.Bin{Op: sql.OpAnd,
				L: &algebra.Bin{Op: sql.OpEq, L: icol(0), R: icol(2)},
				R: &algebra.Bin{Op: sql.OpLt, L: scol(1), R: scol(3)}}}
		j.Sch = append(append(algebra.Schema{}, j.Left.Schema()...), r.Sch...)
		if kind == algebra.JoinSemi || kind == algebra.JoinAnti {
			j.Sch = j.Left.Schema()
		}
		return j
	}

	cases := []struct {
		name string
		plan algebra.Op
	}{
		{"aggregation with evicted partials", &algebra.Agg{
			Input:   graceScan("wide"),
			GroupBy: []algebra.Expr{icol(1)},
			Aggs: []algebra.AggExpr{
				{Func: algebra.AggCount},
				{Func: algebra.AggSum, Arg: icol(0)},
				{Func: algebra.AggMin, Arg: scol(2)},
				{Func: algebra.AggCount, Arg: scol(2), Distinct: true},
			},
			Sch: algebra.Schema{{Name: "g", Type: value.KindInt}, {Name: "n", Type: value.KindInt},
				{Name: "sum", Type: value.KindInt}, {Name: "min", Type: value.KindString}, {Name: "nd", Type: value.KindInt}},
		}},
		{"DISTINCT tombstones", &algebra.Distinct{Input: graceScan("dup")}},
		{"UNION DISTINCT", &algebra.SetOp{Kind: algebra.UnionDistinct, Left: graceScan("dup"), Right: graceScan("wide"), Sch: graceScan("wide").Sch}},
		{"EXCEPT DISTINCT restarts on a distinct-heavy left", &algebra.SetOp{Kind: algebra.ExceptDistinct,
			Left: graceScan("wide"), Right: &algebra.Limit{Input: graceScan("dup"), Count: 50}, Sch: graceScan("wide").Sch}},
		{"INTERSECT ALL", &algebra.SetOp{Kind: algebra.IntersectAll, Left: graceScan("dup"), Right: graceScan("wide"), Sch: graceScan("wide").Sch}},
		{"hot-key join LEFT", hotJoin(algebra.JoinLeft)},
		{"hot-key join FULL", hotJoin(algebra.JoinFull)},
		{"hot-key join SEMI", hotJoin(algebra.JoinSemi)},
		{"hot-key join ANTI", hotJoin(algebra.JoinAnti)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(NewContext(s), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("reference run is empty: the case would prove nothing")
			}

			ctx := NewContext(s)
			ctx.Mem = NewMemTracker(4096, t.TempDir())
			defer ctx.Mem.Cleanup()
			it, err := builder{}.build(tc.plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			var d *graceDriver
			switch op := it.(type) {
			case *aggIter:
				d = &op.d
			case *distinctIter:
				d = &op.dedup.d
			case *setOpIter:
				d = &op.d
			case *hashJoinIter:
				d = &op.d
			default:
				t.Fatalf("%T is not a client of the grace driver", it)
			}
			if err := it.Open(ctx); err != nil {
				t.Fatal(err)
			}
			var got []value.Row
			for {
				row, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if row == nil {
					break
				}
				got = append(got, row)
			}
			// Partitions resolve depth-first, so the level the driver stopped
			// at is that of the last one folded; with every level-1 partition
			// over budget, that one sits at level 2 or below.
			if d.level < 2 {
				t.Errorf("the driver finished at level %d: no partition was re-partitioned", d.level)
			}
			if g, w := renderExact(got), renderExact(want.Rows); g != w {
				t.Errorf("%d rows at 4 KiB differ from the %d at unlimited work_mem (rows or order)", len(got), len(want.Rows))
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n := len(d.reg.files); n != 0 {
				t.Errorf("%d spill files registered after Close", n)
			}
			if live := ctx.Mem.Pool().Live(); live != 0 {
				t.Errorf("%d spill files live after Close", live)
			}
			if tracked := ctx.Mem.Tracked(); tracked != 0 {
				t.Errorf("%d bytes tracked after Close", tracked)
			}
		})
	}
}
