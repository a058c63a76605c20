package executor

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// emitStore has a probe and a build table whose keys overlap in part, repeat
// on both sides and are NULL in places, so every join kind has matches,
// unmatched probe rows and unmatched build rows:
//
//	probe(k, a): 700 rows, k = i % 90, every 35th NULL
//	build(k, b): 500 rows, k = 20 + i % 100, every 45th NULL
func emitStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	emitTable(t, s, "probe", "a", 700, func(i int) value.Value {
		if i%35 == 0 {
			return value.Null
		}
		return value.NewInt(int64(i % 90))
	})
	emitTable(t, s, "build", "b", 500, func(i int) value.Value {
		if i%45 == 0 {
			return value.Null
		}
		return value.NewInt(int64(20 + i%100))
	})
	return s
}

// emitTable adds the table name(k, payload) of n rows to s, row i keyed
// key(i), its payload a string with some width to it.
func emitTable(t *testing.T, s *storage.Store, name, payload string, n int, key func(i int) value.Value) {
	t.Helper()
	tab, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: []catalog.Column{
		{Name: "k", Type: value.KindInt}, {Name: payload, Type: value.KindString},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{key(i), value.NewString(fmt.Sprintf("%s-%d with some width to it", payload, i))}
	}
	if _, err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
}

func emitScan(table, payload string) *algebra.Scan {
	return &algebra.Scan{Table: table, Alias: table, Sch: algebra.Schema{
		{Name: "k", Table: table, Type: value.KindInt},
		{Name: payload, Table: table, Type: value.KindString},
	}}
}

func renderExact(rows []value.Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestJoinEmitsThroughProjection: a join that writes its rows through the
// projection above it returns byte for byte, row for row, what a projectIter
// over the same join returns — for the matched rows, the NULL-padded probe
// rows of LEFT/FULL and the tail of RIGHT/FULL, in memory and through the
// join at a 4 KiB budget, with an equi key and without one (the "nested loop"
// cases: the hash join on the empty key, whose build side over the budget
// streams from its overflow file), with a constant among the projected
// columns.
func TestJoinEmitsThroughProjection(t *testing.T) {
	s := emitStore(t)
	keysEqual := &algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)}
	conds := map[string]algebra.Expr{
		"hash": keysEqual,
		// The same predicate where the executor finds no equi key.
		"nested loop": &algebra.Bin{Op: sql.OpOr, L: keysEqual, R: &algebra.Const{Val: value.NewBool(false)}},
	}
	str := func(i int) *algebra.ColIdx { return &algebra.ColIdx{Idx: i, Typ: value.KindString} }
	names := []string{"b", "seven", "a"}
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeft, algebra.JoinRight, algebra.JoinFull} {
		for condName, cond := range conds {
			join := algebra.NewJoin(kind, emitScan("probe", "a"), emitScan("build", "b"), cond)
			fused := algebra.NewProject(join, []algebra.Expr{str(3), intConst(7), str(1)}, names)
			// A cast to the column's own type changes no value and keeps the
			// projection out of the join.
			unfused := algebra.NewProject(join, []algebra.Expr{&algebra.Cast{E: str(3), To: value.KindString}, intConst(7), str(1)}, names)
			if !emitsThrough(fused) || emitsThrough(unfused) {
				t.Fatalf("the test's plans are not one fused and one unfused projection")
			}
			for _, budget := range []int64{0, 4096} {
				t.Run(fmt.Sprintf("%s/%s/work_mem=%d", kind, condName, budget), func(t *testing.T) {
					run := func(plan algebra.Op) (string, *OpStats, int64) {
						ctx := NewContext(s)
						ctx.Mem = NewMemTracker(budget, t.TempDir())
						defer ctx.Mem.Cleanup()
						stream, stats, err := OpenInstrumented(ctx, plan)
						if err != nil {
							t.Fatalf("open: %v", err)
						}
						rows, err := stream.Drain()
						if err != nil {
							t.Fatalf("drain: %v", err)
						}
						if tracked := ctx.Mem.Tracked(); tracked != 0 {
							t.Errorf("tracked bytes after drain = %d", tracked)
						}
						return renderExact(rows), stats, ctx.Mem.Pool().Bytes()
					}
					want, _, unfusedSpill := run(unfused)
					got, stats, fusedSpill := run(fused)
					if got != want {
						t.Fatalf("fused emission differs from projectIter over the join:\nwant:\n%.1500s\ngot:\n%.1500s", want, got)
					}
					n := int64(strings.Count(got, "\n"))
					if n == 0 {
						t.Fatal("the join returned nothing")
					}
					// EXPLAIN ANALYZE still shows the projection, with the
					// join's rows as its own.
					if _, ok := stats.Op.(*algebra.Project); !ok || stats.Opens != 1 || stats.Rows != n ||
						len(stats.Children) != 1 || stats.Children[0].Op != algebra.Op(join) || stats.Children[0].Rows != n {
						t.Errorf("stats of the fused plan: root %T opens=%d rows=%d over %d children, want Project and Join with %d rows each",
							stats.Op, stats.Opens, stats.Rows, len(stats.Children), n)
					}
					if budget > 0 && condName == "hash" {
						// Projected before they are spilled, the grace join's
						// output records lose the two key columns.
						if fusedSpill == 0 || fusedSpill >= unfusedSpill {
							t.Errorf("spilled %d bytes fused, %d unfused: want 0 < fused < unfused", fusedSpill, unfusedSpill)
						}
					}
				})
			}
		}
	}
}

// TestHotKeyJoinReleasesItsBitmap: a build side of one key over work_mem
// cannot be split by rehashing, so the grace join block-joins it in chunks
// and carries the probe-matched bitmap across them; once the join is closed
// every byte it charged the session is given back, the bitmap's too.
func TestHotKeyJoinReleasesItsBitmap(t *testing.T) {
	s := storage.NewStore()
	// Both sides hold the one key, so they meet in one partition and the
	// chunked pair is the last the join folds.
	five := func(int) value.Value { return value.NewInt(5) }
	emitTable(t, s, "hotprobe", "a", 200, five)
	emitTable(t, s, "hot", "b", 500, five)
	keysEqual := &algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)}
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeft, algebra.JoinFull} {
		t.Run(kind.String(), func(t *testing.T) {
			ctx := NewContext(s)
			ctx.Mem = NewMemTracker(4096, t.TempDir())
			defer ctx.Mem.Cleanup()
			stream, err := Open(ctx, algebra.NewJoin(kind, emitScan("hotprobe", "a"), emitScan("hot", "b"), keysEqual))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			rows, err := stream.Drain()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if len(rows) != 200*500 {
				t.Fatalf("the join returned %d rows, want %d", len(rows), 200*500)
			}
			if ctx.Mem.Pool().Bytes() == 0 {
				t.Fatal("the join did not spill")
			}
			if tracked := ctx.Mem.Tracked(); tracked != 0 {
				t.Errorf("tracked bytes after drain = %d", tracked)
			}
			stream.Close()
			if tracked := ctx.Mem.Tracked(); tracked != 0 {
				t.Errorf("tracked bytes after Close = %d", tracked)
			}
		})
	}
}

// TestJoinPollsPerCandidate: one probe row walking a long run of candidates,
// none of which qualifies, still notices that its deadline has passed —
// through a hot key and through a join with no key at all, in memory and
// streaming its build side from disk.
func TestJoinPollsPerCandidate(t *testing.T) {
	s := storage.NewStore()
	emitTable(t, s, "one", "a", 1, func(int) value.Value { return value.NewInt(5) })
	emitTable(t, s, "many", "b", 100_000, func(int) value.Value { return value.NewInt(5) })
	str := func(i int) *algebra.ColIdx { return &algebra.ColIdx{Idx: i, Typ: value.KindString} }
	// "a-0 …" sorts before every "b-…": the residual never holds.
	never := &algebra.Bin{Op: sql.OpGt, L: str(1), R: str(3)}
	hotKey := &algebra.Bin{Op: sql.OpAnd, L: &algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)}, R: never}
	for _, tc := range []struct {
		name    string
		cond    algebra.Expr
		workMem int64
	}{
		{"hot key", hotKey, 0},
		{"no key", never, 0},
		// Past the budget the candidates come from the overflow file.
		{"no key over work_mem", never, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := NewContext(s)
			if tc.workMem > 0 {
				ctx.Mem = NewMemTracker(tc.workMem, t.TempDir())
				defer ctx.Mem.Cleanup()
			}
			stream, err := Open(ctx, algebra.NewJoin(algebra.JoinInner, emitScan("one", "a"), emitScan("many", "b"), tc.cond))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer stream.Close()
			// The build side is in; from here on only the probe runs.
			ctx.DeadlineNs = 1
			if row, err := stream.Next(); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("Next past the deadline = %v, %v; want ErrInterrupted", row, err)
			}
		})
	}
}

// TestHashedConjunctsLeaveTheResidual: a conjunct the hash key already
// decides is not evaluated a second time on every candidate pair — equal
// framed keys are values that compare equal — and everything else still is.
func TestHashedConjunctsLeaveTheResidual(t *testing.T) {
	s := emitStore(t)
	str := func(i int) *algebra.ColIdx { return &algebra.ColIdx{Idx: i, Typ: value.KindString} }
	bin := func(op sql.BinOp, l, r algebra.Expr) algebra.Expr { return &algebra.Bin{Op: op, L: l, R: r} }
	and := func(l, r algebra.Expr) algebra.Expr { return bin(sql.OpAnd, l, r) }
	keysEqual, longer := bin(sql.OpEq, intCol(0), intCol(2)), bin(sql.OpLt, str(1), str(3))
	for _, tc := range []struct {
		name     string
		cond     algebra.Expr
		keys     int
		residual algebra.Expr
	}{
		{"one key", keysEqual, 1, nil},
		{"not distinct", bin(sql.OpNotDistinct, intCol(0), intCol(2)), 1, nil},
		{"two keys around a theta conjunct", and(and(bin(sql.OpEq, intCol(2), intCol(0)), longer), bin(sql.OpEq, str(1), str(3))), 2, longer},
		{"a constant side is no key", and(keysEqual, bin(sql.OpEq, intCol(0), intConst(7))), 1, bin(sql.OpEq, intCol(0), intConst(7))},
		{"no key", longer, 0, longer},
	} {
		join := algebra.NewJoin(algebra.JoinInner, emitScan("probe", "a"), emitScan("build", "b"), tc.cond)
		keys, residual := extractEquiKeys(join)
		got, want := "", ""
		if residual != nil {
			got = residual.String()
		}
		if tc.residual != nil {
			want = tc.residual.String()
		}
		if len(keys) != tc.keys || got != want {
			t.Errorf("%s: %d keys and residual %q, want %d and %q", tc.name, len(keys), got, tc.keys, want)
		}
	}
	// Keys alone decide the join: its rows are those of the join on the empty
	// key, which evaluates the whole condition as an expression.
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinFull} {
		for _, cond := range []algebra.Expr{keysEqual, and(keysEqual, longer)} {
			hashed := runPlan(t, s, algebra.NewJoin(kind, emitScan("probe", "a"), emitScan("build", "b"), cond))
			looped := runPlan(t, s, algebra.NewJoin(kind, emitScan("probe", "a"), emitScan("build", "b"),
				bin(sql.OpOr, cond, &algebra.Const{Val: value.NewBool(false)})))
			if len(hashed) == 0 || renderExact(hashed) != renderExact(looped) {
				t.Errorf("%s on %s: the hashed join returned %d rows, the keyless one %d, or they differ", kind, cond, len(hashed), len(looped))
			}
		}
	}
}

// loopJoin is the reference for a join with no equi key, written out as a
// double loop over the two inputs' rows: every pair cond holds on, in probe
// order and then build order; after its pairs, a probe row that met none,
// NULL-padded (LEFT, FULL); and last the build rows no probe met (RIGHT,
// FULL). A nil cond holds on every pair.
func loopJoin(t *testing.T, s *storage.Store, kind algebra.JoinKind, left, right algebra.Op, cond algebra.Expr) []value.Row {
	t.Helper()
	probe, build := runPlan(t, s, left), runPlan(t, s, right)
	ctx := NewContext(s)
	nulls := func(n int) value.Row {
		row := make(value.Row, n)
		for i := range row {
			row[i] = value.Null
		}
		return row
	}
	met := make([]bool, len(build))
	var out []value.Row
	for _, l := range probe {
		alone := true
		for j, r := range build {
			pair := slices.Concat(l, r)
			if cond != nil {
				ok, err := compilePred(cond)(pair, ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
			}
			out = append(out, pair)
			alone, met[j] = false, true
		}
		if alone && (kind == algebra.JoinLeft || kind == algebra.JoinFull) {
			out = append(out, slices.Concat(l, nulls(len(right.Schema()))))
		}
	}
	if kind == algebra.JoinRight || kind == algebra.JoinFull {
		for j, r := range build {
			if !met[j] {
				out = append(out, slices.Concat(nulls(len(left.Schema())), r))
			}
		}
	}
	return out
}

// TestKeylessJoinMatchesDoubleLoop: a join with no equi key returns, row for
// row, what a double loop over its inputs returns, for every join kind, in
// memory and with its build side over a 4 KiB work_mem — and gives back every
// byte it charged the session.
func TestKeylessJoinMatchesDoubleLoop(t *testing.T) {
	s := emitStore(t)
	bin := func(op sql.BinOp, l, r algebra.Expr) algebra.Expr { return &algebra.Bin{Op: op, L: l, R: r} }
	plus := func(e algebra.Expr, n int64) algebra.Expr { return bin(sql.OpAdd, e, intConst(n)) }
	// A band: each probe key meets the build keys a few above it; NULL keys
	// meet nothing.
	band := bin(sql.OpAnd, bin(sql.OpLt, plus(intCol(0), 3), intCol(2)), bin(sql.OpLt, intCol(2), plus(intCol(0), 8)))
	for _, tc := range []struct {
		kind algebra.JoinKind
		cond algebra.Expr
	}{
		{algebra.JoinInner, band}, {algebra.JoinLeft, band}, {algebra.JoinRight, band}, {algebra.JoinFull, band},
		{algebra.JoinCross, nil},
	} {
		left, right := emitScan("probe", "a"), emitScan("build", "b")
		want := renderExact(loopJoin(t, s, tc.kind, left, right, tc.cond))
		for _, budget := range []int64{0, 4096} {
			t.Run(fmt.Sprintf("%s/work_mem=%d", tc.kind, budget), func(t *testing.T) {
				ctx := NewContext(s)
				ctx.Mem = NewMemTracker(budget, t.TempDir())
				defer ctx.Mem.Cleanup()
				stream, err := Open(ctx, algebra.NewJoin(tc.kind, left, right, tc.cond))
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				rows, err := stream.Drain()
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
				if got := renderExact(rows); got != want {
					t.Fatalf("the join differs from the double loop (%d rows, want %d):\nwant:\n%.1500s\ngot:\n%.1500s",
						len(rows), strings.Count(want, "\n"), want, got)
				}
				if spilled := ctx.Mem.Pool().Bytes(); (budget > 0) != (spilled > 0) {
					t.Errorf("work_mem=%d spilled %d bytes", budget, spilled)
				}
				stream.Close()
				if tracked := ctx.Mem.Tracked(); tracked != 0 {
					t.Errorf("tracked bytes after Close = %d", tracked)
				}
			})
		}
	}
}

// TestKeylessJoinStreams: a cross product whose build side is over work_mem
// writes no more than its build side to disk, however many rows it hands up:
// the output streams, it is never materialized.
func TestKeylessJoinStreams(t *testing.T) {
	s := emitStore(t)
	left, right := emitScan("probe", "a"), emitScan("build", "b")
	var buildBytes int64
	for _, row := range runPlan(t, s, right) {
		buildBytes += int64(len(value.AppendRow(nil, row)))
	}
	ctx := NewContext(s)
	ctx.Mem = NewMemTracker(4096, t.TempDir())
	defer ctx.Mem.Cleanup()
	stream, err := Open(ctx, algebra.NewJoin(algebra.JoinCross, left, right, nil))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer stream.Close()
	n := 0
	for ; ; n++ {
		row, err := stream.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if row == nil {
			break
		}
	}
	if n != 700*500 {
		t.Fatalf("the cross product has %d rows, want %d", n, 700*500)
	}
	// Each spilled record carries a length prefix the row encoding does not.
	if spilled := ctx.Mem.Pool().Bytes(); spilled == 0 || spilled > 2*buildBytes {
		t.Errorf("spilled %d bytes; the build side encodes to %d", spilled, buildBytes)
	}
}

// TestKeylessJoinChargesNoKeyEntry: a join with no equi key keeps no key
// table, so an in-memory build charges each build row its payload and its
// buildRow slot and nothing for a key.
func TestKeylessJoinChargesNoKeyEntry(t *testing.T) {
	s := emitStore(t)
	left, right := emitScan("probe", "a"), emitScan("build", "b")
	var want int64
	for _, row := range runPlan(t, s, right) {
		want += rowBytes(row) + buildRowBytes
	}
	ctx := NewContext(s)
	ctx.Mem = NewMemTracker(0, t.TempDir())
	defer ctx.Mem.Cleanup()
	stream, err := Open(ctx, algebra.NewJoin(algebra.JoinCross, left, right, nil))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer stream.Close()
	if got := ctx.Mem.Tracked(); got != want {
		t.Fatalf("the build side charged %d bytes, want %d (rowBytes + buildRowBytes per row)", got, want)
	}
}
