package executor

import (
	"fmt"
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
	mk := func(name, payload string, n int, key func(i int) value.Value) {
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
	mk("probe", "a", 700, func(i int) value.Value {
		if i%35 == 0 {
			return value.Null
		}
		return value.NewInt(int64(i % 90))
	})
	mk("build", "b", 500, func(i int) value.Value {
		if i%45 == 0 {
			return value.Null
		}
		return value.NewInt(int64(20 + i%100))
	})
	return s
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
// grace join at a 4 KiB budget, hashed and nested-loop, with a constant among
// the projected columns.
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
	// Keys alone decide the join: its rows are those of the nested loop, which
	// evaluates the condition itself.
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinFull} {
		for _, cond := range []algebra.Expr{keysEqual, and(keysEqual, longer)} {
			hashed := runPlan(t, s, algebra.NewJoin(kind, emitScan("probe", "a"), emitScan("build", "b"), cond))
			looped := runPlan(t, s, algebra.NewJoin(kind, emitScan("probe", "a"), emitScan("build", "b"),
				bin(sql.OpOr, cond, &algebra.Const{Val: value.NewBool(false)})))
			if len(hashed) == 0 || renderExact(hashed) != renderExact(looped) {
				t.Errorf("%s on %s: the hash join returned %d rows, the nested loop %d, or they differ", kind, cond, len(hashed), len(looped))
			}
		}
	}
}
