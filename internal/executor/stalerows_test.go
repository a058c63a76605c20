package executor

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

// poisonRows turns stale-row poisoning on for one test.
func poisonRows(t *testing.T) {
	t.Helper()
	if !poisonStaleRows {
		poisonStaleRows = true
		t.Cleanup(func() { poisonStaleRows = false })
	}
}

// TestStaleRowPoisonedSuites runs the suites that drive every blocking
// operator — in memory, through the grace driver at least two levels deep,
// through fused and unfused join emission — once more with every reused row
// overwritten as soon as its successor is handed out: a consumer that keeps a
// row it promised to drop returns '<stale row>' and fails its comparison.
// (The differentials of internal/engine and internal/server run the same way
// under -tags stalerows.)
func TestStaleRowPoisonedSuites(t *testing.T) {
	poisonRows(t)
	t.Run("GraceDriverRecursion", TestGraceDriverRecursion)
	t.Run("JoinEmitsThroughProjection", TestJoinEmitsThroughProjection)
	t.Run("HashedConjunctsLeaveTheResidual", TestHashedConjunctsLeaveTheResidual)
	t.Run("SortMatchesStableReference", TestSortMatchesStableReference)
}

// TestRowMaker: by default every row is new and stays as filled; a reusing
// maker hands out one row over again; poisoned, it hands out a fresh row and
// overwrites the one before, which is what a keeper then reads.
func TestRowMaker(t *testing.T) {
	fill := func(m *rowMaker, v int64) value.Row {
		r := m.New(2)
		r[0], r[1] = value.NewInt(v), value.NewInt(-v)
		return r
	}
	var keep rowMaker
	a, b := fill(&keep, 1), fill(&keep, 2)
	if &a[0] == &b[0] || a[0].Int() != 1 || b[0].Int() != 2 {
		t.Errorf("a keeping maker handed out %v then %v", a, b)
	}
	if !poisonStaleRows { // built with -tags stalerows, there is no unpoisoned reuse to see
		reuse := rowMaker{reuse: true}
		a, b = fill(&reuse, 1), fill(&reuse, 2)
		if &a[0] != &b[0] || a[0].Int() != 2 {
			t.Errorf("a reusing maker handed out %v then %v in different memory", a, b)
		}
	}
	if r := (&rowMaker{reuse: true}).New(0); r == nil {
		t.Error("a zero-width row is nil: the iterators read that as end of stream")
	}
	poisonRows(t)
	poisoned := rowMaker{reuse: true}
	a, b = fill(&poisoned, 1), fill(&poisoned, 2)
	if &a[0] == &b[0] || a[0].Str() != "<stale row>" || a[1].Str() != "<stale row>" || b[0].Int() != 2 {
		t.Errorf("a poisoned maker handed out %v then %v", a, b)
	}
}

// TestBuilderRowLifetime: who is told it may reuse its rows. An aggregation's
// input, the probe input of a join that makes its own rows and the input of a
// computing projection are; filters, limits, UNION ALL and projections of
// leading columns pass their parent's word down; a statement's root, a build
// side, and the inputs of sort, DISTINCT and the buffering set operations are
// not.
func TestBuilderRowLifetime(t *testing.T) {
	computed := func(in algebra.Op) *algebra.Project {
		return algebra.NewProject(in, []algebra.Expr{&algebra.Bin{Op: sql.OpAdd, L: intCol(0), R: intCol(1)}, intCol(0)}, []string{"x", "a"})
	}
	prefix := func(in algebra.Op) *algebra.Project {
		return algebra.NewProject(in, []algebra.Expr{intCol(0)}, []string{"a"})
	}
	filter := func(in algebra.Op) algebra.Op {
		return &algebra.Select{Input: in, Cond: &algebra.Bin{Op: sql.OpGt, L: intCol(0), R: intConst(0)}}
	}
	agg := func(in algebra.Op) algebra.Op {
		return &algebra.Agg{Input: in, Aggs: []algebra.AggExpr{{Func: algebra.AggCount}}, Sch: algebra.Schema{{Name: "n", Type: value.KindInt}}}
	}
	join := func(kind algebra.JoinKind, l, r algebra.Op) *algebra.Join {
		return algebra.NewJoin(kind, l, r, &algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(len(l.Schema()))})
	}
	build := func(plan algebra.Op) iterator {
		it, err := builder{}.build(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	reuses := func(it iterator) bool {
		switch it := it.(type) {
		case *projectIter:
			return it.rows.reuse
		case *hashJoinIter:
			return it.out.rows.reuse
		}
		t.Fatalf("%T makes no rows", it)
		return false
	}

	if reuses(build(computed(scanT()))) {
		t.Error("a statement's root projection reuses its row")
	}
	// agg ← filter ← limit ← prefix projection ← computing projection ← computing projection
	inner := computed(scanT())
	chain := agg(filter(&algebra.Limit{Input: prefix(computed(inner)), Count: -1}))
	pre := build(chain).(*aggIter).input.(*filterIter).input.(*limitIter).input.(*projectIter)
	if !pre.prefix || !reuses(pre.input) || !reuses(pre.input.(*projectIter).input) {
		t.Error("the word of an aggregation did not reach the projections under filter, limit and prefix projection")
	}
	// sort, DISTINCT and INTERSECT keep their inputs; UNION ALL passes on.
	for name, keeper := range map[string]algebra.Op{
		"sort":      &algebra.Sort{Input: computed(scanT()), Keys: []algebra.SortKey{{Expr: intCol(0)}}},
		"distinct":  &algebra.Distinct{Input: computed(scanT())},
		"intersect": &algebra.SetOp{Kind: algebra.IntersectAll, Left: computed(scanT()), Right: computed(scanT()), Sch: computed(scanT()).Schema()},
	} {
		var in iterator
		switch it := build(agg(keeper)).(*aggIter).input.(type) {
		case *sortIter:
			in = it.input
		case *distinctIter:
			in = it.input
		case *setOpIter:
			in = it.left
		}
		if reuses(in) {
			t.Errorf("the input of %s reuses its row", name)
		}
	}
	union := build(agg(&algebra.SetOp{Kind: algebra.UnionAll, Left: computed(scanT()), Right: computed(scanU()), Sch: computed(scanT()).Schema()})).(*aggIter).input.(*concatIter)
	if !reuses(union.left) || !reuses(union.right) {
		t.Error("UNION ALL under an aggregation did not pass the word to both inputs")
	}
	// A join that makes rows reuses them if told to, tells its probe input it
	// may, and never its build input.
	j := build(agg(join(algebra.JoinInner, computed(scanT()), computed(scanU())))).(*aggIter).input.(*hashJoinIter)
	if !reuses(j) || !reuses(j.left) || reuses(j.right) {
		t.Errorf("inner join under an aggregation: emitter %v, probe %v, build %v; want true, true, false", reuses(j), reuses(j.left), reuses(j.right))
	}
	if j := build(join(algebra.JoinLeft, computed(scanT()), computed(scanU()))).(*hashJoinIter); reuses(j) || !reuses(j.left) {
		t.Error("a root join must keep its rows and still let its probe input reuse")
	}
	// A statement's root takes the word of the stream's caller, and only the
	// root: a sort under it keeps its input whatever the caller says.
	for _, reuse := range []bool{false, true} {
		s, err := OpenCached(NewContext(testStore(t)), computed(&algebra.Sort{Input: computed(scanT()), Keys: []algebra.SortKey{{Expr: intCol(0)}}}), nil, reuse)
		if err != nil {
			t.Fatal(err)
		}
		root := s.it.(*projectIter)
		if reuses(root) != reuse || reuses(root.input.(*sortIter).input) {
			t.Errorf("opened with reuse %v: root reuses %v, sort input reuses %v", reuse, reuses(root), reuses(root.input.(*sortIter).input))
		}
		s.Close()
	}
}
