package executor

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// testStore builds a store with two small integer tables:
//
//	t(a, b): (1,10) (2,20) (3,30) (2,25)
//	u(a, c): (2,200) (3,300) (5,500)
func testStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	tt, err := s.CreateTable(&catalog.TableDef{Name: "t", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{1, 10}, {2, 20}, {3, 30}, {2, 25}} {
		tt.Insert(value.Row{value.NewInt(r[0]), value.NewInt(r[1])})
	}
	uu, err := s.CreateTable(&catalog.TableDef{Name: "u", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt}, {Name: "c", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{2, 200}, {3, 300}, {5, 500}} {
		uu.Insert(value.Row{value.NewInt(r[0]), value.NewInt(r[1])})
	}
	return s
}

func scanT() *algebra.Scan {
	return &algebra.Scan{Table: "t", Alias: "t", Sch: algebra.Schema{
		{Name: "a", Table: "t", Type: value.KindInt},
		{Name: "b", Table: "t", Type: value.KindInt},
	}}
}

func scanU() *algebra.Scan {
	return &algebra.Scan{Table: "u", Alias: "u", Sch: algebra.Schema{
		{Name: "a", Table: "u", Type: value.KindInt},
		{Name: "c", Table: "u", Type: value.KindInt},
	}}
}

func intCol(i int) *algebra.ColIdx { return &algebra.ColIdx{Idx: i, Typ: value.KindInt} }
func intConst(n int64) *algebra.Const {
	return &algebra.Const{Val: value.NewInt(n)}
}

func runPlan(t *testing.T, s *storage.Store, plan algebra.Op) []value.Row {
	t.Helper()
	res, err := Run(NewContext(s), plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Rows
}

func rowsToInts(rows []value.Row) [][]int64 {
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = make([]int64, len(r))
		for j, v := range r {
			if v.IsNull() {
				out[i][j] = -1
			} else {
				out[i][j] = v.Int()
			}
		}
	}
	return out
}

func equalInts(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestScanAndFilter(t *testing.T) {
	s := testStore(t)
	plan := &algebra.Select{
		Input: scanT(),
		Cond:  &algebra.Bin{Op: sql.OpGt, L: intCol(1), R: intConst(15)},
	}
	rows := runPlan(t, s, plan)
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestMissingTable(t *testing.T) {
	s := storage.NewStore()
	_, err := Run(NewContext(s), scanT())
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("err = %v", err)
	}
}

func TestProjectExpressions(t *testing.T) {
	s := testStore(t)
	plan := algebra.NewProject(scanT(), []algebra.Expr{
		&algebra.Bin{Op: sql.OpMul, L: intCol(0), R: intCol(1)},
	}, []string{"prod"})
	rows := runPlan(t, s, plan)
	if rows[0][0].Int() != 10 || rows[3][0].Int() != 50 {
		t.Errorf("rows = %v", rows)
	}
}

func TestHashJoinInner(t *testing.T) {
	s := testStore(t)
	join := algebra.NewJoin(algebra.JoinInner, scanT(), scanU(),
		&algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)})
	rows := runPlan(t, s, join)
	// t rows with a=2 (x2) match u a=2; t a=3 matches u a=3 → 3 rows.
	if len(rows) != 3 {
		t.Errorf("rows = %v", rowsToInts(rows))
	}
}

func TestHashJoinLeft(t *testing.T) {
	s := testStore(t)
	join := algebra.NewJoin(algebra.JoinLeft, scanT(), scanU(),
		&algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)})
	rows := runPlan(t, s, join)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rowsToInts(rows))
	}
	// The a=1 row must be null-extended.
	found := false
	for _, r := range rows {
		if r[0].Int() == 1 {
			found = true
			if !r[2].IsNull() || !r[3].IsNull() {
				t.Errorf("unmatched left row not null-padded: %v", r)
			}
		}
	}
	if !found {
		t.Error("a=1 row missing")
	}
}

func TestNLJoinRightAndFull(t *testing.T) {
	s := testStore(t)
	// Force nested loop with a non-equi condition.
	cond := &algebra.Bin{Op: sql.OpLt, L: intCol(0), R: intCol(2)}
	right := algebra.NewJoin(algebra.JoinRight, scanT(), scanU(), cond)
	rows := runPlan(t, s, right)
	// every u row matches at least one t row with t.a < u.a except none?
	// t.a values: 1,2,3,2; u.a: 2,3,5. matches: u2:{1}, u3:{1,2,2}, u5:{1,2,3,2} → 8 rows, all matched.
	if len(rows) != 8 {
		t.Errorf("right join rows = %d: %v", len(rows), rowsToInts(rows))
	}

	full := algebra.NewJoin(algebra.JoinFull, scanT(), scanU(),
		&algebra.Bin{Op: sql.OpEq, L: &algebra.Bin{Op: sql.OpAdd, L: intCol(0), R: intCol(1)}, R: intCol(3)})
	rows = runPlan(t, s, full)
	// matches where a+b = c: (2,25)? 27 no; none match except... a+b: 11,22,32,27; c: 200,300,500 → none.
	// full join: 4 left-unmatched + 3 right-unmatched = 7 rows.
	if len(rows) != 7 {
		t.Errorf("full join rows = %d: %v", len(rows), rowsToInts(rows))
	}
}

func TestHashJoinRight(t *testing.T) {
	s := testStore(t)
	// Equi condition → hash join path. u(5) has no match and must appear
	// null-padded on the left.
	right := algebra.NewJoin(algebra.JoinRight, scanT(), scanU(),
		&algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)})
	rows := runPlan(t, s, right)
	if len(rows) != 4 {
		t.Fatalf("right join rows = %v, want 4", rowsToInts(rows))
	}
	foundUnmatched := false
	for _, r := range rows {
		if r[2].Int() == 5 {
			foundUnmatched = true
			if !r[0].IsNull() || !r[1].IsNull() {
				t.Errorf("unmatched right row not null-padded: %v", r)
			}
		}
	}
	if !foundUnmatched {
		t.Error("unmatched right row (a=5) missing")
	}
}

func TestHashJoinFull(t *testing.T) {
	s := testStore(t)
	full := algebra.NewJoin(algebra.JoinFull, scanT(), scanU(),
		&algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)})
	rows := runPlan(t, s, full)
	// matched: 3 rows; left-unmatched a=1: 1; right-unmatched a=5: 1 → 5.
	if len(rows) != 5 {
		t.Errorf("rows = %v", rowsToInts(rows))
	}
}

func TestSemiAntiJoin(t *testing.T) {
	s := testStore(t)
	cond := &algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(2)}
	semi := algebra.NewJoin(algebra.JoinSemi, scanT(), scanU(), cond)
	rows := runPlan(t, s, semi)
	if len(rows) != 3 { // rows a=2,3,2 have matches; each left row emitted once
		t.Errorf("semi rows = %v", rowsToInts(rows))
	}
	anti := algebra.NewJoin(algebra.JoinAnti, scanT(), scanU(), cond)
	rows = runPlan(t, s, anti)
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("anti rows = %v", rowsToInts(rows))
	}
}

func TestNullSafeJoinKeys(t *testing.T) {
	s := storage.NewStore()
	tab, _ := s.CreateTable(&catalog.TableDef{Name: "n", Columns: []catalog.Column{
		{Name: "x", Type: value.KindInt},
	}})
	tab.Insert(value.Row{value.Null})
	tab.Insert(value.Row{value.NewInt(1)})
	scanN := func() *algebra.Scan {
		return &algebra.Scan{Table: "n", Sch: algebra.Schema{{Name: "x", Type: value.KindInt}}}
	}
	// Strict equality: NULL never matches.
	eq := algebra.NewJoin(algebra.JoinInner, scanN(), scanN(),
		&algebra.Bin{Op: sql.OpEq, L: intCol(0), R: intCol(1)})
	rows := runPlan(t, s, eq)
	if len(rows) != 1 {
		t.Errorf("= join rows = %v", rowsToInts(rows))
	}
	// IS NOT DISTINCT FROM: NULL joins NULL.
	nd := algebra.NewJoin(algebra.JoinInner, scanN(), scanN(),
		&algebra.Bin{Op: sql.OpNotDistinct, L: intCol(0), R: intCol(1)})
	rows = runPlan(t, s, nd)
	if len(rows) != 2 {
		t.Errorf("IS NOT DISTINCT FROM join rows = %v", rowsToInts(rows))
	}
}

func TestAggregation(t *testing.T) {
	s := testStore(t)
	agg := algebra.NewAgg(scanT(),
		[]algebra.Expr{intCol(0)},
		[]algebra.AggExpr{
			{Func: algebra.AggCount},
			{Func: algebra.AggSum, Arg: intCol(1)},
			{Func: algebra.AggMin, Arg: intCol(1)},
			{Func: algebra.AggMax, Arg: intCol(1)},
			{Func: algebra.AggAvg, Arg: intCol(1)},
		}, nil, nil)
	sorted := &algebra.Sort{Input: agg, Keys: []algebra.SortKey{{Expr: intCol(0)}}}
	rows := runPlan(t, s, sorted)
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rowsToInts(rows))
	}
	// group a=2: count=2 sum=45 min=20 max=25 avg=22.5
	g2 := rows[1]
	if g2[1].Int() != 2 || g2[2].Int() != 45 || g2[3].Int() != 20 || g2[4].Int() != 25 || g2[5].Float() != 22.5 {
		t.Errorf("group 2 = %v", g2)
	}
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	s := testStore(t)
	empty := &algebra.Select{Input: scanT(), Cond: &algebra.Const{Val: value.NewBool(false)}}
	agg := algebra.NewAgg(empty, nil, []algebra.AggExpr{
		{Func: algebra.AggCount},
		{Func: algebra.AggSum, Arg: intCol(1)},
	}, nil, nil)
	rows := runPlan(t, s, agg)
	if len(rows) != 1 {
		t.Fatalf("scalar agg must emit one row, got %v", rows)
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("count/sum over empty = %v, want (0, NULL)", rows[0])
	}
}

func TestAggDistinct(t *testing.T) {
	s := testStore(t)
	agg := algebra.NewAgg(scanT(), nil, []algebra.AggExpr{
		{Func: algebra.AggCount, Arg: intCol(0), Distinct: true},
		{Func: algebra.AggSum, Arg: intCol(0), Distinct: true},
	}, nil, nil)
	rows := runPlan(t, s, agg)
	if rows[0][0].Int() != 3 || rows[0][1].Int() != 6 { // distinct a: 1,2,3
		t.Errorf("distinct agg = %v", rows[0])
	}
}

func TestAggNullsSkipped(t *testing.T) {
	s := storage.NewStore()
	tab, _ := s.CreateTable(&catalog.TableDef{Name: "n", Columns: []catalog.Column{
		{Name: "x", Type: value.KindInt},
	}})
	tab.Insert(value.Row{value.Null})
	tab.Insert(value.Row{value.NewInt(5)})
	sc := &algebra.Scan{Table: "n", Sch: algebra.Schema{{Name: "x", Type: value.KindInt}}}
	agg := algebra.NewAgg(sc, nil, []algebra.AggExpr{
		{Func: algebra.AggCount},                 // count(*) = 2
		{Func: algebra.AggCount, Arg: intCol(0)}, // count(x) = 1
		{Func: algebra.AggAvg, Arg: intCol(0)},   // avg = 5
	}, nil, nil)
	rows := runPlan(t, s, agg)
	if rows[0][0].Int() != 2 || rows[0][1].Int() != 1 || rows[0][2].Float() != 5 {
		t.Errorf("agg = %v", rows[0])
	}
}

func TestDistinctOp(t *testing.T) {
	s := testStore(t)
	proj := algebra.NewProject(scanT(), []algebra.Expr{intCol(0)}, []string{"a"})
	rows := runPlan(t, s, &algebra.Distinct{Input: proj})
	if len(rows) != 3 {
		t.Errorf("distinct rows = %v", rowsToInts(rows))
	}
}

func TestSetOps(t *testing.T) {
	s := testStore(t)
	ta := algebra.NewProject(scanT(), []algebra.Expr{intCol(0)}, []string{"a"})
	ua := algebra.NewProject(scanU(), []algebra.Expr{intCol(0)}, []string{"a"})
	cases := []struct {
		kind algebra.SetOpKind
		want int
	}{
		{algebra.UnionAll, 7},
		{algebra.UnionDistinct, 4},     // 1,2,3,5
		{algebra.IntersectAll, 2},      // 2,3 (t has two 2s but u has one)
		{algebra.IntersectDistinct, 2}, // 2,3
		{algebra.ExceptAll, 2},         // 1 and the second 2
		{algebra.ExceptDistinct, 1},    // 1
	}
	for _, c := range cases {
		rows := runPlan(t, s, algebra.NewSetOp(c.kind, ta, ua))
		if len(rows) != c.want {
			t.Errorf("%v: rows = %v, want %d", c.kind, rowsToInts(rows), c.want)
		}
	}
}

func TestSortAndLimit(t *testing.T) {
	s := testStore(t)
	sorted := &algebra.Sort{Input: scanT(), Keys: []algebra.SortKey{
		{Expr: intCol(0), Desc: true},
		{Expr: intCol(1)},
	}}
	rows := runPlan(t, s, sorted)
	want := [][]int64{{3, 30}, {2, 20}, {2, 25}, {1, 10}}
	if !equalInts(rowsToInts(rows), want) {
		t.Errorf("sorted = %v", rowsToInts(rows))
	}
	limited := &algebra.Limit{Input: sorted, Count: 2, Offset: 1}
	rows = runPlan(t, s, limited)
	if !equalInts(rowsToInts(rows), want[1:3]) {
		t.Errorf("limited = %v", rowsToInts(rows))
	}
}

func TestSortNullsFirst(t *testing.T) {
	s := storage.NewStore()
	tab, _ := s.CreateTable(&catalog.TableDef{Name: "n", Columns: []catalog.Column{
		{Name: "x", Type: value.KindInt},
	}})
	tab.Insert(value.Row{value.NewInt(2)})
	tab.Insert(value.Row{value.Null})
	tab.Insert(value.Row{value.NewInt(1)})
	sc := &algebra.Scan{Table: "n", Sch: algebra.Schema{{Name: "x", Type: value.KindInt}}}
	rows := runPlan(t, s, &algebra.Sort{Input: sc, Keys: []algebra.SortKey{{Expr: intCol(0)}}})
	if !rows[0][0].IsNull() || rows[1][0].Int() != 1 || rows[2][0].Int() != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestValuesOp(t *testing.T) {
	s := storage.NewStore()
	v := &algebra.Values{
		Rows: [][]algebra.Expr{{intConst(1)}, {intConst(2)}},
		Sch:  algebra.Schema{{Name: "x", Type: value.KindInt}},
	}
	rows := runPlan(t, s, v)
	if len(rows) != 2 || rows[1][0].Int() != 2 {
		t.Errorf("values = %v", rows)
	}
}

func TestLateralJoin(t *testing.T) {
	s := testStore(t)
	// Right side: u filtered by correlation u.a = outer t.a.
	inner := &algebra.Select{
		Input: scanU(),
		Cond: &algebra.Bin{Op: sql.OpEq,
			L: intCol(0),
			R: &algebra.OuterRef{Idx: 0, Typ: value.KindInt}},
	}
	join := algebra.NewJoin(algebra.JoinInner, scanT(), inner, nil)
	join.Lateral = true
	rows := runPlan(t, s, join)
	if len(rows) != 3 {
		t.Errorf("lateral rows = %v", rowsToInts(rows))
	}
	// Lateral left join keeps unmatched probe rows.
	lj := algebra.NewJoin(algebra.JoinLeft, scanT(), inner, nil)
	lj.Lateral = true
	rows = runPlan(t, s, lj)
	if len(rows) != 4 {
		t.Errorf("lateral left rows = %v", rowsToInts(rows))
	}
}

func TestSubplanScalar(t *testing.T) {
	s := testStore(t)
	maxU := algebra.NewAgg(scanU(), nil, []algebra.AggExpr{{Func: algebra.AggMax, Arg: intCol(0)}}, nil, nil)
	plan := &algebra.Select{
		Input: scanT(),
		Cond: &algebra.Bin{Op: sql.OpLt,
			L: intCol(0),
			R: &algebra.Subplan{Mode: algebra.ScalarSubplan, Plan: maxU}},
	}
	rows := runPlan(t, s, plan)
	if len(rows) != 4 { // all t.a < 5
		t.Errorf("rows = %v", rowsToInts(rows))
	}
}

func TestSubplanExistsCorrelated(t *testing.T) {
	s := testStore(t)
	inner := &algebra.Select{
		Input: scanU(),
		Cond: &algebra.Bin{Op: sql.OpEq,
			L: intCol(0),
			R: &algebra.OuterRef{Idx: 0, Typ: value.KindInt}},
	}
	plan := &algebra.Select{
		Input: scanT(),
		Cond:  &algebra.Subplan{Mode: algebra.ExistsSubplan, Plan: inner, Correlated: true},
	}
	rows := runPlan(t, s, plan)
	if len(rows) != 3 {
		t.Errorf("exists rows = %v", rowsToInts(rows))
	}
	// NOT EXISTS
	plan = &algebra.Select{
		Input: scanT(),
		Cond:  &algebra.Subplan{Mode: algebra.ExistsSubplan, Plan: inner, Correlated: true, Neg: true},
	}
	rows = runPlan(t, s, plan)
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("not exists rows = %v", rowsToInts(rows))
	}
}

func TestSubplanInWithNulls(t *testing.T) {
	s := storage.NewStore()
	tab, _ := s.CreateTable(&catalog.TableDef{Name: "n", Columns: []catalog.Column{
		{Name: "x", Type: value.KindInt},
	}})
	tab.Insert(value.Row{value.Null})
	tab.Insert(value.Row{value.NewInt(1)})
	sc := &algebra.Scan{Table: "n", Sch: algebra.Schema{{Name: "x", Type: value.KindInt}}}

	// 2 NOT IN (NULL, 1) is NULL → filtered out.
	one := &algebra.Values{Rows: [][]algebra.Expr{{intConst(2)}},
		Sch: algebra.Schema{{Name: "v", Type: value.KindInt}}}
	plan := &algebra.Select{
		Input: one,
		Cond: &algebra.Subplan{Mode: algebra.InSubplan, Plan: sc,
			Needle: intCol(0), Neg: true},
	}
	rows := runPlan(t, s, plan)
	if len(rows) != 0 {
		t.Errorf("NOT IN with NULL must filter: %v", rows)
	}
	// 1 IN (NULL, 1) is TRUE.
	plan = &algebra.Select{
		Input: &algebra.Values{Rows: [][]algebra.Expr{{intConst(1)}},
			Sch: algebra.Schema{{Name: "v", Type: value.KindInt}}},
		Cond: &algebra.Subplan{Mode: algebra.InSubplan, Plan: sc, Needle: intCol(0)},
	}
	rows = runPlan(t, s, plan)
	if len(rows) != 1 {
		t.Errorf("IN must match: %v", rows)
	}
}

func TestRowBudget(t *testing.T) {
	s := testStore(t)
	ctx := NewContext(s)
	ctx.RowBudget = 2
	_, err := Run(ctx, scanT())
	if err == nil || !strings.Contains(err.Error(), "row budget") {
		t.Errorf("err = %v", err)
	}
}
