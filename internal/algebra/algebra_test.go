package algebra

import (
	"slices"
	"strings"
	"testing"

	"perm/internal/sql"
	"perm/internal/value"
)

func scan(table string, cols ...string) *Scan {
	sch := make(Schema, len(cols))
	for i, c := range cols {
		sch[i] = Column{Name: c, Table: table, Type: value.KindInt}
	}
	return &Scan{Table: table, Alias: table, Sch: sch}
}

func col(i int) *ColIdx { return &ColIdx{Idx: i, Typ: value.KindInt, Name: ""} }

func TestSchemaHelpers(t *testing.T) {
	sch := Schema{
		{Name: "a", Type: value.KindInt},
		{Name: "p", Type: value.KindInt, IsProv: true},
		{Name: "b", Type: value.KindString},
	}
	if got := sch.ProvIdx(); len(got) != 1 || got[0] != 1 {
		t.Errorf("ProvIdx = %v", got)
	}
	if got := sch.DataIdx(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("DataIdx = %v", got)
	}
	if got := sch.String(); got != "[a, p*, b]" {
		t.Errorf("String = %q", got)
	}
	clone := sch.Clone()
	clone[0].Name = "x"
	if sch[0].Name != "a" {
		t.Error("Clone must not alias")
	}
}

func TestQualifiedName(t *testing.T) {
	c := Column{Name: "a", Table: "t"}
	if c.QualifiedName() != "t.a" {
		t.Errorf("got %q", c.QualifiedName())
	}
	c.Table = ""
	if c.QualifiedName() != "a" {
		t.Errorf("got %q", c.QualifiedName())
	}
}

func TestShiftCols(t *testing.T) {
	e := &Bin{Op: sql.OpEq, L: col(0), R: col(3)}
	shifted := ShiftCols(e, 2).(*Bin)
	if shifted.L.(*ColIdx).Idx != 2 || shifted.R.(*ColIdx).Idx != 5 {
		t.Errorf("shifted = %v", shifted)
	}
	// Original untouched.
	if e.L.(*ColIdx).Idx != 0 {
		t.Error("ShiftCols must copy")
	}
}

func TestMapColsCoversAllNodes(t *testing.T) {
	e := Expr(&Case{
		Whens: []CaseWhen{{
			Cond:   &IsNull{E: col(1)},
			Result: &Func{Name: "abs", Args: []Expr{&Neg{E: col(2)}}, Typ: value.KindInt},
		}},
		Else: &InList{E: col(3), List: []Expr{&Const{Val: value.NewInt(1)}}},
		Typ:  value.KindInt,
	})
	e = &Bin{Op: sql.OpAnd, L: e, R: &Like{E: col(4), Pattern: &Const{Val: value.NewString("%")}}}
	e = &Not{E: &Cast{E: e, To: value.KindBool}}
	used := map[int]bool{}
	ColsUsed(e, used)
	for _, want := range []int{1, 2, 3, 4} {
		if !used[want] {
			t.Errorf("column %d not visited", want)
		}
	}
}

func TestAndAllSplitAnd(t *testing.T) {
	a := &Bin{Op: sql.OpEq, L: col(0), R: col(1)}
	b := &Bin{Op: sql.OpLt, L: col(2), R: col(3)}
	combined := AndAll([]Expr{a, nil, b})
	parts := SplitAnd(combined)
	if len(parts) != 2 {
		t.Errorf("SplitAnd = %v", parts)
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) must be nil")
	}
	if got := SplitAnd(nil); got != nil {
		t.Errorf("SplitAnd(nil) = %v", got)
	}
}

func TestHasSubplan(t *testing.T) {
	sp := &Subplan{Mode: ExistsSubplan, Plan: scan("t", "a")}
	e := &Bin{Op: sql.OpAnd, L: &Const{Val: value.NewBool(true)}, R: sp}
	if !HasSubplan(e) {
		t.Error("subplan not detected")
	}
	if HasSubplan(col(0)) {
		t.Error("false positive")
	}
}

func TestNewJoinSchema(t *testing.T) {
	l, r := scan("l", "a", "b"), scan("r", "c")
	j := NewJoin(JoinInner, l, r, nil)
	if len(j.Sch) != 3 {
		t.Errorf("inner join schema = %v", j.Sch)
	}
}

func TestNewSetOpWidensTypes(t *testing.T) {
	l := scan("l", "a")
	r := &Scan{Table: "r", Sch: Schema{{Name: "x", Type: value.KindFloat}}}
	s := NewSetOp(UnionAll, l, r)
	if s.Sch[0].Type != value.KindFloat {
		t.Errorf("union type = %v, want float", s.Sch[0].Type)
	}
	if s.Sch[0].Name != "a" {
		t.Error("union schema keeps left names")
	}
}

func TestAggExprType(t *testing.T) {
	if (AggExpr{Func: AggCount}).Type() != value.KindInt {
		t.Error("count type")
	}
	if (AggExpr{Func: AggAvg, Arg: col(0)}).Type() != value.KindFloat {
		t.Error("avg type")
	}
	if (AggExpr{Func: AggSum, Arg: &ColIdx{Idx: 0, Typ: value.KindFloat}}).Type() != value.KindFloat {
		t.Error("sum type follows arg")
	}
}

func TestWithChildrenCopies(t *testing.T) {
	s := scan("t", "a")
	sel := &Select{Input: s, Cond: &Const{Val: value.NewBool(true)}}
	s2 := scan("u", "b")
	sel2 := sel.WithChildren([]Op{s2}).(*Select)
	if sel2.Input != s2 || sel.Input != Op(s) {
		t.Error("WithChildren must copy, not mutate")
	}
}

func TestWalkAndCount(t *testing.T) {
	j := NewJoin(JoinInner, scan("a", "x"), scan("b", "y"), nil)
	p := NewProject(j, IdentityExprs(j.Sch), j.Sch.Names())
	if CountOps(p) != 4 {
		t.Errorf("CountOps = %d, want 4", CountOps(p))
	}
	var names []string
	Walk(p, func(op Op) { names = append(names, op.Name()) })
	if len(names) != 4 || !strings.HasPrefix(names[0], "Project") {
		t.Errorf("walk order = %v", names)
	}
}

func TestTreePrinting(t *testing.T) {
	j := NewJoin(JoinLeft, scan("a", "x"), scan("b", "y"),
		&Bin{Op: sql.OpEq, L: col(0), R: col(1)})
	tree := Tree(&Select{Input: j, Cond: &IsNull{E: col(0), Not: true}})
	for _, want := range []string{"Select σ", "Join ⋈ Left", "Scan a", "Scan b", "└──", "├──"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestMapExprsRewritesEverywhere(t *testing.T) {
	j := NewJoin(JoinInner, scan("a", "x"), scan("b", "y"),
		&Bin{Op: sql.OpEq, L: col(0), R: col(1)})
	agg := NewAgg(j, []Expr{col(0)}, []AggExpr{{Func: AggSum, Arg: col(1)}}, nil, nil)
	count := 0
	MapExprs(agg, func(e Expr) Expr {
		count++
		return e
	})
	// join cond + group expr + agg arg
	if count != 3 {
		t.Errorf("MapExprs visited %d expressions, want 3", count)
	}
}

func TestToSQLScanProject(t *testing.T) {
	s := scan("t", "a", "b")
	p := NewProject(s, []Expr{
		&Bin{Op: sql.OpAdd, L: col(0), R: &Const{Val: value.NewInt(1)}},
	}, []string{"a1"})
	text := ToSQL(p)
	for _, want := range []string{"FROM t", "+ 1", "AS a1"} {
		if !strings.Contains(text, want) {
			t.Errorf("SQL missing %q: %s", want, text)
		}
	}
}

func TestToSQLDuplicateNames(t *testing.T) {
	j := NewJoin(JoinInner, scan("a", "i"), scan("b", "i"),
		&Bin{Op: sql.OpEq, L: col(0), R: col(1)})
	text := ToSQL(j)
	if !strings.Contains(text, "i_2") {
		t.Errorf("duplicate columns must uniquify: %s", text)
	}
}

func TestOpNames(t *testing.T) {
	cases := map[string]Op{
		"Scan t":           scan("t", "a"),
		"Distinct δ":       &Distinct{Input: scan("t", "a")},
		"Union All ∪":      NewSetOp(UnionAll, scan("t", "a"), scan("u", "b")),
		"BaseRelation(v)":  &BaseRel{Input: scan("t", "a"), RelName: "v"},
		"ProvenanceGiven":  &ProvDone{Input: scan("t", "a")},
		"Limit 3 offset 0": &Limit{Input: scan("t", "a"), Count: 3},
		"Values (0 rows)":  &Values{},
		"Sort τ":           &Sort{Input: scan("t", "a")},
	}
	for want, op := range cases {
		if got := op.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestSubplanType(t *testing.T) {
	sp := &Subplan{Mode: ScalarSubplan, Plan: scan("t", "a")}
	if sp.Type() != value.KindInt {
		t.Errorf("scalar subplan type = %v", sp.Type())
	}
	sp.Mode = ExistsSubplan
	if sp.Type() != value.KindBool {
		t.Errorf("exists subplan type = %v", sp.Type())
	}
}

// TestVisitExprsReachesNestedPlans: the walk reaches an outer reference in
// every place a plan holds expressions — a Sort key, an aggregate argument,
// a VALUES row, the needle of a subplan, and the plan of a subplan nested in
// a join condition inside another subplan's plan.
func TestVisitExprsReachesNestedPlans(t *testing.T) {
	outer := func(i int) *OuterRef { return &OuterRef{Idx: i, Typ: value.KindInt, Name: "o"} }
	inner := &Select{Input: scan("u", "c"), Cond: &Bin{Op: sql.OpEq, L: col(0), R: outer(7)}}
	join := NewJoin(JoinInner, scan("t", "a"), scan("v", "b"),
		&Subplan{Mode: ExistsSubplan, Plan: inner, Correlated: true})
	nested := &Select{Input: scan("w", "d"), Cond: &Subplan{Mode: InSubplan, Needle: outer(1), Plan: join}}
	plans := []Op{
		&Sort{Input: scan("t", "a"), Keys: []SortKey{{Expr: &Neg{E: outer(2)}}}},
		NewAgg(scan("t", "a"), nil, []AggExpr{{Func: "sum", Arg: &Cast{E: outer(3), To: value.KindFloat}}}, nil, []string{"sum"}),
		&Values{Rows: [][]Expr{{&Const{Val: value.NewInt(1)}}, {outer(4)}}, Sch: Schema{{Name: "x", Type: value.KindInt}}},
		nested,
	}
	for i, p := range plans {
		var refs []int
		VisitExprs(p, func(e Expr) {
			if o, ok := e.(*OuterRef); ok {
				refs = append(refs, o.Idx)
			}
		})
		slices.Sort(refs)
		if want := [][]int{{2}, {3}, {4}, {1, 7}}[i]; !slices.Equal(refs, want) {
			t.Errorf("plan %d: outer refs %v, want %v", i, refs, want)
		}
	}
	var none int
	VisitExprs(scan("t", "a"), func(Expr) { none++ })
	if none != 0 {
		t.Errorf("a scan has no expressions, the walk visited %d", none)
	}
}
