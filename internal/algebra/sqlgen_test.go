package algebra

import (
	"strings"
	"testing"

	"perm/internal/sql"
	"perm/internal/value"
)

// sqlgen_test.go covers the algebra→SQL decompiler operator by operator; the
// engine-level round-trip tests assert semantic equivalence, these assert
// the structural SQL shapes.

func TestToSQLSelect(t *testing.T) {
	sel := &Select{Input: scan("t", "a"), Cond: &Bin{Op: sql.OpGt, L: col(0), R: &Const{Val: value.NewInt(1)}}}
	text := ToSQL(sel)
	if !strings.Contains(text, "WHERE") || !strings.Contains(text, "> 1") {
		t.Errorf("SQL = %s", text)
	}
}

func TestToSQLJoins(t *testing.T) {
	mk := func(kind JoinKind) string {
		j := NewJoin(kind, scan("a", "x"), scan("b", "y"),
			&Bin{Op: sql.OpEq, L: col(0), R: col(1)})
		if kind == JoinCross {
			j = NewJoin(kind, scan("a", "x"), scan("b", "y"), nil)
		}
		return ToSQL(j)
	}
	if !strings.Contains(mk(JoinLeft), "LEFT JOIN") {
		t.Error("left join keyword missing")
	}
	if !strings.Contains(mk(JoinRight), "RIGHT JOIN") {
		t.Error("right join keyword missing")
	}
	if !strings.Contains(mk(JoinFull), "FULL JOIN") {
		t.Error("full join keyword missing")
	}
	if !strings.Contains(mk(JoinCross), "CROSS JOIN") {
		t.Error("cross join keyword missing")
	}
}

func TestToSQLAgg(t *testing.T) {
	agg := NewAgg(scan("t", "a", "b"),
		[]Expr{col(0)},
		[]AggExpr{{Func: AggCount}, {Func: AggSum, Arg: col(1), Distinct: true}},
		[]string{"a"}, []string{"cnt", "total"})
	text := ToSQL(agg)
	for _, want := range []string{"GROUP BY", "count(*)", "sum(DISTINCT"} {
		if !strings.Contains(text, want) {
			t.Errorf("SQL missing %q: %s", want, text)
		}
	}
}

func TestToSQLSetOps(t *testing.T) {
	kinds := map[SetOpKind]string{
		UnionAll:          "UNION ALL",
		UnionDistinct:     "UNION",
		IntersectAll:      "INTERSECT ALL",
		IntersectDistinct: "INTERSECT",
		ExceptAll:         "EXCEPT ALL",
		ExceptDistinct:    "EXCEPT",
	}
	for kind, kw := range kinds {
		text := ToSQL(NewSetOp(kind, scan("a", "x"), scan("b", "x")))
		if !strings.Contains(text, kw) {
			t.Errorf("%v: missing %q in %s", kind, kw, text)
		}
	}
}

func TestToSQLSortLimitDistinct(t *testing.T) {
	srt := &Sort{Input: scan("t", "a"), Keys: []SortKey{{Expr: col(0), Desc: true}}}
	text := ToSQL(srt)
	if !strings.Contains(text, "ORDER BY") || !strings.Contains(text, "DESC") {
		t.Errorf("sort SQL = %s", text)
	}
	lim := &Limit{Input: scan("t", "a"), Count: 5, Offset: 2}
	text = ToSQL(lim)
	if !strings.Contains(text, "LIMIT 5") || !strings.Contains(text, "OFFSET 2") {
		t.Errorf("limit SQL = %s", text)
	}
	text = ToSQL(&Distinct{Input: scan("t", "a")})
	if !strings.Contains(text, "SELECT DISTINCT") {
		t.Errorf("distinct SQL = %s", text)
	}
}

func TestToSQLValues(t *testing.T) {
	v := &Values{
		Rows: [][]Expr{{&Const{Val: value.NewInt(1)}}, {&Const{Val: value.NewInt(2)}}},
		Sch:  Schema{{Name: "x", Type: value.KindInt}},
	}
	text := ToSQL(v)
	if !strings.Contains(text, "UNION ALL") {
		t.Errorf("values SQL = %s", text)
	}
	empty := &Values{Sch: Schema{{Name: "x", Type: value.KindInt}}}
	if !strings.Contains(ToSQL(empty), "WHERE FALSE") {
		t.Errorf("empty values SQL = %s", ToSQL(empty))
	}
	// FROM-less select body: one empty row.
	oneEmpty := &Values{Rows: [][]Expr{{}}, Sch: Schema{}}
	if !strings.Contains(ToSQL(oneEmpty), "__dummy__") {
		t.Errorf("empty row SQL = %s", ToSQL(oneEmpty))
	}
}

func TestToSQLExprForms(t *testing.T) {
	sch := scan("t", "a", "b")
	exprs := []Expr{
		&Not{E: &IsNull{E: col(0)}},
		&Neg{E: col(0)},
		&IsNull{E: col(0), Not: true},
		&Func{Name: "coalesce", Args: []Expr{col(0), &Const{Val: value.NewInt(0)}}, Typ: value.KindInt},
		&Case{Whens: []CaseWhen{{Cond: &IsNull{E: col(0)}, Result: col(1)}}, Else: col(0), Typ: value.KindInt},
		&InList{E: col(0), List: []Expr{&Const{Val: value.NewInt(1)}}, Neg: true},
		&Like{E: &Cast{E: col(0), To: value.KindString}, Pattern: &Const{Val: value.NewString("%x")}},
		&Bin{Op: sql.OpNotDistinct, L: col(0), R: col(1)},
	}
	wants := []string{
		"NOT", "(-", "IS NOT NULL", "coalesce(", "CASE WHEN", "NOT IN (",
		"LIKE", "IS NOT DISTINCT FROM",
	}
	for i, e := range exprs {
		p := NewProject(sch, []Expr{e}, []string{"o"})
		text := ToSQL(p)
		if !strings.Contains(text, wants[i]) {
			t.Errorf("expr %d: missing %q in %s", i, wants[i], text)
		}
	}
}

func TestToSQLSubplans(t *testing.T) {
	inner := scan("u", "z")
	mk := func(sp *Subplan) string {
		sel := &Select{Input: scan("t", "a"), Cond: sp}
		return ToSQL(sel)
	}
	if text := mk(&Subplan{Mode: ExistsSubplan, Plan: inner}); !strings.Contains(text, "EXISTS (") {
		t.Errorf("exists = %s", text)
	}
	if text := mk(&Subplan{Mode: ExistsSubplan, Plan: inner, Neg: true}); !strings.Contains(text, "NOT EXISTS") {
		t.Errorf("not exists = %s", text)
	}
	if text := mk(&Subplan{Mode: InSubplan, Plan: inner, Needle: col(0)}); !strings.Contains(text, "IN (") {
		t.Errorf("in = %s", text)
	}
	if text := mk(&Subplan{Mode: AnySubplan, Plan: inner, Needle: col(0), CmpOp: sql.OpGt}); !strings.Contains(text, "> ANY") {
		t.Errorf("any = %s", text)
	}
	if text := mk(&Subplan{Mode: AllSubplan, Plan: inner, Needle: col(0), CmpOp: sql.OpLt}); !strings.Contains(text, "< ALL") {
		t.Errorf("all = %s", text)
	}
}

func TestSQLIdentQuoting(t *testing.T) {
	if sqlIdent("plain_name2") != "plain_name2" {
		t.Error("plain names must not quote")
	}
	if sqlIdent("select") != `"select"` {
		t.Error("reserved words must quote")
	}
	if sqlIdent("Mixed") != `"Mixed"` {
		t.Error("mixed case must quote")
	}
	if sqlIdent(`wei"rd`) != `"wei""rd"` {
		t.Error("embedded quotes must double")
	}
}

func TestAnnotatedTree(t *testing.T) {
	j := NewJoin(JoinInner, scan("a", "x"), scan("b", "y"), nil)
	out := AnnotatedTree(j, func(op Op) string {
		if _, ok := op.(*Scan); ok {
			return "(rows≈7)"
		}
		return ""
	})
	if strings.Count(out, "(rows≈7)") != 2 {
		t.Errorf("annotations missing:\n%s", out)
	}
}

func TestTreeDescribeCoverage(t *testing.T) {
	ops := []Op{
		&Select{Input: scan("t", "a"), Cond: &IsNull{E: col(0)}},
		NewAgg(scan("t", "a"), []Expr{col(0)}, []AggExpr{{Func: AggCount}}, nil, nil),
		&Sort{Input: scan("t", "a"), Keys: []SortKey{{Expr: col(0), Desc: true}}},
		&Limit{Input: scan("t", "a"), Count: -1, Offset: 3},
		&Values{Rows: [][]Expr{{}}, Sch: Schema{}},
		&BaseRel{Input: scan("t", "a"), RelName: "v"},
		&ProvDone{Input: scan("t", "a")},
		NewSetOp(ExceptDistinct, scan("t", "a"), scan("u", "b")),
	}
	for _, op := range ops {
		if Tree(op) == "" {
			t.Errorf("empty tree for %T", op)
		}
	}
	// Long projection lists truncate.
	var exprs []Expr
	var names []string
	for i := 0; i < 40; i++ {
		exprs = append(exprs, &Const{Val: value.NewString("some_longish_constant")})
		names = append(names, "c")
	}
	p := NewProject(scan("t", "a"), exprs, names)
	if !strings.Contains(Tree(p), "...") {
		t.Error("long projections must truncate in tree display")
	}
}

func TestShiftColsInsideSubplanOuterRefs(t *testing.T) {
	// OuterRefs inside a correlated subplan live in the outer column space
	// and must be remapped by MapCols/ShiftCols on the outer expression.
	inner := &Select{
		Input: scan("u", "z"),
		Cond:  &Bin{Op: sql.OpEq, L: col(0), R: &OuterRef{Idx: 1, Typ: value.KindInt}},
	}
	sp := &Subplan{Mode: ExistsSubplan, Plan: inner, Correlated: true}
	shifted := ShiftCols(sp, 3).(*Subplan)
	var gotIdx = -1
	Walk(shifted.Plan, func(op Op) {
		if sel, ok := op.(*Select); ok {
			if b, ok := sel.Cond.(*Bin); ok {
				if or, ok := b.R.(*OuterRef); ok {
					gotIdx = or.Idx
				}
			}
		}
	})
	if gotIdx != 4 {
		t.Errorf("outer ref idx = %d, want 4", gotIdx)
	}
}
