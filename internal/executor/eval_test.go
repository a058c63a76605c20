package executor

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

func evalOne(t *testing.T, e algebra.Expr, row value.Row) value.Value {
	t.Helper()
	v, err := Eval(e, row, NewContext(nil))
	if err != nil {
		t.Fatalf("Eval(%v): %v", e, err)
	}
	return v
}

func boolConst(b bool) *algebra.Const { return &algebra.Const{Val: value.NewBool(b)} }
func nullConst() *algebra.Const       { return &algebra.Const{Val: value.Null} }
func strConst(s string) *algebra.Const {
	return &algebra.Const{Val: value.NewString(s)}
}

func TestThreeValuedAnd(t *testing.T) {
	cases := []struct {
		l, r algebra.Expr
		want value.Value
	}{
		{boolConst(true), boolConst(true), value.NewBool(true)},
		{boolConst(true), boolConst(false), value.NewBool(false)},
		{boolConst(false), nullConst(), value.NewBool(false)}, // FALSE AND NULL = FALSE
		{nullConst(), boolConst(false), value.NewBool(false)},
		{boolConst(true), nullConst(), value.Null},
		{nullConst(), nullConst(), value.Null},
	}
	for _, c := range cases {
		got := evalOne(t, &algebra.Bin{Op: sql.OpAnd, L: c.l, R: c.r}, nil)
		if value.Distinct(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("AND(%v, %v) = %v, want %v", c.l, c.r, got, c.want)
		}
	}
}

func TestThreeValuedOr(t *testing.T) {
	cases := []struct {
		l, r algebra.Expr
		want value.Value
	}{
		{boolConst(false), boolConst(false), value.NewBool(false)},
		{boolConst(true), nullConst(), value.NewBool(true)}, // TRUE OR NULL = TRUE
		{nullConst(), boolConst(true), value.NewBool(true)},
		{boolConst(false), nullConst(), value.Null},
		{nullConst(), nullConst(), value.Null},
	}
	for _, c := range cases {
		got := evalOne(t, &algebra.Bin{Op: sql.OpOr, L: c.l, R: c.r}, nil)
		if value.Distinct(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("OR = %v, want %v", got, c.want)
		}
	}
}

func TestNotOfNull(t *testing.T) {
	got := evalOne(t, &algebra.Not{E: nullConst()}, nil)
	if !got.IsNull() {
		t.Errorf("NOT NULL = %v", got)
	}
}

func TestComparisonNullPropagation(t *testing.T) {
	got := evalOne(t, &algebra.Bin{Op: sql.OpEq, L: nullConst(), R: nullConst()}, nil)
	if !got.IsNull() {
		t.Errorf("NULL = NULL must be NULL, got %v", got)
	}
	got = evalOne(t, &algebra.Bin{Op: sql.OpNotDistinct, L: nullConst(), R: nullConst()}, nil)
	if got.IsNull() || !got.Bool() {
		t.Errorf("NULL IS NOT DISTINCT FROM NULL must be TRUE, got %v", got)
	}
}

func TestIsNullNeverNull(t *testing.T) {
	got := evalOne(t, &algebra.IsNull{E: nullConst()}, nil)
	if got.IsNull() || !got.Bool() {
		t.Errorf("NULL IS NULL = %v", got)
	}
	got = evalOne(t, &algebra.IsNull{E: boolConst(true), Not: true}, nil)
	if !got.Bool() {
		t.Errorf("TRUE IS NOT NULL = %v", got)
	}
}

func TestCaseEvaluation(t *testing.T) {
	e := &algebra.Case{
		Whens: []algebra.CaseWhen{
			{Cond: boolConst(false), Result: strConst("no")},
			{Cond: nullConst(), Result: strConst("never")},
			{Cond: boolConst(true), Result: strConst("yes")},
		},
		Else: strConst("else"),
		Typ:  value.KindString,
	}
	if got := evalOne(t, e, nil); got.Str() != "yes" {
		t.Errorf("CASE = %v", got)
	}
	e.Whens = e.Whens[:2]
	if got := evalOne(t, e, nil); got.Str() != "else" {
		t.Errorf("CASE else = %v", got)
	}
	e.Else = nil
	if got := evalOne(t, e, nil); !got.IsNull() {
		t.Errorf("CASE without else = %v", got)
	}
}

func TestInListSemantics(t *testing.T) {
	in := &algebra.InList{
		E:    &algebra.Const{Val: value.NewInt(2)},
		List: []algebra.Expr{nullConst(), &algebra.Const{Val: value.NewInt(3)}},
	}
	// 2 IN (NULL, 3) = NULL
	if got := evalOne(t, in, nil); !got.IsNull() {
		t.Errorf("IN with NULL = %v", got)
	}
	in.List = append(in.List, &algebra.Const{Val: value.NewInt(2)})
	if got := evalOne(t, in, nil); !got.Bool() {
		t.Errorf("IN match = %v", got)
	}
	in.Neg = true
	if got := evalOne(t, in, nil); got.Bool() {
		t.Errorf("NOT IN match = %v", got)
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%l%", true},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"日本語", "日_語", true},
	}
	for _, c := range cases {
		e := &algebra.Like{E: strConst(c.s), Pattern: strConst(c.pat)}
		if got := evalOne(t, e, nil); got.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	// NULL propagation
	e := &algebra.Like{E: nullConst(), Pattern: strConst("%")}
	if got := evalOne(t, e, nil); !got.IsNull() {
		t.Errorf("NULL LIKE = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	call := func(name string, args ...algebra.Expr) value.Value {
		return evalOne(t, &algebra.Func{Name: name, Args: args}, nil)
	}
	i := func(n int64) algebra.Expr { return &algebra.Const{Val: value.NewInt(n)} }
	f := func(x float64) algebra.Expr { return &algebra.Const{Val: value.NewFloat(x)} }

	if got := call("upper", strConst("abc")); got.Str() != "ABC" {
		t.Errorf("upper = %v", got)
	}
	if got := call("lower", strConst("ABC")); got.Str() != "abc" {
		t.Errorf("lower = %v", got)
	}
	if got := call("length", strConst("héllo")); got.Int() != 5 {
		t.Errorf("length = %v", got)
	}
	if got := call("abs", i(-5)); got.Int() != 5 {
		t.Errorf("abs = %v", got)
	}
	if got := call("coalesce", nullConst(), nullConst(), i(3)); got.Int() != 3 {
		t.Errorf("coalesce = %v", got)
	}
	if got := call("nullif", i(1), i(1)); !got.IsNull() {
		t.Errorf("nullif equal = %v", got)
	}
	if got := call("nullif", i(1), i(2)); got.Int() != 1 {
		t.Errorf("nullif distinct = %v", got)
	}
	if got := call("substr", strConst("hello"), i(2), i(3)); got.Str() != "ell" {
		t.Errorf("substr = %v", got)
	}
	if got := call("substr", strConst("hello"), i(4)); got.Str() != "lo" {
		t.Errorf("substr open = %v", got)
	}
	if got := call("replace", strConst("aaa"), strConst("a"), strConst("b")); got.Str() != "bbb" {
		t.Errorf("replace = %v", got)
	}
	if got := call("round", f(2.567), i(1)); got.Float() != 2.6 {
		t.Errorf("round = %v", got)
	}
	if got := call("floor", f(2.9)); got.Float() != 2 {
		t.Errorf("floor = %v", got)
	}
	if got := call("sqrt", f(9)); got.Float() != 3 {
		t.Errorf("sqrt = %v", got)
	}
	if got := call("power", f(2), f(10)); got.Float() != 1024 {
		t.Errorf("power = %v", got)
	}
	if got := call("greatest", i(1), nullConst(), i(7), i(3)); got.Int() != 7 {
		t.Errorf("greatest = %v", got)
	}
	if got := call("least", i(1), i(7)); got.Int() != 1 {
		t.Errorf("least = %v", got)
	}
	if got := call("concat", strConst("a"), nullConst(), strConst("b")); got.Str() != "ab" {
		t.Errorf("concat skips nulls = %v", got)
	}
	if got := call("strpos", strConst("hello"), strConst("ll")); got.Int() != 3 {
		t.Errorf("strpos = %v", got)
	}
	if got := call("mod", i(7), i(3)); got.Int() != 1 {
		t.Errorf("mod = %v", got)
	}
	// NULL propagation for plain functions.
	if got := call("upper", nullConst()); !got.IsNull() {
		t.Errorf("upper(NULL) = %v", got)
	}
}

func TestCastEval(t *testing.T) {
	got := evalOne(t, &algebra.Cast{E: strConst("12"), To: value.KindInt}, nil)
	if got.Int() != 12 {
		t.Errorf("cast = %v", got)
	}
	_, err := Eval(&algebra.Cast{E: strConst("x"), To: value.KindInt}, nil, NewContext(nil))
	if err == nil {
		t.Error("bad cast must error")
	}
}

func TestConcatOperatorNull(t *testing.T) {
	got := evalOne(t, &algebra.Bin{Op: sql.OpConcat, L: strConst("a"), R: nullConst()}, nil)
	if !got.IsNull() {
		t.Errorf("'a' || NULL = %v, want NULL", got)
	}
	got = evalOne(t, &algebra.Bin{Op: sql.OpConcat, L: strConst("a"), R: &algebra.Const{Val: value.NewInt(1)}}, nil)
	if got.Str() != "a1" {
		t.Errorf("'a' || 1 = %v", got)
	}
}

func TestEvalBoolRejectsNonBool(t *testing.T) {
	_, err := EvalBool(&algebra.Const{Val: value.NewInt(1)}, nil, NewContext(nil))
	if err == nil || !strings.Contains(err.Error(), "boolean") {
		t.Errorf("err = %v", err)
	}
	ok, err := EvalBool(nullConst(), nil, NewContext(nil))
	if err != nil || ok {
		t.Errorf("NULL predicate must reject: %v %v", ok, err)
	}
}

func TestColumnOutOfRange(t *testing.T) {
	_, err := Eval(&algebra.ColIdx{Idx: 5}, value.Row{value.NewInt(1)}, NewContext(nil))
	if err == nil {
		t.Error("out-of-range column must error")
	}
}

func TestOuterRefOutsideContext(t *testing.T) {
	_, err := Eval(&algebra.OuterRef{Idx: 0}, nil, NewContext(nil))
	if err == nil {
		t.Error("outer ref without correlation context must error")
	}
}
