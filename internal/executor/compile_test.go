package executor

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

// compile_test.go pins the compiled-expression subsystem to the tree-walking
// interpreter: for a matrix of expressions over a matrix of rows, Compile and
// Eval must agree on value and error outcome. The interpreter's own semantics
// are covered by eval_test.go, so agreement implies correctness.

func floatConst(f float64) *algebra.Const     { return &algebra.Const{Val: value.NewFloat(f)} }
func col(i int, k value.Kind) *algebra.ColIdx { return &algebra.ColIdx{Idx: i, Typ: k} }

func equivalenceExprs() []algebra.Expr {
	c0 := col(0, value.KindInt)
	c1 := col(1, value.KindString)
	c2 := col(2, value.KindFloat)
	bin := func(op sql.BinOp, l, r algebra.Expr) algebra.Expr { return &algebra.Bin{Op: op, L: l, R: r} }
	return []algebra.Expr{
		intConst(7),
		nullConst(),
		c0,
		c1,
		// arithmetic, incl. division by zero (error case) and NULL operands
		bin(sql.OpAdd, c0, intConst(3)),
		bin(sql.OpMul, c0, c2),
		bin(sql.OpDiv, intConst(10), c0),
		bin(sql.OpMod, c0, intConst(4)),
		bin(sql.OpSub, nullConst(), c0),
		bin(sql.OpConcat, c1, strConst("!")),
		bin(sql.OpConcat, c1, nullConst()),
		// comparisons and 3VL logic
		bin(sql.OpEq, c0, intConst(2)),
		bin(sql.OpNeq, c0, c2),
		bin(sql.OpLt, c1, strConst("m")),
		bin(sql.OpGte, c2, floatConst(1.5)),
		bin(sql.OpEq, c0, nullConst()),
		bin(sql.OpNotDistinct, c0, nullConst()),
		bin(sql.OpAnd, bin(sql.OpGt, c0, intConst(0)), bin(sql.OpLt, c0, intConst(9))),
		bin(sql.OpOr, bin(sql.OpEq, c0, nullConst()), boolConst(true)),
		bin(sql.OpAnd, nullConst(), boolConst(false)),
		bin(sql.OpEq, c1, intConst(1)), // type error at runtime
		&algebra.Not{E: bin(sql.OpGt, c0, intConst(2))},
		&algebra.Neg{E: c0},
		&algebra.Neg{E: c1}, // error: unary minus on text
		&algebra.IsNull{E: c0},
		&algebra.IsNull{E: c0, Not: true},
		// functions: strict, tolerant, unknown, nested
		&algebra.Func{Name: "upper", Args: []algebra.Expr{c1}, Typ: value.KindString},
		&algebra.Func{Name: "length", Args: []algebra.Expr{c1}, Typ: value.KindInt},
		&algebra.Func{Name: "coalesce", Args: []algebra.Expr{nullConst(), c0, intConst(9)}, Typ: value.KindInt},
		&algebra.Func{Name: "nullif", Args: []algebra.Expr{c0, intConst(2)}, Typ: value.KindInt},
		&algebra.Func{Name: "greatest", Args: []algebra.Expr{c0, intConst(5), nullConst()}, Typ: value.KindInt},
		&algebra.Func{Name: "substr", Args: []algebra.Expr{c1, intConst(2), intConst(2)}, Typ: value.KindString},
		&algebra.Func{Name: "abs", Args: []algebra.Expr{&algebra.Neg{E: c0}}, Typ: value.KindInt},
		&algebra.Func{Name: "no_such_fn", Args: nil, Typ: value.KindInt},
		// CASE: lazy arms must not evaluate (the error arm is unreachable)
		&algebra.Case{
			Whens: []algebra.CaseWhen{
				{Cond: bin(sql.OpGt, c0, intConst(100)), Result: &algebra.Neg{E: c1}},
				{Cond: bin(sql.OpGt, c0, intConst(1)), Result: strConst("big")},
			},
			Else: strConst("small"),
			Typ:  value.KindString,
		},
		&algebra.InList{E: c0, List: []algebra.Expr{intConst(1), intConst(2), nullConst()}},
		&algebra.InList{E: c0, List: []algebra.Expr{intConst(99), nullConst()}, Neg: true},
		&algebra.Like{E: c1, Pattern: strConst("a%")},
		&algebra.Like{E: c1, Pattern: strConst("_b%"), Neg: true},
		&algebra.Cast{E: c0, To: value.KindString},
		&algebra.Cast{E: c1, To: value.KindInt}, // may error depending on row
	}
}

func TestCompileMatchesEval(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(2), value.NewString("abc"), value.NewFloat(1.5)},
		{value.NewInt(0), value.NewString("12"), value.NewFloat(-3)},
		{value.Null, value.Null, value.Null},
		{value.NewInt(-7), value.NewString(""), value.NewFloat(2)},
	}
	for _, e := range equivalenceExprs() {
		ce := Compile(e)
		for ri, row := range rows {
			want, wantErr := Eval(e, row, NewContext(nil))
			got, gotErr := ce(row, NewContext(nil))
			if (wantErr != nil) != (gotErr != nil) {
				t.Errorf("%v row %d: eval err = %v, compiled err = %v", e, ri, wantErr, gotErr)
				continue
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Errorf("%v row %d: error text diverged: %q vs %q", e, ri, wantErr, gotErr)
				}
				continue
			}
			if got.Kind() != want.Kind() || value.Distinct(got, want) {
				t.Errorf("%v row %d: compiled = %v, eval = %v", e, ri, got, want)
			}
		}
	}
}

// TestCompilePredicateTruth checks WHERE truth semantics of the compiled
// predicate: NULL and FALSE reject, non-boolean errors.
func TestCompilePredicateTruth(t *testing.T) {
	cases := []struct {
		e       algebra.Expr
		want    bool
		wantErr bool
	}{
		{boolConst(true), true, false},
		{boolConst(false), false, false},
		{nullConst(), false, false},
		{intConst(1), false, true},
	}
	for _, c := range cases {
		got, err := compilePred(c.e)(nil, NewContext(nil))
		if (err != nil) != c.wantErr {
			t.Errorf("%v: err = %v, wantErr = %v", c.e, err, c.wantErr)
			continue
		}
		if got != c.want {
			t.Errorf("%v: got %v, want %v", c.e, got, c.want)
		}
	}
}

// TestCompiledColumnOutOfRange mirrors eval_test's bounds behavior.
func TestCompiledColumnOutOfRange(t *testing.T) {
	ce := Compile(col(5, value.KindInt))
	if _, err := ce(value.Row{value.NewInt(1)}, NewContext(nil)); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// TestCompiledOuterRef checks correlation-stack reads and the error outside a
// correlated context.
func TestCompiledOuterRef(t *testing.T) {
	ce := Compile(&algebra.OuterRef{Idx: 0, Typ: value.KindInt})
	ctx := NewContext(nil)
	if _, err := ce(nil, ctx); err == nil {
		t.Fatal("outer ref outside correlation must error")
	}
	ctx.pushOuter(value.Row{value.NewInt(42)})
	v, err := ce(nil, ctx)
	if err != nil || v.Int() != 42 {
		t.Fatalf("outer ref = %v, %v", v, err)
	}
}
