package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "boolean", KindInt: "integer",
		KindFloat: "float", KindString: "text",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromTypeName(t *testing.T) {
	cases := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "bigint": KindInt,
		"float": KindFloat, "double precision": KindFloat, "numeric": KindFloat,
		"text": KindString, "VARCHAR": KindString,
		"bool": KindBool, "boolean": KindBool,
	}
	for name, want := range cases {
		got, err := KindFromTypeName(name)
		if err != nil || got != want {
			t.Errorf("KindFromTypeName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromTypeName("blob"); err == nil {
		t.Error("KindFromTypeName(blob) should fail")
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Error("zero Value must be NULL")
	}
	if NullRow(3)[2].Kind() != KindNull {
		t.Error("NullRow must produce NULLs")
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	c, err := Compare(NewInt(2), NewFloat(2.0))
	if err != nil || c != 0 {
		t.Errorf("2 vs 2.0 = %d, %v; want 0", c, err)
	}
	c, _ = Compare(NewInt(2), NewFloat(2.5))
	if c != -1 {
		t.Errorf("2 vs 2.5 = %d, want -1", c)
	}
	c, _ = Compare(NewFloat(3.5), NewInt(3))
	if c != 1 {
		t.Errorf("3.5 vs 3 = %d, want 1", c)
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(NewInt(1), NewString("1")); err == nil {
		t.Error("int vs string must not compare")
	}
	if _, err := Compare(NewBool(true), NewInt(1)); err == nil {
		t.Error("bool vs int must not compare")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if c, _ := Compare(NewString("a"), NewString("b")); c != -1 {
		t.Errorf("a vs b = %d", c)
	}
	if c, _ := Compare(NewBool(false), NewBool(true)); c != -1 {
		t.Errorf("false vs true = %d", c)
	}
	if c, _ := Compare(NewBool(true), NewBool(true)); c != 0 {
		t.Errorf("true vs true = %d", c)
	}
}

func TestCompareTotalNullsFirst(t *testing.T) {
	if CompareTotal(Null, NewInt(-999)) != -1 {
		t.Error("NULL must order before any value")
	}
	if CompareTotal(NewString(""), Null) != 1 {
		t.Error("any value must order after NULL")
	}
	if CompareTotal(Null, Null) != 0 {
		t.Error("NULL equals NULL in total order")
	}
}

func TestDistinct(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Null, Null, false},
		{Null, NewInt(0), true},
		{NewInt(0), Null, true},
		{NewInt(1), NewInt(1), false},
		{NewInt(1), NewFloat(1.0), false},
		{NewInt(1), NewInt(2), true},
		{NewString("x"), NewString("x"), false},
	}
	for _, c := range cases {
		if got := Distinct(c.a, c.b); got != c.want {
			t.Errorf("Distinct(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullIsFalse(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("Equal(NULL, NULL) must be false (SQL =)")
	}
	if Equal(NewInt(1), Null) {
		t.Error("Equal(1, NULL) must be false")
	}
}

// TestKeyConsistentWithDistinct is the core invariant behind every hash
// join, aggregation and DISTINCT: keys are equal iff values are not
// distinct.
func TestKeyConsistentWithDistinct(t *testing.T) {
	vals := []Value{
		Null, NewBool(true), NewBool(false),
		NewInt(0), NewInt(1), NewInt(-7), NewInt(42),
		NewFloat(0), NewFloat(1), NewFloat(1.5), NewFloat(-7),
		NewString(""), NewString("1"), NewString("a"), NewString("true"),
	}
	for _, a := range vals {
		for _, b := range vals {
			sameKey := a.Key() == b.Key()
			if sameKey == Distinct(a, b) {
				t.Errorf("Key consistency broken for %v vs %v (sameKey=%v distinct=%v)",
					a, b, sameKey, Distinct(a, b))
			}
		}
	}
}

func TestQuickIntFloatKeyAgreement(t *testing.T) {
	// Int n and Float n must collide for all int values in float range.
	f := func(n int32) bool {
		a, b := NewInt(int64(n)), NewFloat(float64(n))
		return a.Key() == b.Key() && !Distinct(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(NewInt(a), NewInt(b))
		c2, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTotalTransitivityOnMixed(t *testing.T) {
	gen := func(tag uint8, i int64, f float64, s string) Value {
		switch tag % 4 {
		case 0:
			return Null
		case 1:
			return NewInt(i)
		case 2:
			if math.IsNaN(f) {
				f = 0
			}
			return NewFloat(f)
		default:
			return NewString(s)
		}
	}
	f := func(t1, t2, t3 uint8, i1, i2, i3 int64, f1, f2, f3 float64, s1, s2, s3 string) bool {
		a, b, c := gen(t1, i1, f1, s1), gen(t2, i2, f2, s2), gen(t3, i3, f3, s3)
		if CompareTotal(a, b) <= 0 && CompareTotal(b, c) <= 0 {
			return CompareTotal(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if Distinct(got, want) {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	v, err := Add(NewInt(2), NewInt(3))
	check(v, err, NewInt(5))
	v, err = Add(NewInt(2), NewFloat(0.5))
	check(v, err, NewFloat(2.5))
	v, err = Sub(NewInt(2), NewInt(5))
	check(v, err, NewInt(-3))
	v, err = Mul(NewFloat(1.5), NewInt(4))
	check(v, err, NewFloat(6))
	v, err = Div(NewInt(7), NewInt(2))
	check(v, err, NewInt(3)) // integer division
	v, err = Div(NewFloat(7), NewInt(2))
	check(v, err, NewFloat(3.5))
	v, err = Mod(NewInt(7), NewInt(3))
	check(v, err, NewInt(1))
	v, err = Add(NewString("ab"), NewString("cd"))
	check(v, err, NewString("abcd"))
}

func TestArithmeticNullPropagation(t *testing.T) {
	for _, op := range []func(Value, Value) (Value, error){Add, Sub, Mul, Div, Mod} {
		v, err := op(Null, NewInt(1))
		if err != nil || !v.IsNull() {
			t.Errorf("op(NULL, 1) = %v, %v; want NULL", v, err)
		}
		v, err = op(NewInt(1), Null)
		if err != nil || !v.IsNull() {
			t.Errorf("op(1, NULL) = %v, %v; want NULL", v, err)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero must error")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero must error")
	}
	if _, err := Mod(NewInt(1), NewInt(0)); err == nil {
		t.Error("modulo by zero must error")
	}
}

func TestNeg(t *testing.T) {
	v, err := Neg(NewInt(5))
	if err != nil || v.Int() != -5 {
		t.Errorf("Neg(5) = %v, %v", v, err)
	}
	v, err = Neg(Null)
	if err != nil || !v.IsNull() {
		t.Errorf("Neg(NULL) = %v, %v", v, err)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg(text) must error")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewString("42"), KindInt)
	if err != nil || v.Int() != 42 {
		t.Errorf(`Coerce("42", int) = %v, %v`, v, err)
	}
	v, err = Coerce(NewString(" 2.5 "), KindFloat)
	if err != nil || v.Float() != 2.5 {
		t.Errorf(`Coerce("2.5", float) = %v, %v`, v, err)
	}
	v, err = Coerce(NewInt(3), KindFloat)
	if err != nil || v.Float() != 3 {
		t.Errorf("Coerce(3, float) = %v, %v", v, err)
	}
	v, err = Coerce(NewFloat(3.7), KindInt)
	if err != nil || v.Int() != 3 {
		t.Errorf("Coerce(3.7, int) = %v, %v", v, err)
	}
	v, err = Coerce(NewString("true"), KindBool)
	if err != nil || !v.Bool() {
		t.Errorf(`Coerce("true", bool) = %v, %v`, v, err)
	}
	v, err = Coerce(Null, KindInt)
	if err != nil || !v.IsNull() {
		t.Errorf("Coerce(NULL, int) = %v, %v; NULL must pass through", v, err)
	}
	if _, err := Coerce(NewString("abc"), KindInt); err == nil {
		t.Error(`Coerce("abc", int) must error`)
	}
	v, err = Coerce(NewInt(123), KindString)
	if err != nil || v.Str() != "123" {
		t.Errorf("Coerce(123, text) = %v, %v", v, err)
	}
}

func TestCommonKind(t *testing.T) {
	cases := []struct {
		a, b, want Kind
	}{
		{KindInt, KindInt, KindInt},
		{KindInt, KindFloat, KindFloat},
		{KindNull, KindInt, KindInt},
		{KindString, KindNull, KindString},
		{KindInt, KindString, KindString},
	}
	for _, c := range cases {
		if got := CommonKind(c.a, c.b); got != c.want {
			t.Errorf("CommonKind(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"null":  Null,
		"true":  NewBool(true),
		"42":    NewInt(42),
		"2.5":   NewFloat(2.5),
		"3.0":   NewFloat(3),
		"hello": NewString("hello"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("it's").SQLLiteral(); got != "'it''s'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Null.SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral(NULL) = %q", got)
	}
	if got := NewBool(false).SQLLiteral(); got != "FALSE" {
		t.Errorf("SQLLiteral(false) = %q", got)
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
	if CompareRows(Row{NewInt(1)}, Row{NewInt(1), NewInt(2)}) != -1 {
		t.Error("shorter row must order first on prefix tie")
	}
	if CompareRows(Row{NewInt(2)}, Row{NewInt(1), NewInt(2)}) != 1 {
		t.Error("row comparison must use first difference")
	}
}

// TestRowKeyInjective checks that row keys cannot collide across different
// column splits (the length-prefixed encoding).
func TestRowKeyInjective(t *testing.T) {
	a := Row{NewString("ab"), NewString("c")}
	b := Row{NewString("a"), NewString("bc")}
	if a.Key() == b.Key() {
		t.Error("row keys must be injective across column boundaries")
	}
}

// TestIntegerKeysAreExact: every integer keeps its own key, however large —
// float64 has 53 bits of mantissa, so a key derived from the float form gave
// 2^53 and 2^53+1 the same one — while an integral float still shares the key
// of the integer it equals.
func TestIntegerKeysAreExact(t *testing.T) {
	const p53 = int64(1) << 53
	for _, n := range []int64{p53, 1e15, -p53, math.MaxInt64 - 1, math.MinInt64} {
		a, b := NewInt(n), NewInt(n+1)
		if a.Key() == b.Key() {
			t.Errorf("%d and %d share the key %q", n, n+1, a.Key())
		}
	}
	for _, f := range []float64{5, -0.0, 1e15, float64(p53), 1e18, -(1 << 63)} {
		if i, fl := NewInt(int64(f)), NewFloat(f); i.Key() != fl.Key() {
			t.Errorf("int %d has key %q, float %g has key %q", int64(f), i.Key(), f, fl.Key())
		}
	}
	// Past int64 a float has no integer to agree with and keeps its own form.
	if a, b := NewFloat(1<<63), NewFloat(1e19); a.Key() == b.Key() || a.Key() == NewInt(math.MaxInt64).Key() {
		t.Errorf("floats beyond int64: keys %q, %q", a.Key(), b.Key())
	}
}
