package value

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins what the executor's memory accounting and every row
// allocation are sized by: a Value is two words, and it is not comparable, so
// `a == b` on values — which would compare string data pointers — does not
// compile.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == would compare string data pointers, not strings")
	}
	if !(Value{}).IsNull() || !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("the zero Value is not NULL")
	}
}

// roundTripValues are the values whose encodings sit closest to one another:
// the empty string next to NULL, both zeros, NaN, the integer extremes, and
// the integers float64 cannot tell from their neighbours.
func roundTripValues() []Value {
	return []Value{
		Null,
		NewBool(false), NewBool(true),
		NewInt(0), NewInt(1), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewInt(1 << 53), NewInt(1<<53 + 1), NewInt(-(1<<53 + 1)),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(0.5), NewFloat(-2.5),
		NewFloat(1 << 53), NewFloat(1 << 63), NewFloat(-(1 << 63)),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(math.MaxFloat64),
		NewString(""), NewString("a"), NewString("null"), NewString("0"), NewString("\x00"),
		NewString(strings.Repeat("x", 300)),
	}
}

// checkValue asserts the accessors of v against the payload it was built from.
func checkValue(t *testing.T, v Value, k Kind, b bool, i int64, f float64, s string) {
	t.Helper()
	if v.Kind() != k || v.IsNull() != (k == KindNull) {
		t.Fatalf("%v: Kind = %s, IsNull = %v; want %s", v, v.Kind(), v.IsNull(), k)
	}
	switch k {
	case KindBool:
		if v.Bool() != b {
			t.Fatalf("Bool() = %v, want %v", v.Bool(), b)
		}
	case KindInt:
		if v.Int() != i || v.Float() != float64(i) {
			t.Fatalf("Int() = %d, Float() = %v; want %d", v.Int(), v.Float(), i)
		}
	case KindFloat:
		if math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Fatalf("Float() = %v (bits %x), want %v", v.Float(), math.Float64bits(v.Float()), f)
		}
	case KindString:
		if v.Str() != s {
			t.Fatalf("Str() = %q, want %q", v.Str(), s)
		}
	}
	// An accessor of another kind reads the zero of its type, never the
	// payload word reinterpreted.
	if k != KindBool && v.Bool() {
		t.Fatalf("%s value reads Bool() = true", k)
	}
	if k != KindString && v.Str() != "" {
		t.Fatalf("%s value reads Str() = %q", k, v.Str())
	}
	if k != KindInt && k != KindFloat && (v.Int() != 0 || v.Float() != 0) {
		t.Fatalf("%s value reads Int() = %d, Float() = %v", k, v.Int(), v.Float())
	}
}

// checkPair asserts that the three notions of sameness agree on a and b:
// Distinct, the key encoding and (for equal values) the hash; and that the
// order is antisymmetric.
func checkPair(t *testing.T, a, b Value) {
	t.Helper()
	same := !Distinct(a, b)
	if sameKey := a.Key() == b.Key(); same != sameKey {
		t.Fatalf("%s %v vs %s %v: Distinct says same=%v, keys say same=%v", a.Kind(), a, b.Kind(), b, same, sameKey)
	}
	if same && a.Hash() != b.Hash() {
		t.Fatalf("%s %v and %s %v are not distinct but hash apart", a.Kind(), a, b.Kind(), b)
	}
	if c, d := CompareTotal(a, b), CompareTotal(b, a); c != -d || (c == 0) != same {
		t.Fatalf("%s %v vs %s %v: CompareTotal = %d and %d, not distinct = %v", a.Kind(), a, b.Kind(), b, c, d, same)
	}
	if !a.IsNull() && !b.IsNull() && Equal(a, b) != same {
		t.Fatalf("%s %v vs %s %v: Equal = %v, not distinct = %v", a.Kind(), a, b.Kind(), b, Equal(a, b), same)
	}
}

// checkRowKeys asserts that keys are self-delimiting: the keys of two values
// back to back are equal exactly when the values are pairwise not distinct, so
// no boundary between a key and its neighbour can be read two ways ("ab","c"
// against "a","bc"; a string that spells another value's key), and AppendKey
// appends to what it is given.
func checkRowKeys(t *testing.T, a, x, b, y Value) {
	t.Helper()
	same := !Distinct(a, b) && !Distinct(x, y)
	ka, kb := Row{a, x}.AppendKey([]byte("row:")), Row{b, y}.AppendKey([]byte("row:"))
	if string(ka) != "row:"+a.Key()+x.Key() {
		t.Fatalf("the key of the row (%v, %v) is not its values' keys appended to the buffer", a, x)
	}
	if sameKey := string(ka) == string(kb); same != sameKey {
		t.Fatalf("(%s %v, %s %v) vs (%s %v, %s %v): Distinct says same=%v, row keys say same=%v",
			a.Kind(), a, x.Kind(), x, b.Kind(), b, y.Kind(), y, same, sameKey)
	}
}

// TestValueRoundTrip takes every kind through constructor → accessor and
// through the pairwise agreement of Distinct, AppendKey, Hash and Compare.
func TestValueRoundTrip(t *testing.T) {
	checkValue(t, Null, KindNull, false, 0, 0, "")
	checkValue(t, Value{}, KindNull, false, 0, 0, "")
	for _, b := range []bool{false, true} {
		checkValue(t, NewBool(b), KindBool, b, 0, 0, "")
	}
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1<<53 + 1} {
		checkValue(t, NewInt(i), KindInt, false, i, 0, "")
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 1<<53 + 2, 0.1} {
		checkValue(t, NewFloat(f), KindFloat, false, 0, f, "")
	}
	for _, s := range []string{"", "a", "null", strings.Repeat("long ", 100)} {
		checkValue(t, NewString(s), KindString, false, 0, 0, s)
	}
	vals := roundTripValues()
	for _, a := range vals {
		for _, b := range vals {
			checkPair(t, a, b)
			for _, x := range vals[:12] {
				checkRowKeys(t, a, x, b, x)
				checkRowKeys(t, a, x, x, b)
			}
		}
	}
	// Boundaries that a frameless encoding must still keep apart.
	checkRowKeys(t, NewString("ab"), NewString("c"), NewString("a"), NewString("bc"))
	checkRowKeys(t, NewString(""), NewString("\x04\x00"), NewString("\x04\x00"), NewString(""))
	checkRowKeys(t, NewString(NewInt(7).Key()), Null, NewInt(7), Null)
	// The cases the list exists for, spelled out.
	if !Distinct(NewString(""), Null) || NewString("").IsNull() {
		t.Error(`"" must be a string distinct from NULL`)
	}
	if Distinct(NewFloat(0), NewFloat(math.Copysign(0, -1))) || Distinct(NewInt(0), NewFloat(math.Copysign(0, -1))) {
		t.Error("-0.0 must equal 0.0 and 0")
	}
	if Distinct(NewFloat(math.NaN()), NewFloat(math.NaN())) || CompareTotal(NewFloat(math.NaN()), NewFloat(math.Inf(1))) != 1 {
		t.Error("NaN must equal itself and sort above +Infinity")
	}
	if Equal(NewInt(1<<53+1), NewFloat(1<<53)) || Equal(NewFloat(1<<53), NewInt(1<<53+1)) {
		t.Error("9007199254740993 = 9007199254740992.0 must be false: the comparison went through float64")
	}
	if c, _ := Compare(NewInt(math.MaxInt64), NewFloat(1<<63)); c != -1 {
		t.Errorf("MaxInt64 vs 2^63 = %d, want -1", c)
	}
	if !Equal(NewInt(math.MinInt64), NewFloat(-(1 << 63))) {
		t.Error("MinInt64 must equal -2^63")
	}
}

// TestStringOutlivesItsBuffer: a string value keeps its bytes alive through
// the pointer word alone. The string here is cut from a frame buffer, as the
// wire reader cuts them, and nothing else refers to that copy once the value
// is built.
func TestStringOutlivesItsBuffer(t *testing.T) {
	var vals []Value
	for i := 0; i < 64; i++ {
		frame := []byte(strings.Repeat("payload ", 512))
		frame[0] = byte('A' + i%26)
		vals = append(vals, NewString(string(frame[:4096-i])))
	}
	for i := 0; i < 4; i++ {
		runtime.GC()
		_ = make([]byte, 1<<20) // churn the heap the strings were freed into, had they been
	}
	for i, v := range vals {
		want := strings.Repeat("payload ", 512)[1 : 4096-i]
		if s := v.Str(); len(s) != 4096-i || s[0] != byte('A'+i%26) || s[1:] != want {
			t.Fatalf("string %d did not survive garbage collection: %.40q…", i, s)
		}
	}
}

// FuzzValueRoundTrip builds one value of each kind from the fuzzed payload
// and holds it, and its pairing with every round-trip value, to the same
// contract as TestValueRoundTrip.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), "")
	f.Add(int64(math.MinInt64), math.Float64bits(math.NaN()), "null")
	f.Add(int64(1<<53+1), math.Float64bits(1<<53), "\x00")
	f.Add(int64(-1), math.Float64bits(math.Copysign(0, -1)), "payload")
	f.Fuzz(func(t *testing.T, i int64, bits uint64, s string) {
		fl := math.Float64frombits(bits)
		made := []Value{NewInt(i), NewFloat(fl), NewString(s), NewBool(i&1 == 1), NewFloat(float64(i)), NewInt(int64(bits))}
		checkValue(t, made[0], KindInt, false, i, 0, "")
		checkValue(t, made[1], KindFloat, false, 0, fl, "")
		checkValue(t, made[2], KindString, false, 0, 0, s)
		checkValue(t, made[3], KindBool, i&1 == 1, 0, 0, "")
		// AppendKey(a) == AppendKey(b) ⇔ !Distinct(a, b), alone and with a
		// neighbour on either side, over NULL, -0.0, NaN, ±Inf, MinInt64,
		// 2^53+1 and "" (roundTripValues) and whatever the fuzzer made.
		all := append(roundTripValues(), made...)
		for _, a := range made {
			for _, b := range all {
				checkPair(t, a, b)
				for _, x := range made[:3] {
					checkRowKeys(t, a, x, b, x)
					checkRowKeys(t, x, a, x, b)
					checkRowKeys(t, a, x, x, b)
				}
			}
		}
	})
}

// TestCoerceFloatToInt: a float with an int64 truncates toward zero, and one
// without — NaN, an infinity, anything at or past ±2^63 — is a cast error
// instead of whatever the conversion instruction leaves behind.
func TestCoerceFloatToInt(t *testing.T) {
	for f, want := range map[float64]int64{
		2.9: 2, -2.9: -2, 0: 0, -(1 << 63): math.MinInt64, 1 << 62: 1 << 62,
		math.Nextafter(1<<63, 0): 1<<63 - 1024,
	} {
		got, err := Coerce(NewFloat(f), KindInt)
		if err != nil || got.Kind() != KindInt || got.Int() != want {
			t.Errorf("Coerce(%v, int) = %v, %v; want %d", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1 << 63, math.Nextafter(-(1 << 63), math.Inf(-1)), 1e300} {
		if got, err := Coerce(NewFloat(f), KindInt); err == nil {
			t.Errorf("Coerce(%v, int) = %v, want a cast error", f, got)
		}
	}
}

// TestRowAlloc: rows come out NULL-filled, full-capacity and disjoint, chunks
// double from two rows to the cap, and an empty row is still a row.
func TestRowAlloc(t *testing.T) {
	var a RowAlloc
	if r := a.New(0); r == nil || len(r) != 0 {
		t.Errorf("New(0) = %v (nil: %v); want an empty non-nil row", r, r == nil)
	}
	if r := (*RowAlloc)(nil).New(3); len(r) != 3 || cap(r) != 3 {
		t.Errorf("nil allocator: len %d cap %d, want 3 and 3", len(r), cap(r))
	}
	const width, n = 5, 1000
	rows := make([]Row, n)
	allocs := testing.AllocsPerRun(1, func() {
		a = RowAlloc{}
		for i := range rows {
			rows[i] = a.New(width)
			for j := range rows[i] {
				rows[i][j] = NewInt(int64(i*width + j))
			}
		}
	})
	// 2+4+…+128 = 254 rows in the first seven chunks, 128 per chunk after.
	if want := float64(7 + (n-254+127)/128); allocs != want {
		t.Errorf("%d rows took %v allocations, want %v", n, allocs, want)
	}
	for i, r := range rows {
		if len(r) != width || cap(r) != width {
			t.Fatalf("row %d: len %d cap %d, want %d and %d", i, len(r), cap(r), width, width)
		}
		for j, v := range r {
			if v.Int() != int64(i*width+j) {
				t.Fatalf("row %d column %d was overwritten: %v", i, j, v)
			}
		}
	}
	if r := a.New(width); !r[0].IsNull() || !r[width-1].IsNull() {
		t.Error("a fresh row is not all NULL")
	}
	// A row wider than a whole chunk may be gets a chunk of its own, not 128.
	a = RowAlloc{rows: maxChunkRows}
	if allocs := testing.AllocsPerRun(1, func() { a.free = nil; _ = a.New(3 * maxChunkValues) }); allocs != 1 {
		t.Errorf("an over-wide row took %v allocations", allocs)
	}
	if len(a.free) != 0 {
		t.Errorf("an over-wide row left %d spare values: its chunk was sized for more than one row", len(a.free))
	}
}
