// Package value implements the runtime value system of the Perm engine:
// SQL values with NULL, three-valued comparison, coercion between numeric
// types, hashing for join/aggregation keys, and parsing of literals.
//
// A Value is two machine words (16 bytes on 64-bit hosts), the layout
// log/slog.Value uses: a pointer word that carries the kind — nil for NULL,
// the address of a per-kind sentinel for booleans, integers, floats and the
// empty string, and otherwise the data pointer of a string — and a payload
// word holding the integer, the float's bits, the boolean, or the string's
// length. The fields are unexported; Kind, Bool, Int, Float and Str read
// them, NewBool, NewInt, NewFloat and NewString build them, and the zero
// Value is NULL, which keeps freshly allocated rows well-formed. A Value
// cannot be compared with == (the compiler refuses): two equal strings need
// not share a data pointer, so equality is Equal, Distinct or CompareTotal.
// This file is the only one in the package that imports unsafe.
//
// Rows are []Value and immutable once an operator has handed them on: every
// consumer may keep a row, or a sub-slice of it, for as long as it likes, and
// nobody writes into a row it did not allocate. That contract is what lets a
// projection of leading columns return its input row re-sliced, a scan alias
// the table's rows, and RowAlloc cut many rows out of one allocation. The one
// exception is agreed between two executor operators when the plan is built:
// a consumer that drops each row before asking for the next (an aggregation,
// a join's probe side) lets its producer fill one row over again
// (executor's builder.reuse); such a row never reaches anyone else.
package value

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the runtime types of the engine.
type Kind uint8

// The supported kinds. KindNull is the zero value so that uninitialized
// values are NULL.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "text"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromTypeName maps a SQL type name to a Kind. It accepts the common
// aliases found in CREATE TABLE statements.
func KindFromTypeName(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "int", "integer", "bigint", "smallint", "int4", "int8", "serial":
		return KindInt, nil
	case "float", "float8", "double", "real", "numeric", "decimal", "double precision":
		return KindFloat, nil
	case "text", "varchar", "char", "character", "string", "character varying":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	case "null":
		return KindNull, nil
	}
	return KindNull, fmt.Errorf("unknown type name %q", name)
}

// Value is a single SQL value: a kind-carrying pointer word and a payload
// word (see the package comment). The zero Value is NULL.
type Value struct {
	_ [0]func() // not comparable: == on values is a compile error

	// ptr is nil for NULL, &kindTag[k] for a bool, int or float, &kindTag[0]
	// for the empty string, and the string's data pointer otherwise.
	ptr unsafe.Pointer
	// num is the integer, the float's IEEE bits, 0/1 for a boolean, or the
	// string's length in bytes.
	num uint64
}

// kindTag holds the sentinels ptr points at for everything but NULL and
// non-empty strings: kindTag[KindBool], [KindInt] and [KindFloat] mark their
// kinds, kindTag[0] the empty string. No string's data can live here, so a
// ptr outside the array is a string's.
var kindTag [KindFloat + 1]byte

func tagged(k Kind, num uint64) Value {
	return Value{ptr: unsafe.Pointer(&kindTag[k]), num: num}
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return tagged(KindBool, 1)
	}
	return tagged(KindBool, 0)
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return tagged(KindInt, uint64(i)) }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return tagged(KindFloat, math.Float64bits(f)) }

// NewString returns a text value. It shares s's bytes rather than copying
// them, as assigning the string would.
func NewString(s string) Value {
	if len(s) == 0 {
		return tagged(0, 0)
	}
	return Value{ptr: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s))}
}

// Kind reports the value's runtime type.
func (v Value) Kind() Kind {
	if v.ptr == nil {
		return KindNull
	}
	// One unsigned compare places ptr inside or outside the sentinel array.
	if off := uintptr(v.ptr) - uintptr(unsafe.Pointer(&kindTag)); off-1 < uintptr(KindFloat) {
		return Kind(off)
	}
	return KindString
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.ptr == nil }

// Bool returns the boolean payload; false unless Kind is KindBool.
func (v Value) Bool() bool { return v.Kind() == KindBool && v.num != 0 }

// Int returns the integer payload, coercing floats by truncation; 0 for
// every other kind.
func (v Value) Int() int64 {
	switch v.Kind() {
	case KindInt:
		return int64(v.num)
	case KindFloat:
		return int64(math.Float64frombits(v.num))
	}
	return 0
}

// AsInt returns the integer payload and true when v is an INT, without
// Int's coercion: the one-compare test a per-row kernel can inline.
func (v Value) AsInt() (int64, bool) {
	return int64(v.num), v.ptr == unsafe.Pointer(&kindTag[KindInt])
}

// Float returns the numeric payload as float64; 0 for non-numeric kinds.
func (v Value) Float() float64 {
	switch v.Kind() {
	case KindInt:
		return float64(int64(v.num))
	case KindFloat:
		return math.Float64frombits(v.num)
	}
	return 0
}

// Str returns the string payload; "" unless Kind is KindString.
func (v Value) Str() string {
	if v.Kind() != KindString || v.num == 0 {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.num))
}

// String renders the value the way the engine prints result cells.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return formatFloat(math.Float64frombits(v.num))
	}
	return v.Str()
}

// SQLLiteral renders the value as a SQL literal (strings quoted and escaped).
func (v Value) SQLLiteral() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.num != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindString:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	default:
		return v.String()
	}
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', 1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// numericKinds reports whether both kinds are numeric (int or float).
func numericKinds(a, b Kind) bool {
	return (a == KindInt || a == KindFloat) && (b == KindInt || b == KindFloat)
}

// cmpFloat orders two floats with NaN equal to itself and above every
// number, so the order is total and agrees with the key encoding (every NaN
// has one key, -0 and 0 share one). cmp.Compare is that order with NaN below
// every number; negating both operands and the result turns it over.
func cmpFloat(a, b float64) int { return -cmp.Compare(-a, -b) }

// cmpIntFloat orders the integer i against the float f exactly — not through
// float64(i), which rounds above 2^53 and would call 9007199254740993 equal
// to 9007199254740992.0 while their keys differ.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f, f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	// f lies inside the int64 range, so its integral part converts exactly;
	// when that ties with i the fraction (f - t is exact) decides.
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(0, f-t)
}

// Compare orders two non-NULL values. It returns -1, 0, or +1 and an error
// when the kinds are incomparable. Numeric kinds compare by exact numeric
// value whichever mix of int and float they come in — the same equality
// AppendKey encodes, so a hash join and its residual predicate agree — with
// NaN equal to itself and above every number. NULL handling is the caller's
// responsibility: comparison operators in SQL return NULL when an operand is
// NULL, whereas ORDER BY and set operations use total ordering via
// CompareTotal.
func Compare(a, b Value) (int, error) {
	ka, kb := a.Kind(), b.Kind()
	switch {
	case ka == KindInt && kb == KindInt:
		return cmp.Compare(int64(a.num), int64(b.num)), nil
	case ka == KindInt && kb == KindFloat:
		return cmpIntFloat(int64(a.num), math.Float64frombits(b.num)), nil
	case ka == KindFloat && kb == KindInt:
		return -cmpIntFloat(int64(b.num), math.Float64frombits(a.num)), nil
	case ka != kb:
		return 0, fmt.Errorf("cannot compare %s with %s", ka, kb)
	}
	switch ka {
	case KindFloat:
		return cmpFloat(math.Float64frombits(a.num), math.Float64frombits(b.num)), nil
	case KindBool:
		return cmp.Compare(a.num, b.num), nil
	case KindString:
		return strings.Compare(a.Str(), b.Str()), nil
	}
	return 0, nil // NULL with NULL
}

// CompareTotal is a total ordering over all values, with NULL ordered first.
// Values of incomparable kinds order by kind; this is used by ORDER BY,
// DISTINCT and set operations, never by WHERE predicates.
func CompareTotal(a, b Value) int {
	switch an, bn := a.IsNull(), b.IsNull(); {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, err := Compare(a, b); err == nil {
		return c
	}
	// Incomparable kinds: order by kind id for determinism.
	return cmp.Compare(normKind(a.Kind()), normKind(b.Kind()))
}

func normKind(k Kind) Kind {
	if k == KindFloat {
		return KindInt // numeric values interleave
	}
	return k
}

// Equal reports SQL equality of two non-NULL values (numeric coercion
// applies). If either side is NULL it returns false; use Distinct for
// null-aware identity.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Distinct implements IS DISTINCT FROM: NULL is identical to NULL and
// distinct from everything else.
func Distinct(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() != b.IsNull()
	}
	return !Equal(a, b)
}

// Key returns a canonical string key for the value, usable as a Go map key,
// consistent with Distinct (two values are not distinct iff keys are equal).
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// Tags of the key encoding. A key is its tag followed by a payload whose
// length the tag (and, for text, a length prefix) fixes, so keys are
// self-delimiting: the keys of a row's values, back to back, are a key of the
// row, and ["ab","c"] never collides with ["a","bc"].
const (
	keyNull   = 0x00 // nothing
	keyBool   = 0x01 // one byte, 0 or 1
	keyInt    = 0x02 // the int64, 8 bytes: every INT, and every FLOAT that is exactly an int64
	keyFloat  = 0x03 // the IEEE bits, 8 bytes: every other FLOAT, all NaNs as one
	keyString = 0x04 // uvarint length, then the bytes
)

// AppendKey appends the canonical key encoding of v (the byte form of Key) to
// dst and returns the extended slice: equal keys are values that are not
// distinct. Hot paths use it with a reusable scratch buffer to build hash
// keys without per-row allocation.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.Kind() {
	case KindNull:
		return append(dst, keyNull)
	case KindBool:
		return append(dst, keyBool, byte(v.num))
	case KindInt:
		return binary.BigEndian.AppendUint64(append(dst, keyInt), v.num)
	case KindFloat:
		// An integral float that fits int64 takes its integer's key, so 5 and
		// 5.0 (and 0 and -0.0) share one; an integer is never routed through
		// float64, which would collapse neighbours above 2^53.
		f := math.Float64frombits(v.num)
		if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return binary.BigEndian.AppendUint64(append(dst, keyInt), uint64(int64(f)))
		}
		if f != f {
			f = math.NaN()
		}
		return binary.BigEndian.AppendUint64(append(dst, keyFloat), math.Float64bits(f))
	}
	s := v.Str()
	return append(binary.AppendUvarint(append(dst, keyString), uint64(len(s))), s...)
}

// Coerce converts v to the target kind when a lossless or standard SQL cast
// exists. NULL coerces to any kind (staying NULL).
func Coerce(v Value, to Kind) (Value, error) {
	from := v.Kind()
	if from == KindNull || from == to {
		return v, nil
	}
	switch to {
	case KindFloat:
		if from == KindInt {
			return NewFloat(v.Float()), nil
		}
		if from == KindString {
			f, err := strconv.ParseFloat(strings.TrimSpace(v.Str()), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to float", v.Str())
			}
			return NewFloat(f), nil
		}
	case KindInt:
		if from == KindFloat {
			// Truncation toward zero; NaN, the infinities and anything at or
			// past ±2^63 have no int64 (the conversion would be undefined).
			f := v.Float()
			if !(f >= -(1<<63) && f < 1<<63) {
				return Null, fmt.Errorf("cannot cast %s to integer: out of range", v)
			}
			return NewInt(int64(f)), nil
		}
		if from == KindString {
			i, err := strconv.ParseInt(strings.TrimSpace(v.Str()), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to integer", v.Str())
			}
			return NewInt(i), nil
		}
		if from == KindBool {
			return NewInt(int64(v.num)), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindBool:
		if from == KindString {
			switch strings.ToLower(strings.TrimSpace(v.Str())) {
			case "t", "true", "yes", "on", "1":
				return NewBool(true), nil
			case "f", "false", "no", "off", "0":
				return NewBool(false), nil
			}
			return Null, fmt.Errorf("cannot cast %q to boolean", v.Str())
		}
		if from == KindInt {
			return NewBool(v.num != 0), nil
		}
	}
	return Null, fmt.Errorf("cannot cast %s to %s", from, to)
}

// CommonKind returns the kind a binary operation over a and b evaluates in.
func CommonKind(a, b Kind) Kind {
	if a == KindNull {
		return b
	}
	if b == KindNull {
		return a
	}
	if a == b {
		return a
	}
	if numericKinds(a, b) {
		return KindFloat
	}
	return KindString
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// NullRow returns a row of n NULLs.
func NullRow(n int) Row {
	return make(Row, n) // zero Value is NULL
}

// Key returns a canonical map key for the whole row (Distinct-consistent).
func (r Row) Key() string {
	return string(r.AppendKey(nil))
}

// AppendKey appends the canonical row key (the byte form of Key) to dst: the
// keys of its values back to back, which being self-delimiting need no frame.
// Executor hot paths use it with a reusable scratch buffer so that group-by,
// DISTINCT and set-operation lookups do not allocate per input row.
func (r Row) AppendKey(dst []byte) []byte {
	for _, v := range r {
		dst = v.AppendKey(dst)
	}
	return dst
}

// CompareRows orders rows with CompareTotal column-wise.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := CompareTotal(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Arithmetic errors.
var errDivZero = fmt.Errorf("division by zero")

// Add returns a+b with SQL NULL propagation and numeric coercion. For text
// operands it concatenates (convenience for the || operator path).
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b; integer division when both are ints, error on zero divisor.
func Div(a, b Value) (Value, error) { return arith(a, b, '/') }

// Mod returns a%b over integers.
func Mod(a, b Value) (Value, error) { return arith(a, b, '%') }

func arith(a, b Value, op byte) (Value, error) {
	ka, kb := a.Kind(), b.Kind()
	if ka == KindNull || kb == KindNull {
		return Null, nil
	}
	if op == '+' && ka == KindString && kb == KindString {
		return NewString(a.Str() + b.Str()), nil
	}
	if !numericKinds(ka, kb) {
		return Null, fmt.Errorf("operator %c not defined for %s and %s", op, ka, kb)
	}
	if ka == KindInt && kb == KindInt {
		ai, bi := int64(a.num), int64(b.num)
		switch op {
		case '+':
			return NewInt(ai + bi), nil
		case '-':
			return NewInt(ai - bi), nil
		case '*':
			return NewInt(ai * bi), nil
		case '/':
			if bi == 0 {
				return Null, errDivZero
			}
			return NewInt(ai / bi), nil
		case '%':
			if bi == 0 {
				return Null, errDivZero
			}
			return NewInt(ai % bi), nil
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case '+':
		return NewFloat(af + bf), nil
	case '-':
		return NewFloat(af - bf), nil
	case '*':
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, errDivZero
		}
		return NewFloat(af / bf), nil
	case '%':
		if bf == 0 {
			return Null, errDivZero
		}
		return NewFloat(math.Mod(af, bf)), nil
	}
	return Null, fmt.Errorf("unknown arithmetic operator %c", op)
}

// Neg returns -a.
func Neg(a Value) (Value, error) {
	switch a.Kind() {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-int64(a.num)), nil
	case KindFloat:
		return NewFloat(-a.Float()), nil
	}
	return Null, fmt.Errorf("unary minus not defined for %s", a.Kind())
}
