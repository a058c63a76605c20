// Package value implements the runtime value system of the Perm engine:
// SQL values with NULL, three-valued comparison, coercion between numeric
// types, hashing for join/aggregation keys, and parsing of literals.
//
// A Value is a small immutable struct; rows are []Value. The zero Value is
// NULL, which keeps freshly allocated rows well-formed.
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
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

// Value is a single SQL value. Exactly one of the payload fields is
// meaningful, selected by K. The zero Value is NULL.
type Value struct {
	K Kind
	B bool
	I int64
	F float64
	S string
}

// Null is the NULL value.
var Null = Value{K: KindNull}

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{K: KindBool, B: b} }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a text value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload; it must only be called when K==KindBool.
func (v Value) Bool() bool { return v.B }

// Int returns the integer payload, coercing floats by truncation.
func (v Value) Int() int64 {
	if v.K == KindFloat {
		return int64(v.F)
	}
	return v.I
}

// Float returns the numeric payload as float64.
func (v Value) Float() float64 {
	if v.K == KindInt {
		return float64(v.I)
	}
	return v.F
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// String renders the value the way the engine prints result cells.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "null"
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return formatFloat(v.F)
	case KindString:
		return v.S
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal (strings quoted and escaped).
func (v Value) SQLLiteral() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
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

// Compare orders two non-NULL values. It returns -1, 0, or +1 and an error
// when the kinds are incomparable. Numeric kinds compare after coercion to
// float64 (with an exact path for int/int). NULL handling is the caller's
// responsibility: comparison operators in SQL return NULL when an operand is
// NULL, whereas ORDER BY and set operations use total ordering via
// CompareTotal.
func Compare(a, b Value) (int, error) {
	if a.K == KindInt && b.K == KindInt {
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	}
	if numericKinds(a.K, b.K) {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	if a.K != b.K {
		return 0, fmt.Errorf("cannot compare %s with %s", a.K, b.K)
	}
	switch a.K {
	case KindBool:
		switch {
		case !a.B && b.B:
			return -1, nil
		case a.B && !b.B:
			return 1, nil
		}
		return 0, nil
	case KindString:
		return strings.Compare(a.S, b.S), nil
	case KindNull:
		return 0, nil
	}
	return 0, fmt.Errorf("cannot compare %s values", a.K)
}

// CompareTotal is a total ordering over all values, with NULL ordered first.
// Values of incomparable kinds order by kind; this is used by ORDER BY,
// DISTINCT and set operations, never by WHERE predicates.
func CompareTotal(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if c, err := Compare(a, b); err == nil {
		return c
	}
	// Incomparable kinds: order by kind id for determinism.
	ka, kb := normKind(a.K), normKind(b.K)
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	}
	return 0
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
	if a.K == KindNull || b.K == KindNull {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Distinct implements IS DISTINCT FROM: NULL is identical to NULL and
// distinct from everything else.
func Distinct(a, b Value) bool {
	if a.K == KindNull || b.K == KindNull {
		return (a.K == KindNull) != (b.K == KindNull)
	}
	return !Equal(a, b)
}

// Hash returns a hash of the value consistent with Distinct: values that are
// not distinct hash identically (ints and floats representing the same number
// collide on purpose).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	v.HashInto(h)
	return h.Sum64()
}

// hashWriter is the subset of hash.Hash64 HashInto needs.
type hashWriter interface {
	Write(p []byte) (int, error)
}

// HashInto feeds the value into h using a kind-tagged encoding.
func (v Value) HashInto(h hashWriter) {
	var tag [1]byte
	switch v.K {
	case KindNull:
		tag[0] = 0
		h.Write(tag[:])
	case KindBool:
		tag[0] = 1
		h.Write(tag[:])
		if v.B {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	case KindInt, KindFloat:
		tag[0] = 2
		h.Write(tag[:])
		f := v.Float()
		if f == 0 {
			f = 0 // normalize -0
		}
		bits := math.Float64bits(f)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	case KindString:
		tag[0] = 3
		h.Write(tag[:])
		h.Write([]byte(v.S))
	}
}

// Key returns a canonical string key for the value, usable as a Go map key,
// consistent with Distinct (two values are not distinct iff keys are equal).
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey appends the canonical key encoding of v (the byte form of Key) to
// dst and returns the extended slice. Hot paths use it with a reusable scratch
// buffer to build hash keys without per-row allocation.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, 0x00)
	case KindBool:
		if v.B {
			return append(dst, 0x01, 'T')
		}
		return append(dst, 0x01, 'F')
	case KindInt:
		return strconv.AppendInt(append(dst, 0x02), v.I, 10)
	case KindFloat:
		// An integral float that fits int64 takes its integer's key, so 5 and
		// 5.0 share one; every integer keeps its exact digits (routing BIGINTs
		// through float64 would collapse neighbours above 2^53).
		if f := v.F; f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return strconv.AppendInt(append(dst, 0x02), int64(f), 10)
		}
		return strconv.AppendFloat(append(dst, 0x02, 'f'), v.F, 'b', -1, 64)
	case KindString:
		return append(append(dst, 0x03), v.S...)
	}
	return append(dst, 0x7f)
}

// AppendFramedKey appends v's key encoding prefixed with a fixed-width length,
// so that concatenated framed keys are injective across value boundaries
// (["ab","c"] never collides with ["a","bc"]).
func AppendFramedKey(dst []byte, v Value) []byte {
	lenPos := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = v.AppendKey(dst)
	n := len(dst) - lenPos - 4
	dst[lenPos] = byte(n)
	dst[lenPos+1] = byte(n >> 8)
	dst[lenPos+2] = byte(n >> 16)
	dst[lenPos+3] = byte(n >> 24)
	return dst
}

// Coerce converts v to the target kind when a lossless or standard SQL cast
// exists. NULL coerces to any kind (staying NULL).
func Coerce(v Value, to Kind) (Value, error) {
	if v.K == KindNull || v.K == to {
		return v, nil
	}
	switch to {
	case KindFloat:
		if v.K == KindInt {
			return NewFloat(float64(v.I)), nil
		}
		if v.K == KindString {
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to float", v.S)
			}
			return NewFloat(f), nil
		}
	case KindInt:
		if v.K == KindFloat {
			if v.F != math.Trunc(v.F) {
				return NewInt(int64(v.F)), nil
			}
			return NewInt(int64(v.F)), nil
		}
		if v.K == KindString {
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot cast %q to integer", v.S)
			}
			return NewInt(i), nil
		}
		if v.K == KindBool {
			if v.B {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindBool:
		if v.K == KindString {
			switch strings.ToLower(strings.TrimSpace(v.S)) {
			case "t", "true", "yes", "on", "1":
				return NewBool(true), nil
			case "f", "false", "no", "off", "0":
				return NewBool(false), nil
			}
			return Null, fmt.Errorf("cannot cast %q to boolean", v.S)
		}
		if v.K == KindInt {
			return NewBool(v.I != 0), nil
		}
	}
	return Null, fmt.Errorf("cannot cast %s to %s", v.K, to)
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

// Concat returns a new row holding r followed by s.
func Concat(r, s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	out = append(out, s...)
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

// AppendKey appends the canonical row key (the byte form of Key) to dst.
// Executor hot paths use it with a reusable scratch buffer so that group-by,
// DISTINCT and set-operation lookups do not allocate per input row.
func (r Row) AppendKey(dst []byte) []byte {
	for _, v := range r {
		dst = AppendFramedKey(dst, v)
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
	if a.K == KindNull || b.K == KindNull {
		return Null, nil
	}
	if op == '+' && a.K == KindString && b.K == KindString {
		return NewString(a.S + b.S), nil
	}
	if !numericKinds(a.K, b.K) {
		return Null, fmt.Errorf("operator %c not defined for %s and %s", op, a.K, b.K)
	}
	if a.K == KindInt && b.K == KindInt {
		switch op {
		case '+':
			return NewInt(a.I + b.I), nil
		case '-':
			return NewInt(a.I - b.I), nil
		case '*':
			return NewInt(a.I * b.I), nil
		case '/':
			if b.I == 0 {
				return Null, errDivZero
			}
			return NewInt(a.I / b.I), nil
		case '%':
			if b.I == 0 {
				return Null, errDivZero
			}
			return NewInt(a.I % b.I), nil
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
	switch a.K {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-a.I), nil
	case KindFloat:
		return NewFloat(-a.F), nil
	}
	return Null, fmt.Errorf("unary minus not defined for %s", a.K)
}
