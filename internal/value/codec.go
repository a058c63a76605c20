package value

import (
	"encoding/binary"
	"fmt"
)

// The row codec: the one exact, reversible encoding of values and rows, which
// spill files, wire frames, WAL segments and snapshots all hold. Unlike
// AppendKey it keeps what a key forgets on purpose (INT 5 vs FLOAT 5.0, -0.0,
// NaN payloads). A value is its kind byte, then nothing for NULL, 0 or 1 for
// a boolean, a zig-zag varint for an integer, the 8 big-endian bytes of a
// float's IEEE bits, or a uvarint length and the bytes of a string; a row is
// a uvarint arity followed by its values.

// AppendValue appends the exact encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case KindBool:
		return append(dst, byte(v.num))
	case KindInt:
		return binary.AppendVarint(dst, int64(v.num))
	case KindFloat:
		return binary.BigEndian.AppendUint64(dst, v.num)
	case KindString:
		s := v.Str()
		return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
	}
	return dst
}

// DecodeValue reverses AppendValue, returning the value and the bytes after
// it. A string is copied out of b, so the value outlives the buffer.
func DecodeValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, fmt.Errorf("value: truncated value")
	}
	k, b := Kind(b[0]), b[1:]
	switch k {
	case KindNull:
		return Null, b, nil
	case KindBool:
		if len(b) > 0 {
			return NewBool(b[0] != 0), b[1:], nil
		}
	case KindInt:
		if i, n := binary.Varint(b); n > 0 {
			return NewInt(i), b[n:], nil
		}
	case KindFloat:
		if len(b) >= 8 {
			return tagged(KindFloat, binary.BigEndian.Uint64(b)), b[8:], nil
		}
	case KindString:
		if l, n := binary.Uvarint(b); n > 0 && l <= uint64(len(b)-n) {
			return NewString(string(b[n : n+int(l)])), b[n+int(l):], nil
		}
	default:
		return Null, nil, fmt.Errorf("value: unknown kind %d", k)
	}
	return Null, nil, fmt.Errorf("value: truncated or corrupt %s", k)
}

// AppendRow appends the exact encoding of a row to dst.
func AppendRow(dst []byte, row Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = AppendValue(dst, v)
	}
	return dst
}

// RowSource gives DecodeRow a row's memory: a *RowAlloc, or a maker whose
// consumer drops each row before it asks for the next, which hands one row
// out over again.
type RowSource interface{ New(n int) Row }

// DecodeRow reverses AppendRow, returning the row and the bytes after it.
// The row's memory comes from a (nil: an allocation of its own).
func DecodeRow(a RowSource, b []byte) (Row, []byte, error) {
	n, w := binary.Uvarint(b)
	// Each value takes at least one byte, so an arity beyond the remaining
	// input is corrupt: rejecting it before allocating keeps a hostile length
	// prefix from asking for gigabytes.
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("value: truncated or corrupt row arity")
	}
	b = b[w:]
	if a == nil {
		a = (*RowAlloc)(nil)
	}
	row := a.New(int(n))
	var err error
	for i := range row {
		if row[i], b, err = DecodeValue(b); err != nil {
			return nil, nil, err
		}
	}
	return row, b, nil
}
