package value

import (
	"math"
	"testing"
)

func codecCases() []Row {
	return []Row{
		{},
		{Null},
		{NewBool(true), NewBool(false)},
		{NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(2.5)},
		{NewString(""), NewString("héllo\x00world"), NewString(string(make([]byte, 4096)))},
		{NewInt(5), NewFloat(5)}, // INT 5 and FLOAT 5.0 must stay distinct kinds
	}
}

// sameBits reports whether two values are the same kind holding the same
// payload bit for bit: -0.0 is not 0, and a NaN keeps its payload.
func sameBits(a, b Value) bool {
	if a.Kind() == KindString {
		return b.Kind() == KindString && a.Str() == b.Str()
	}
	return a.Kind() == b.Kind() && a.num == b.num
}

// TestRowCodecRoundTrip: every value must come back bit-for-bit, kinds
// included — the codec backs external sorts and grace partitions whose
// results must be byte-identical to the in-memory path, and the wire, the
// WAL and snapshots, whose rows must be the rows that were sent.
func TestRowCodecRoundTrip(t *testing.T) {
	var a RowAlloc
	for _, row := range codecCases() {
		enc := AppendRow(nil, row)
		got, rest, err := DecodeRow(&a, append(enc, 0xEE))
		if err != nil {
			t.Fatalf("decode %v: %v", row, err)
		}
		if len(rest) != 1 || rest[0] != 0xEE {
			t.Fatalf("decode %v left %v, want the byte after the row", row, rest)
		}
		if len(got) != len(row) {
			t.Fatalf("arity %d != %d", len(got), len(row))
		}
		for i := range row {
			if !sameBits(row[i], got[i]) {
				t.Fatalf("value %d: %#v != %#v", i, got[i], row[i])
			}
		}
	}
	for _, bad := range [][]byte{{}, {byte(KindBool)}, {byte(KindFloat), 1, 2}, {byte(KindString), 5, 'a'}, {0x7f}} {
		if _, _, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%v) accepted corrupt input", bad)
		}
	}
}

// FuzzRowCodec throws arbitrary bytes at the row decoder: it must never
// panic or over-allocate (an arity beyond the input is refused before the
// row is made), and whatever decodes must re-encode to bytes that decode to
// the same kinds and the same bits.
func FuzzRowCodec(f *testing.F) {
	for _, row := range codecCases() {
		f.Add(AppendRow(nil, row))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, _, err := DecodeRow(nil, data)
		if err != nil {
			return
		}
		again, rest, err := DecodeRow(nil, AppendRow(nil, row))
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-decode failed: %v (%d rest)", err, len(rest))
		}
		if len(again) != len(row) {
			t.Fatalf("arity changed: %d != %d", len(again), len(row))
		}
		for i := range row {
			if !sameBits(row[i], again[i]) {
				t.Fatalf("value %d changed: %#v != %#v", i, again[i], row[i])
			}
		}
	})
}
