package spill

import (
	"math"
	"os"
	"testing"

	"perm/internal/value"
)

func codecCases() []value.Row {
	return []value.Row{
		{},
		{value.Null},
		{value.NewBool(true), value.NewBool(false)},
		{value.NewInt(0), value.NewInt(-1), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64)},
		{value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(2.5)},
		{value.NewString(""), value.NewString("héllo\x00world"), value.NewString(string(make([]byte, 4096)))},
		{value.NewInt(5), value.NewFloat(5)}, // int 5 and float 5.0 must stay distinct kinds
	}
}

// TestRowCodecRoundTrip: every value must come back bit-for-bit, kinds
// included — the codec backs external sorts and grace partitions whose
// results must be byte-identical to the in-memory path.
func TestRowCodecRoundTrip(t *testing.T) {
	for _, row := range codecCases() {
		enc := AppendRow(nil, row)
		got, rest, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", row, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %v left %d bytes", row, len(rest))
		}
		if len(got) != len(row) {
			t.Fatalf("arity %d != %d", len(got), len(row))
		}
		for i := range row {
			w, g := row[i], got[i]
			if w.Kind() != g.Kind() || w.Bool() != g.Bool() || w.Int() != g.Int() || w.Str() != g.Str() ||
				math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
				t.Fatalf("value %d: %#v != %#v", i, g, w)
			}
		}
	}
}

// TestFileRoundTrip writes records through a pool file and reads them back.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := NewPool(dir)
	f, err := p.Create()
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for _, row := range codecCases() {
		recs = append(recs, AppendRow(nil, row))
	}
	for _, rec := range recs {
		if err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.StartRead(); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		got, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if got, err := f.Next(); err != nil || got != nil {
		t.Fatalf("expected EOF, got %v / %v", got, err)
	}
	if p.Files() != 1 || p.Bytes() == 0 {
		t.Fatalf("counters: files=%d bytes=%d", p.Files(), p.Bytes())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("file not removed: %d entries", len(ents))
	}
}

// TestPoolCleanup force-removes abandoned files — the backstop behind
// session teardown.
func TestPoolCleanup(t *testing.T) {
	dir := t.TempDir()
	p := NewPool(dir)
	for i := 0; i < 5; i++ {
		f, err := p.Create()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append([]byte("abandoned")); err != nil {
			t.Fatal(err)
		}
	}
	if p.Live() != 5 {
		t.Fatalf("live = %d", p.Live())
	}
	p.Cleanup()
	if p.Live() != 0 {
		t.Fatalf("live after cleanup = %d", p.Live())
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("cleanup left %d entries", len(ents))
	}
	p.Cleanup() // idempotent
}

// FuzzSpillCodec throws arbitrary bytes at the row decoder: it must never
// panic or over-allocate, and whatever decodes must re-encode to bytes that
// decode to the same row (decode∘encode is the identity on valid frames).
func FuzzSpillCodec(f *testing.F) {
	for _, row := range codecCases() {
		f.Add(AppendRow(nil, row))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, _, err := DecodeRow(data)
		if err != nil {
			return
		}
		enc := AppendRow(nil, row)
		again, rest, err := DecodeRow(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-decode failed: %v (%d rest)", err, len(rest))
		}
		if len(again) != len(row) {
			t.Fatalf("arity changed: %d != %d", len(again), len(row))
		}
		for i := range row {
			if row[i].Kind() != again[i].Kind() || row[i].Key() != again[i].Key() {
				t.Fatalf("value %d changed: %#v != %#v", i, again[i], row[i])
			}
		}
	})
}
