package spill

import (
	"os"
	"testing"

	"perm/internal/value"
)

// TestFileRoundTrip writes records through a pool file and reads them back.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := NewPool(dir)
	f, err := p.Create()
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{
		{},
		[]byte("x"),
		make([]byte, 4096),
		AppendRow(nil, value.Row{value.NewInt(5), value.NewFloat(5), value.Null, value.NewString("héllo\x00world")}),
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
