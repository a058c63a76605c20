package spill

import (
	"os"
	"runtime"
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

// TestPoolReusesBuffers: a file takes its one buffer from the pool and gives it
// back on Close, so a hundred files written, read and read again one after
// another allocate buffers once, not a write and a read buffer each (12.8 MB
// before the pool kept them). Cleanup drops the kept buffers.
func TestPoolReusesBuffers(t *testing.T) {
	p := NewPool(t.TempDir())
	cycle := func(recs ...[]byte) {
		f, err := p.Create()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := f.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < 2; pass++ { // a grace join reads a probe file once per chunk
			if err := f.StartRead(); err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				if got, err := f.Next(); err != nil || string(got) != string(recs[i]) {
					t.Fatalf("pass %d, record %d: %d bytes, %v", pass, i, len(got), err)
				}
			}
			if got, err := f.Next(); got != nil || err != nil {
				t.Fatalf("pass %d: %d bytes past the end, %v", pass, len(got), err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A record longer than the buffer is read into a buffer of its own, which
	// the pool does not keep; the next file allocates the one it does.
	cycle([]byte("short"), make([]byte, 3*maxBufferSize), []byte("after"))
	cycle([]byte("short"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		cycle([]byte("short"), AppendRow(nil, value.Row{value.NewInt(int64(i))}))
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("100 files allocated %d bytes", got)
	if got > 2*maxBufferSize {
		t.Errorf("100 files allocated %d bytes, want at most two buffers (%d)", got, 2*maxBufferSize)
	}
	p.Cleanup()
	if len(p.free) != 0 || p.Live() != 0 {
		t.Errorf("after Cleanup: %d free buffers, %d live files", len(p.free), p.Live())
	}
}
