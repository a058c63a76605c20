package spill

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
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

// --- the backing file ----------------------------------------------------------

// smallBlocks returns a pool of 4 KiB blocks under a fresh directory.
func smallBlocks(t *testing.T) (*Pool, string) {
	dir := t.TempDir()
	p := NewPool(dir)
	p.SetBudget(1) // the smallest buffer: 4 KiB
	return p, dir
}

// entries counts what the directory holds.
func entries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// record makes the j-th record of file i: its own bytes, a length that
// varies from empty to a few blocks.
func record(i, j int) []byte {
	n := (i*7919 + j*104729) % 700
	if j%97 == 13 {
		n += 3 * minBufferSize // now and then one longer than a block
	}
	rec := make([]byte, n)
	for k := range rec {
		rec[k] = byte(i + j*31 + k)
	}
	return rec
}

func create(t *testing.T, p *Pool) *File {
	t.Helper()
	f, err := p.Create()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func appendAll(t *testing.T, f *File, recs ...[]byte) {
	t.Helper()
	for _, rec := range recs {
		if err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// readAll reads f from the start and checks it holds exactly want.
func readAll(t *testing.T, f *File, want [][]byte) {
	t.Helper()
	if err := f.StartRead(); err != nil {
		t.Fatal(err)
	}
	for j, rec := range want {
		got, err := f.Next()
		if err != nil {
			t.Fatalf("record %d: %v", j, err)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("record %d: %d bytes, want %d bytes", j, len(got), len(rec))
		}
	}
	if got, err := f.Next(); got != nil || err != nil {
		t.Fatalf("%d bytes past the end, %v", len(got), err)
	}
}

// TestInterleavedFilesShareOneBackingFile: 64 files written a record at a time
// in turn, as a partition set routes rows, interleave their blocks in one
// backing file, and each reads back its own records byte for byte, in any
// order, twice (a grace join re-reads its probe file).
func TestInterleavedFilesShareOneBackingFile(t *testing.T) {
	p, dir := smallBlocks(t)
	const files, perFile = 64, 300
	fs := make([]*File, files)
	want := make([][][]byte, files)
	for i := range fs {
		fs[i] = create(t, p)
	}
	for j := 0; j < perFile; j++ {
		for i, f := range fs {
			rec := record(i, j)
			appendAll(t, f, rec)
			want[i] = append(want[i], rec)
		}
	}
	if n := entries(t, dir); n != 1 {
		t.Fatalf("64 live files made %d temp files, want 1", n)
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(files) {
		readAll(t, fs[i], want[i])
		readAll(t, fs[i], want[i])
	}
	if n := entries(t, dir); n != 1 {
		t.Fatalf("%d temp files after reading, want 1", n)
	}
	for i, f := range fs {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if want := min(files-1-i, 1); entries(t, dir) != want {
			t.Fatalf("%d of 64 files closed: %d temp files, want %d", i+1, entries(t, dir), want)
		}
	}
	if p.Files() != files || p.Live() != 0 {
		t.Fatalf("files = %d, live = %d", p.Files(), p.Live())
	}
}

// TestReusedBlocksHoldOnlyTheirOwnRecords: a closed file's blocks go to the
// next file, and a shorter file reads its own records and nothing of what
// the longer one left behind them.
func TestReusedBlocksHoldOnlyTheirOwnRecords(t *testing.T) {
	p, _ := smallBlocks(t)
	keep := create(t, p) // keeps the backing file live
	long := create(t, p)
	for j := 0; j < 100; j++ {
		appendAll(t, long, bytes.Repeat([]byte{0xAB}, 200))
	}
	if err := long.StartRead(); err != nil {
		t.Fatal(err)
	}
	used := slices.Clone(long.blocks)
	if err := long.Close(); err != nil {
		t.Fatal(err)
	}
	short := create(t, p)
	want := [][]byte{[]byte("one"), bytes.Repeat([]byte("two"), 2000), []byte("three")}
	appendAll(t, short, want...)
	readAll(t, short, want)
	if !slices.Equal(short.blocks, used[:len(short.blocks)]) {
		t.Fatalf("the short file wrote blocks %v, not the freed %v", short.blocks, used)
	}
	readAll(t, keep, nil)
	p.Cleanup()
}

// TestRecordLongerThanABlock: a record spanning several blocks, not adjacent
// in the backing file, reads back whole.
func TestRecordLongerThanABlock(t *testing.T) {
	p, _ := smallBlocks(t)
	a, b := create(t, p), create(t, p)
	var want [2][][]byte
	for j := 0; j < 4; j++ {
		for i, f := range []*File{a, b} {
			rec := bytes.Repeat([]byte{byte(i*4 + j)}, 5*minBufferSize/2+j)
			appendAll(t, f, rec)
			want[i] = append(want[i], rec)
		}
	}
	adjacent := true
	for k := 1; k < len(a.blocks); k++ {
		adjacent = adjacent && a.blocks[k] == a.blocks[k-1]+int64(a.block)
	}
	if adjacent {
		t.Fatalf("the files' blocks did not interleave: %v", a.blocks)
	}
	readAll(t, a, want[0])
	readAll(t, b, want[1])
	p.Cleanup()
}

// TestBackingFileRemoved: the backing file goes with the last live file, and
// with Cleanup; the next file makes a new one.
func TestBackingFileRemoved(t *testing.T) {
	p, dir := smallBlocks(t)
	a, b := create(t, p), create(t, p)
	appendAll(t, a, []byte("a"))
	appendAll(t, b, []byte("b"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := entries(t, dir); n != 1 {
		t.Fatalf("with one file live: %d temp files, want 1", n)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := entries(t, dir); n != 0 {
		t.Fatalf("after the last Close: %d temp files, want 0", n)
	}
	c := create(t, p)
	appendAll(t, c, []byte("c"))
	readAll(t, c, [][]byte{[]byte("c")})
	if n := entries(t, dir); n != 1 {
		t.Fatalf("a new file: %d temp files, want 1", n)
	}
	p.Cleanup()
	if n := entries(t, dir); n != 0 || p.Live() != 0 {
		t.Fatalf("after Cleanup: %d temp files, %d live", n, p.Live())
	}
}

// TestReadAfterCleanup: a file Cleanup closed under its reader fails with an
// error, mid-record or at the start, and never panics.
func TestReadAfterCleanup(t *testing.T) {
	p, _ := smallBlocks(t)
	f := create(t, p)
	for j := 0; j < 50; j++ {
		appendAll(t, f, record(1, j))
	}
	if err := f.StartRead(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Next(); err != nil {
		t.Fatal(err)
	}
	p.Cleanup()
	if rec, err := f.Next(); err == nil {
		t.Fatalf("Next after Cleanup: %d bytes, no error", len(rec))
	}
	if err := f.StartRead(); err == nil {
		t.Fatal("StartRead after Cleanup: no error")
	}
	if err := f.Append([]byte("late")); err == nil {
		t.Fatal("Append after Cleanup: no error")
	}
}

// TestBackingFileSize: the backing file grows only when no freed block is
// left, so it never exceeds the peak of live blocks.
func TestBackingFileSize(t *testing.T) {
	p, _ := smallBlocks(t)
	rng := rand.New(rand.NewSource(2))
	var live []*File
	peak := 0
	note := func() {
		n := 0
		for _, f := range live {
			n += len(f.blocks)
		}
		peak = max(peak, n)
	}
	for round := 0; round < 200; round++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			if err := live[k].Close(); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, k, k+1)
			continue
		}
		f := create(t, p)
		live = append(live, f)
		for j := rng.Intn(40); j > 0; j-- {
			appendAll(t, f, record(round, j))
			note()
		}
		if err := f.StartRead(); err != nil {
			t.Fatal(err)
		}
		note()
	}
	st, err := p.backing.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(peak * p.blockSize); st.Size() > limit {
		t.Fatalf("the backing file holds %d bytes; the peak of live blocks is %d (%d bytes)", st.Size(), peak, limit)
	}
	p.Cleanup()
}

// TestConcurrentFiles: parallel workers share their session's pool; four
// goroutines create, write, read and close files at once (run with -race).
func TestConcurrentFiles(t *testing.T) {
	p, dir := smallBlocks(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				f, err := p.Create()
				if err != nil {
					errs <- err
					return
				}
				var want [][]byte
				for j := 0; j < 30; j++ {
					rec := record(g*100+round, j)
					if err := f.Append(rec); err != nil {
						errs <- err
						return
					}
					want = append(want, rec)
				}
				if err := f.StartRead(); err != nil {
					errs <- err
					return
				}
				for j := range want {
					if got, err := f.Next(); err != nil || !bytes.Equal(got, want[j]) {
						errs <- fmt.Errorf("goroutine %d, round %d, record %d: %d bytes, %v", g, round, j, len(got), err)
						return
					}
				}
				if err := f.Close(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := entries(t, dir); n != 0 || p.Live() != 0 {
		t.Fatalf("%d temp files, %d live", n, p.Live())
	}
}
