// Package spill gives blocking executor operators a disk surface: temp files
// of length-framed records, tracked by a Pool so that every byte written is
// counted and every file is removed however the query ends — normal
// completion, timeout, client disconnect, session close or server shutdown.
//
// What goes inside a record is the operator's business. Rows travel in
// internal/value's exact row codec (value.AppendRow / value.DecodeRow, the
// encoding the wire, the WAL and snapshots use too), never in the canonical
// key encoding: keys are Distinct-consistent on purpose (5 and 5.0 collide),
// which makes them one-way, and a spilled row must come back bit-for-bit so
// an external sort or a grace-partitioned aggregate produces byte-identical
// results to the in-memory path.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"perm/internal/metrics"
	"perm/internal/value"
)

// Process-wide spill traffic, across every pool in the process. Per-session
// numbers stay available through SHOW memory_status.
var (
	mSpillFiles = metrics.Default.Counter("perm_spill_files_total",
		"Spill files ever created")
	mSpillBytes = metrics.Default.Counter("perm_spill_bytes_total",
		"Bytes ever written to spill files")
)

// AppendRow appends a row's record encoding: value.AppendRow.
func AppendRow(dst []byte, row value.Row) []byte { return value.AppendRow(dst, row) }

// DecodeRow reverses AppendRow into a row of its own: value.DecodeRow.
func DecodeRow(b []byte) (value.Row, []byte, error) { return value.DecodeRow(nil, b) }

// --- tracked temp files ----------------------------------------------------------

// Pool creates and tracks spill files under one directory. Files deregister
// themselves on Close; Cleanup force-removes whatever is still live, which is
// how a session teardown (close, disconnect, shutdown) guarantees zero
// leftover temp files even if an iterator tree was abandoned mid-stream.
// Counters are cumulative for the pool's lifetime — they feed
// SHOW memory_status.
type Pool struct {
	mu   sync.Mutex
	dir  string
	live map[*File]struct{}

	files atomic.Int64 // files ever created
	bytes atomic.Int64 // bytes ever written
}

// NewPool returns a pool writing under dir ("" = the OS temp directory).
func NewPool(dir string) *Pool {
	return &Pool{dir: dir, live: make(map[*File]struct{})}
}

// SetDir changes the directory future files are created in.
func (p *Pool) SetDir(dir string) {
	p.mu.Lock()
	p.dir = dir
	p.mu.Unlock()
}

// Dir reports the pool's directory ("" = the OS temp directory).
func (p *Pool) Dir() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dir
}

// Files reports how many spill files were ever created.
func (p *Pool) Files() int64 { return p.files.Load() }

// Bytes reports how many bytes were ever spilled.
func (p *Pool) Bytes() int64 { return p.bytes.Load() }

// Live reports how many spill files currently exist (tests assert zero).
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.live)
}

// Create opens a fresh spill file in the pool's directory.
func (p *Pool) Create() (*File, error) {
	p.mu.Lock()
	dir := p.dir
	p.mu.Unlock()
	f, err := os.CreateTemp(dir, "perm-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: create temp file: %w", err)
	}
	sf := &File{pool: p, f: f, w: bufio.NewWriterSize(f, 64<<10)}
	p.mu.Lock()
	p.live[sf] = struct{}{}
	p.mu.Unlock()
	p.files.Add(1)
	mSpillFiles.Inc()
	return sf, nil
}

// Cleanup closes and removes every file still live. Idempotent; safe to call
// concurrently with Close (a file is removed exactly once).
func (p *Pool) Cleanup() {
	p.mu.Lock()
	live := make([]*File, 0, len(p.live))
	for f := range p.live {
		live = append(live, f)
	}
	p.mu.Unlock()
	for _, f := range live {
		f.Close()
	}
}

// File is one spill file: append length-framed records, then StartRead to
// rewind and stream them back. Close removes the file from disk. A File is
// single-goroutine, like the operators above it.
type File struct {
	pool    *Pool
	f       *os.File
	w       *bufio.Writer
	r       *bufio.Reader
	buf     []byte // reusable record read buffer
	written int64
	records int64
	closed  bool
}

// Append writes one record.
func (f *File) Append(rec []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if _, err := f.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := f.w.Write(rec); err != nil {
		return err
	}
	f.written += int64(n + len(rec))
	f.records++
	return nil
}

// Records reports how many records were appended.
func (f *File) Records() int64 { return f.records }

// StartRead flushes pending writes, accounts the file's bytes in the pool,
// and rewinds for reading. A file is either being written or being read.
func (f *File) StartRead() error {
	if err := f.w.Flush(); err != nil {
		return err
	}
	f.pool.bytes.Add(f.written)
	mSpillBytes.Add(uint64(f.written))
	f.written = 0
	if _, err := f.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if f.r == nil {
		f.r = bufio.NewReaderSize(f.f, 64<<10)
	} else {
		f.r.Reset(f.f)
	}
	return nil
}

// Next returns the next record, or (nil, nil) at end of file. The returned
// slice is only valid until the next call.
func (f *File) Next() ([]byte, error) {
	n, err := binary.ReadUvarint(f.r)
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if cap(f.buf) < int(n) {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(f.r, f.buf); err != nil {
		return nil, err
	}
	return f.buf, nil
}

// Close closes and deletes the file. Idempotent.
func (f *File) Close() error {
	f.pool.mu.Lock()
	if f.closed {
		f.pool.mu.Unlock()
		return nil
	}
	f.closed = true
	delete(f.pool.live, f)
	f.pool.mu.Unlock()
	// Bytes written but never read back (an interrupted run) still count as
	// spilled traffic.
	f.pool.bytes.Add(f.written)
	mSpillBytes.Add(uint64(f.written))
	name := f.f.Name()
	err := f.f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	// Drop the buffered I/O state now: owners keep closed files registered
	// for idempotent teardown, and a big spill creates hundreds of files —
	// their 64 KiB buffers must not stay pinned until the query ends.
	f.w, f.r, f.buf = nil, nil, nil
	return err
}
