// Package spill gives blocking executor operators a disk surface: temp files
// of length-framed records, tracked by a Pool so that every byte written is
// counted and every file is removed however the query ends — normal
// completion, timeout, client disconnect, session close or server shutdown.
//
// A file's one buffer comes from its pool and goes back when the file
// closes, so hundreds of files allocate a handful of buffers, each a
// 1/MergeFanIn share of work_mem (SetBudget): a full merge fits the budget.
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
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
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

// MergeFanIn caps how many spill files a merge holds open at once (larger
// sets merge in passes), and so how many buffers a pool keeps for reuse.
// A buffer is a 1/MergeFanIn share of work_mem within [4 KiB, 64 KiB].
const (
	MergeFanIn                   = 64
	minBufferSize, maxBufferSize = 4 << 10, 64 << 10
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
	mu      sync.Mutex
	dir     string
	live    map[*File]struct{}
	bufSize int
	free    [][]byte // buffers of bufSize, at most MergeFanIn

	files atomic.Int64 // files ever created
	bytes atomic.Int64 // bytes ever written
}

// NewPool returns a pool writing under dir ("" = the OS temp directory).
func NewPool(dir string) *Pool {
	return &Pool{dir: dir, live: make(map[*File]struct{}), bufSize: maxBufferSize}
}

// SetDir changes the directory future files are created in.
func (p *Pool) SetDir(dir string) {
	p.mu.Lock()
	p.dir = dir
	p.mu.Unlock()
}

// SetBudget sizes the buffers of future files from the session's work_mem
// (<= 0: unlimited), so MergeFanIn open files hold no more than the budget.
func (p *Pool) SetBudget(workMem int64) {
	size := maxBufferSize
	if workMem > 0 {
		size = int(min(max(workMem/MergeFanIn, minBufferSize), maxBufferSize))
	}
	p.mu.Lock()
	if size != p.bufSize {
		p.bufSize, p.free = size, nil
	}
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
	sf := &File{pool: p, f: f}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sf.buf, p.free = p.free[n-1], p.free[:n-1]
	} else {
		sf.buf = make([]byte, p.bufSize)
	}
	p.live[sf] = struct{}{}
	p.mu.Unlock()
	p.files.Add(1)
	mSpillFiles.Inc()
	return sf, nil
}

// Cleanup closes and removes every file still live, then drops the free
// buffers. Idempotent; safe to call concurrently with Close (a file is
// removed exactly once).
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
	p.mu.Lock()
	p.free = nil
	p.mu.Unlock()
}

// File is one spill file: append length-framed records, then StartRead to
// rewind and stream them back, as often as needed. Close removes the file from
// disk and returns its buffer to the pool. A File is single-goroutine, like
// the operators above it.
type File struct {
	pool *Pool
	f    *os.File
	// buf is the file's one buffer: buf[:w] are pending writes until the
	// first StartRead, buf[r:w] the read-ahead after it.
	buf     []byte
	r, w    int
	reading bool
	written int64
	records int64
	closed  bool
}

// Append writes one record.
func (f *File) Append(rec []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if err := f.write(hdr[:n]); err != nil {
		return err
	}
	if err := f.write(rec); err != nil {
		return err
	}
	f.written += int64(n + len(rec))
	f.records++
	return nil
}

func (f *File) write(p []byte) error {
	for len(p) > 0 {
		if f.w == len(f.buf) {
			if err := f.flush(); err != nil {
				return err
			}
		}
		n := copy(f.buf[f.w:], p)
		f.w, p = f.w+n, p[n:]
	}
	return nil
}

func (f *File) flush() error {
	_, err := f.f.Write(f.buf[:f.w])
	f.w = 0
	return err
}

// Records reports how many records were appended.
func (f *File) Records() int64 { return f.records }

// StartRead flushes pending writes, accounts the file's bytes in the pool,
// and rewinds for reading. A file is written first and read after; it can be
// read again from the start any number of times.
func (f *File) StartRead() error {
	if !f.reading {
		if err := f.flush(); err != nil {
			return err
		}
		f.reading = true
	}
	f.pool.bytes.Add(f.written)
	mSpillBytes.Add(uint64(f.written))
	f.written = 0
	f.r, f.w = 0, 0
	_, err := f.f.Seek(0, io.SeekStart)
	return err
}

// fill moves the read-ahead to the front of the buffer and reads behind it
// until it holds want bytes (io.ErrUnexpectedEOF or io.EOF if the file ends).
func (f *File) fill(want int) error {
	f.w = copy(f.buf, f.buf[f.r:f.w])
	f.r = 0
	n, err := io.ReadAtLeast(f.f, f.buf[f.w:], want-f.w)
	f.w += n
	return err
}

// Next returns the next record, or (nil, nil) at end of file. The returned
// slice is only valid until the next call.
func (f *File) Next() ([]byte, error) {
	n, hn := binary.Uvarint(f.buf[f.r:f.w])
	if hn == 0 { // the length is not all read ahead
		if err := f.fill(binary.MaxVarintLen64); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, err
		}
		if f.r == f.w {
			return nil, nil
		}
		n, hn = binary.Uvarint(f.buf[f.r:f.w])
	}
	if hn <= 0 {
		return nil, fmt.Errorf("spill: corrupt record length")
	}
	f.r += hn
	if f.w-f.r < int(n) {
		if int(n) > len(f.buf) { // a record longer than the buffer: a buffer of its own
			f.buf = slices.Grow(f.buf, int(n)-len(f.buf))[:n]
		}
		if err := f.fill(int(n)); err != nil {
			return nil, err
		}
	}
	rec := f.buf[f.r : f.r+int(n)]
	f.r += int(n)
	return rec, nil
}

// Close closes and deletes the file and returns its buffer to the pool.
// Idempotent.
func (f *File) Close() error {
	f.pool.mu.Lock()
	if f.closed {
		f.pool.mu.Unlock()
		return nil
	}
	f.closed = true
	delete(f.pool.live, f)
	if len(f.buf) == f.pool.bufSize && len(f.pool.free) < MergeFanIn {
		f.pool.free = append(f.pool.free, f.buf)
	}
	f.buf = nil
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
	return err
}
