// Package spill gives blocking executor operators a disk surface: logical
// files of length-framed records, tracked by a Pool so that every byte
// written is counted and every file is removed however the query ends —
// normal completion, timeout, client disconnect, session close or server
// shutdown.
//
// A pool's logical files share one backing temp file, as the tapes of
// PostgreSQL's logtape.c share one BufFile. The backing file is created with
// the first file while none is live and removed with the last one (or by
// Cleanup), so a spilling session holds at most one temp file and one
// descriptor however many grace partitions, sort runs and merge outputs it
// has open. The backing file is cut into blocks the size of a file's buffer;
// a logical file is the list of the blocks its full buffers were written to,
// taken from the pool's free-block list or from the end of the backing file,
// and given back to that list when it closes. So the backing file never grows
// past the peak of live blocks.
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
	"errors"
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

// --- tracked logical files -------------------------------------------------------

// Pool creates and tracks spill files in one backing temp file under its
// directory. Files deregister themselves on Close; Cleanup force-closes
// whatever is still live, which is how a session teardown (close,
// disconnect, shutdown) guarantees zero leftover temp files even if an
// iterator tree was abandoned mid-stream. Counters are cumulative for the
// pool's lifetime — they feed SHOW memory_status. Parallel workers share
// their session's pool: it is safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	dir     string
	live    map[*File]struct{}
	bufSize int
	free    [][]byte // buffers of bufSize, at most MergeFanIn

	// The backing file while any file is live: its block size (the buffer
	// size when it was made), the offset past its last block, and the blocks
	// closed files gave back.
	backing    *os.File
	blockSize  int
	end        int64
	freeBlocks []int64

	files atomic.Int64 // files ever created
	bytes atomic.Int64 // bytes ever written
}

// NewPool returns a pool writing under dir ("" = the OS temp directory).
func NewPool(dir string) *Pool {
	return &Pool{dir: dir, live: make(map[*File]struct{}), bufSize: maxBufferSize}
}

// SetDir changes the directory future backing files are created in.
func (p *Pool) SetDir(dir string) {
	p.mu.Lock()
	p.dir = dir
	p.mu.Unlock()
}

// SetBudget sizes the buffers of future files from the session's work_mem
// (<= 0: unlimited), so MergeFanIn open files hold no more than the budget.
// Files created while the backing file exists keep its block size.
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

// Create opens a fresh, empty spill file, and the backing file in the pool's
// directory if no file is live.
func (p *Pool) Create() (*File, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.backing == nil {
		f, err := os.CreateTemp(p.dir, "perm-spill-*")
		if err != nil {
			return nil, fmt.Errorf("spill: create temp file: %w", err)
		}
		p.backing, p.blockSize, p.end = f, p.bufSize, 0
	}
	sf := &File{pool: p, f: p.backing, block: p.blockSize}
	sf.blocks = sf.first[:0] // most files are a few blocks
	if n := len(p.free); n > 0 && len(p.free[n-1]) == p.blockSize {
		sf.buf, p.free = p.free[n-1], p.free[:n-1]
	} else {
		sf.buf = make([]byte, p.blockSize)
	}
	p.live[sf] = struct{}{}
	p.files.Add(1)
	mSpillFiles.Inc()
	return sf, nil
}

// takeBlock returns the offset of a free block of the backing file.
func (p *Pool) takeBlock() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.freeBlocks); n > 0 {
		off := p.freeBlocks[n-1]
		p.freeBlocks = p.freeBlocks[:n-1]
		return off
	}
	off := p.end
	p.end += int64(p.blockSize)
	return off
}

// Cleanup closes every file still live, which removes the backing file, then
// drops the free buffers. Idempotent; safe to call concurrently with Close (a
// file is closed exactly once).
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
	p.free, p.freeBlocks = nil, nil
	p.mu.Unlock()
}

var errClosed = errors.New("spill: file is closed")

// File is one logical spill file: append length-framed records, then
// StartRead to rewind and stream them back, as often as needed. Its bytes
// lie in blocks of the pool's backing file, every block full but the last.
// Close gives the blocks and the buffer back to the pool. A File is
// single-goroutine, like the operators above it.
type File struct {
	pool *Pool
	// f is the backing file, kept by the file itself: once Cleanup closed it,
	// a read fails with an error.
	f      *os.File
	block  int     // the backing file's block size
	blocks []int64 // the offsets of the file's blocks, in file order
	first  [4]int64
	size   int64 // the bytes in the blocks
	// buf is the file's one buffer: buf[:w] are pending writes until the
	// first StartRead, buf[r:w] the read-ahead after it, which ends at the
	// file's byte pos.
	buf     []byte
	r, w    int
	pos     int64
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

// flush writes the pending bytes to a block of their own.
func (f *File) flush() error {
	if f.buf == nil {
		return errClosed
	}
	if f.w == 0 {
		return nil
	}
	off := f.pool.takeBlock()
	f.blocks = append(f.blocks, off)
	f.size += int64(f.w)
	_, err := f.f.WriteAt(f.buf[:f.w], off)
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
	if f.buf == nil {
		return errClosed
	}
	f.pool.bytes.Add(f.written)
	mSpillBytes.Add(uint64(f.written))
	f.written = 0
	f.r, f.w, f.pos = 0, 0, 0
	return nil
}

// fill moves the read-ahead to the front of the buffer and reads the file's
// next bytes behind it until the buffer is full or the file ends, one call per
// run of adjacent blocks; it fails with io.ErrUnexpectedEOF or io.EOF if the
// buffer then holds fewer than want bytes. Reads stop at the file's size, so
// a reused block never yields the bytes another file left in it.
func (f *File) fill(want int) error {
	if f.buf == nil {
		return errClosed
	}
	f.w = copy(f.buf, f.buf[f.r:f.w])
	f.r = 0
	bs := int64(f.block)
	for f.w < len(f.buf) && f.pos < f.size {
		room := min(int64(len(f.buf)-f.w), f.size-f.pos)
		i := int(f.pos / bs)
		off := f.blocks[i] + f.pos%bs
		n := bs - f.pos%bs
		for i++; n < room && i < len(f.blocks) && f.blocks[i] == f.blocks[i-1]+bs; i++ {
			n += bs
		}
		n = min(n, room)
		m, err := f.f.ReadAt(f.buf[f.w:f.w+int(n)], off)
		f.w, f.pos = f.w+m, f.pos+int64(m)
		if err == io.EOF {
			return io.ErrUnexpectedEOF // the backing file is shorter than the blocks
		}
		if err != nil {
			return err
		}
	}
	switch {
	case f.w >= want:
		return nil
	case f.w == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
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

// Close gives the file's blocks and buffer back to the pool; the last live
// file closes and removes the backing file. Idempotent.
func (f *File) Close() error {
	p := f.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	delete(p.live, f)
	// Last block first, so a file that takes them reads them in order.
	for i := len(f.blocks) - 1; i >= 0; i-- {
		p.freeBlocks = append(p.freeBlocks, f.blocks[i])
	}
	if len(f.buf) == p.bufSize && len(p.free) < MergeFanIn {
		p.free = append(p.free, f.buf)
	}
	f.buf, f.blocks, f.r, f.w = nil, nil, 0, 0
	// Bytes written but never read back (an interrupted run) still count as
	// spilled traffic.
	p.bytes.Add(f.written)
	mSpillBytes.Add(uint64(f.written))
	f.written = 0
	if len(p.live) > 0 {
		return nil
	}
	// Removed under the lock: a Create racing this one makes the next
	// backing file only once this one is gone from the directory.
	backing := p.backing
	p.backing, p.freeBlocks, p.end = nil, p.freeBlocks[:0], 0
	err := backing.Close()
	if rerr := os.Remove(backing.Name()); err == nil {
		err = rerr
	}
	return err
}
