package executor

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"perm/internal/spill"
	"perm/internal/value"
)

// MemTracker is the per-session memory governor for blocking operators: a
// byte budget (SET work_mem), the live/peak tracked byte counts, and the
// spill-file pool temp files come from. One tracker is shared by every
// statement of a session — concurrent use of the shared implicit session is
// legal, so the counters are atomics — and SHOW memory_status reads it.
//
// Tracking is cooperative: operators that buffer (sort, aggregation, set
// operations, DISTINCT) grow the tracker as they retain rows and release on
// Close; when the tracked total crosses the budget they spill to the pool
// instead of growing further. A nil tracker (executor tests, tools) means
// unlimited memory and no spilling.
type MemTracker struct {
	budget atomic.Int64 // bytes; <= 0 means unlimited
	cur    atomic.Int64
	peak   atomic.Int64
	pool   *spill.Pool
	free   freeSlabs
}

// NewMemTracker returns a tracker with the given byte budget (<= 0 =
// unlimited) spilling into dir ("" = the OS temp directory).
func NewMemTracker(budget int64, dir string) *MemTracker {
	m := &MemTracker{pool: spill.NewPool(dir)}
	m.SetBudget(budget)
	return m
}

// SetBudget changes the byte budget (SET work_mem), and with it the size of
// the spill buffers; <= 0 means unlimited.
func (m *MemTracker) SetBudget(n int64) {
	m.budget.Store(n)
	m.pool.SetBudget(n)
}

// Budget reports the byte budget.
func (m *MemTracker) Budget() int64 { return m.budget.Load() }

// SetDir redirects future spill files.
func (m *MemTracker) SetDir(dir string) { m.pool.SetDir(dir) }

// Dir reports the spill directory ("" = the OS temp directory).
func (m *MemTracker) Dir() string { return m.pool.Dir() }

// Pool exposes the spill-file pool.
func (m *MemTracker) Pool() *spill.Pool { return m.pool }

// Grow adds n tracked bytes.
func (m *MemTracker) Grow(n int64) {
	c := m.cur.Add(n)
	for {
		p := m.peak.Load()
		if c <= p || m.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Shrink releases n tracked bytes.
func (m *MemTracker) Shrink(n int64) { m.cur.Add(-n) }

// Over reports whether the tracked total exceeds the budget.
func (m *MemTracker) Over() bool {
	b := m.budget.Load()
	return b > 0 && m.cur.Load() > b
}

// Tracked reports the current tracked byte total.
func (m *MemTracker) Tracked() int64 { return m.cur.Load() }

// Peak reports the high-water tracked byte total.
func (m *MemTracker) Peak() int64 { return m.peak.Load() }

// Idle reports the bytes and the number of the slabs the session keeps
// between statements.
func (m *MemTracker) Idle() (bytes int64, slabs int) {
	m.free.mu.Lock()
	defer m.free.mu.Unlock()
	for _, n := range m.free.n {
		slabs += n
	}
	return m.free.bytes, slabs
}

// Cleanup force-removes every live spill file and drops the idle slabs
// (session teardown).
func (m *MemTracker) Cleanup() {
	if m != nil {
		m.pool.Cleanup()
		m.free.mu.Lock()
		m.free.lists, m.free.n, m.free.bytes = [slabKinds][slabsKept]idleSlab{}, [slabKinds]int{}, 0
		m.free.mu.Unlock()
	}
}

// A slab is the backing array of a blocking operator's accumulating slice: a
// key table's entries, arena and buckets, build rows, groups, states, counts,
// a sort buffer. Operators take slabs from the session and give them back at
// release, so a cached plan's next run gets what its last run held. A session
// keeps at most slabsKept idle slabs per element type and, under a positive
// work_mem, no more than work_mem idle bytes; the smallest go first.
const slabsKept, slabKinds, rowSlabs = 16, 8, 4

// slabTypes are the element types with a free list, numbered by position;
// those from rowSlabs on hold rows.
var slabTypes = [slabKinds]any{(*keyEntry)(nil), (*byte)(nil), (*int32)(nil), (*setCount)(nil),
	(*buildRow)(nil), (*aggGroup)(nil), (*aggState)(nil), (*sortKeyed)(nil)}

// slabKindOf numbers T's free list, -1 for a type without one.
func slabKindOf[T any]() int {
	for k, t := range slabTypes {
		if _, ok := t.(*T); ok {
			return k
		}
	}
	return -1
}

type idleSlab struct {
	p     unsafe.Pointer // the first element
	cap   int
	bytes int64
}

// freeSlabs is a session's idle slabs, shared by its statements and workers.
type freeSlabs struct {
	mu    sync.Mutex
	lists [slabKinds][slabsKept]idleSlab
	n     [slabKinds]int
	bytes int64
}

// take removes the best-fitting idle slab of kind k for n elements and returns
// it whole, nil for none. One over 2n is no fit: its holder would keep twice
// what it asked for.
func (f *freeSlabs) take(k, n int) (unsafe.Pointer, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := -1
	for i, s := range f.lists[k][:f.n[k]] {
		if s.cap >= n && s.cap <= 2*n && (j < 0 || s.cap < f.lists[k][j].cap) {
			j = i
		}
	}
	if j < 0 {
		return nil, 0
	}
	s := f.drop(k, j)
	return s.p, s.cap
}

func (f *freeSlabs) drop(k, i int) idleSlab {
	s, l := f.lists[k][i], &f.lists[k]
	f.n[k]--
	l[i], l[f.n[k]] = l[f.n[k]], idleSlab{}
	f.bytes -= s.bytes
	return s
}

// put keeps s, making room by dropping the smallest idle slabs: of its kind
// while its list is full (s itself when it is the smallest), and of any kind
// while the idle bytes would pass a positive budget.
func (f *freeSlabs) put(k int, s idleSlab, budget int64) {
	if budget > 0 && s.bytes > budget {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for full := f.n[k] == slabsKept; full || budget > 0 && f.bytes+s.bytes > budget; full = f.n[k] == slabsKept {
		vk, vi := -1, -1
		for kk := range f.lists {
			for i, v := range f.lists[kk][:f.n[kk]] {
				if (!full || kk == k) && (vi < 0 || v.bytes < f.lists[vk][vi].bytes) {
					vk, vi = kk, i
				}
			}
		}
		if full && f.lists[vk][vi].bytes >= s.bytes {
			return
		}
		f.drop(vk, vi)
	}
	f.lists[k][f.n[k]] = s
	f.n[k]++
	f.bytes += s.bytes
}

// takeSlab returns an empty slice with room for n elements: an idle slab of
// the session's when one fits, whole (a slab cut to n would keep its tail
// where no one counts it), else a new one of exactly n.
func takeSlab[T any](m *MemTracker, n int) []T {
	if k := slabKindOf[T](); m != nil && k >= 0 {
		if p, c := m.free.take(k, n); p != nil {
			return unsafe.Slice((*T)(p), c)[:0]
		}
	}
	return make([]T, 0, n)
}

// giveSlab gives s's slab to the session once its holder, which drops it for
// the nil returned, reads it no more. A slab of rows is cleared, so an idle
// slab keeps none alive; under stalerows the others are filled with 0xA5 —
// entries dead, heads, links and counts negative — for a read after return to
// show in a differential.
func giveSlab[T any](m *MemTracker, s []T) []T {
	if k := slabKindOf[T](); m != nil && k >= 0 && cap(s) > 0 {
		s = s[:cap(s)]
		p, size := unsafe.Pointer(unsafe.SliceData(s)), int64(cap(s))*int64(unsafe.Sizeof(s[0]))
		if k >= rowSlabs {
			clear(s)
		} else if poisonStaleRows {
			for b := unsafe.Slice((*byte)(p), size); len(b) > 0; b = b[1:] {
				b[0] = 0xA5
			}
		}
		m.free.put(k, idleSlab{p, cap(s), size}, m.Budget())
	}
	return nil
}

// roomFor returns s with capacity for n more elements, doubling a slice that
// is full. The buffers a whole input drains into end up thousands of elements
// long, where append's own growth has slowed to 1.25× and a slice that ends
// at n elements has allocated some 4.5n on the way; doubling allocates 3n on
// average. A slab grows through the session's free list, and goes back to it.
func roomFor[T any](m *MemTracker, s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	if m == nil || slabKindOf[T]() < 0 {
		return slices.Grow(s, max(n, len(s)))
	}
	t := append(takeSlab[T](m, len(s)+max(n, len(s))), s...)
	giveSlab(m, s)
	return t
}

// valueFixedBytes is the in-memory footprint of one Value struct; string
// payloads add their length on top.
const valueFixedBytes = int64(unsafe.Sizeof(value.Value{}))

// rowSliceBytes is the slice-header overhead charged per retained row.
const rowSliceBytes = int64(unsafe.Sizeof(value.Row{}))

// The hash operators charge a key (a keyTable keeps up to two bucket heads per
// entry) and a payload slot at their size times 11/8: a slab that grows by
// doubling holds, averaged over the sizes it can end at, 2 ln 2 times its use.
const (
	keyEntryBytes = int64(unsafe.Sizeof(keyEntry{})+2*unsafe.Sizeof(int32(0))) * 11 / 8
	buildRowBytes = int64(unsafe.Sizeof(buildRow{})) * 11 / 8
	aggGroupBytes = int64(unsafe.Sizeof(aggGroup{})) * 11 / 8
	aggStateBytes = int64(unsafe.Sizeof(aggState{})) * 11 / 8
	setCountBytes = int64(unsafe.Sizeof(setCount{})) * 11 / 8
)

const sortKeyedBytes = int64(unsafe.Sizeof(sortKeyed{})) // a sort buffer's element

// rowBytes estimates the heap footprint of one retained row — the unit of
// memory accounting for every blocking operator. It deliberately counts what
// the row itself holds (headers, value structs, string payloads), not
// sharing: an over-estimate only spills earlier.
func rowBytes(row value.Row) int64 {
	n := rowSliceBytes + valueFixedBytes*int64(len(row))
	for i := range row {
		n += int64(len(row[i].Str()))
	}
	return n
}

// memAcct is one operator's slice of the session tracker: every Grow is
// remembered so Close (or a spill handoff) releases exactly what this
// operator holds, keeping the shared counter drift-free across statements.
// It reads the tracker through the statement context so instrumented runs
// (EXPLAIN ANALYZE, SET trace) can attribute bytes to ctx.owner — the stats
// node of the operator currently executing — without widening the account.
type memAcct struct {
	ctx  *Context
	held int64
}

// mem returns the session tracker, or nil when unaccounted.
func (a *memAcct) mem() *MemTracker {
	if a.ctx == nil {
		return nil
	}
	return a.ctx.Mem
}

// grow adds n bytes to the operator's tracked total.
func (a *memAcct) grow(n int64) {
	m := a.mem()
	if m == nil {
		return
	}
	a.held += n
	m.Grow(n)
	if o := a.ctx.owner; o != nil {
		o.MemCur += n
		if o.MemCur > o.MemPeak {
			o.MemPeak = o.MemCur
		}
	}
}

// over reports whether the session is past its budget.
func (a *memAcct) over() bool {
	m := a.mem()
	return m != nil && m.Over()
}

// release returns n of the operator's held bytes (a batch handed off to
// disk). All accounting flows through memAcct so the shared session counter
// stays drift-free.
func (a *memAcct) release(n int64) {
	m := a.mem()
	if m != nil && n != 0 {
		a.held -= n
		m.Shrink(n)
		if o := a.ctx.owner; o != nil {
			o.MemCur -= n
		}
	}
}

// releaseAll returns every byte this operator holds.
func (a *memAcct) releaseAll() {
	m := a.mem()
	if m != nil && a.held != 0 {
		m.Shrink(a.held)
		if o := a.ctx.owner; o != nil {
			o.MemCur -= a.held
		}
		a.held = 0
	}
}

// spillable reports whether spilling is possible at all: a tracker with a
// positive budget exists.
func (a *memAcct) spillable() bool {
	m := a.mem()
	return m != nil && m.Budget() > 0
}

// SizeHints is a cached plan's memory of its last run: per site that drains a
// whole input (result drain, join build, groups, DISTINCT and set operation
// keys, sort buffer) the rows and key bytes it last held in memory — all of
// them, or what it held when it first overflowed work_mem — so the next Open
// sizes its slabs once: capacity, never a result. Concurrent-safe.
type SizeHints struct {
	mu    sync.Mutex
	slots []*sizeSlot // in build order
}

// sizeSlot is one site's hint.
type sizeSlot struct{ rows, keyBytes atomic.Int64 }

// slotCursor hands a build its slots in order; nil ones size and record nothing.
type slotCursor struct {
	h *SizeHints
	n int
}

func (c *slotCursor) next() *sizeSlot {
	if c == nil || c.h == nil {
		return nil
	}
	c.h.mu.Lock()
	defer c.h.mu.Unlock()
	if c.n == len(c.h.slots) {
		c.h.slots = append(c.h.slots, new(sizeSlot))
	}
	c.n++
	return c.h.slots[c.n-1]
}

// record remembers the counts a site finished with in memory, or held when it
// first spilled.
func (s *sizeSlot) record(rows, keyBytes int) {
	if s != nil {
		s.rows.Store(int64(rows))
		s.keyBytes.Store(int64(keyBytes))
	}
}

// size returns the rows and key bytes to make room for: the last run's,
// scaled down so that rows of perRow bytes and the key bytes fit in work_mem.
func (s *sizeSlot) size(ctx *Context, perRow int64) (rows, keyBytes int) {
	if s == nil {
		return 0, 0
	}
	r, k := s.rows.Load(), s.keyBytes.Load()
	if ctx.Mem != nil {
		if b, need := ctx.Mem.Budget(), r*perRow+k; b > 0 && need > b {
			f := float64(b) / float64(need)
			r, k = int64(float64(r)*f), int64(float64(k)*f)
		}
	}
	return int(r), int(k)
}
