package executor

import (
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
}

// NewMemTracker returns a tracker with the given byte budget (<= 0 =
// unlimited) spilling into dir ("" = the OS temp directory).
func NewMemTracker(budget int64, dir string) *MemTracker {
	m := &MemTracker{pool: spill.NewPool(dir)}
	m.budget.Store(budget)
	return m
}

// SetBudget changes the byte budget (SET work_mem); <= 0 means unlimited.
func (m *MemTracker) SetBudget(n int64) { m.budget.Store(n) }

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

// Cleanup force-removes every live spill file (session teardown).
func (m *MemTracker) Cleanup() {
	if m != nil {
		m.pool.Cleanup()
	}
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
