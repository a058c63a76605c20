package storage

import (
	"math"
	"sync/atomic"

	"perm/internal/value"
)

// This file is the multi-version half of the storage engine: row versions,
// the heap that holds them, the cursor that reads them at a snapshot,
// snapshot pinning, and the version vacuum. Versions are stamped through
// Table.apply (storage.go) by transactions (txn.go) and the apply path.

// rowVersion is one version of one row. A heap slot points at the newest
// version; older ones hang off next, newest first. created is the LSN of the
// change that produced the version (0 = loaded from a snapshot) and row its
// image: both are immutable once published. deleted is the LSN of the change
// that superseded or removed it (0 = live). Writers stamp deleted and vacuum
// cuts next under writeMu while readers load them with no lock: atomics.
type rowVersion struct {
	row     value.Row
	created uint64
	deleted atomic.Uint64
	next    atomic.Pointer[rowVersion]
}

// visibleAt returns the version of this slot's row visible at snapshot LSN
// snap, or nil when the row does not exist at that snapshot. The chain is
// newest-first and created LSNs decrease along it, so the first version old
// enough decides: it is visible unless a change at or before snap deleted it.
func (v *rowVersion) visibleAt(snap uint64) *rowVersion {
	for w := v; w != nil; w = w.next.Load() {
		if w.created > snap {
			continue
		}
		if d := w.deleted.Load(); d != 0 && d <= snap {
			return nil
		}
		return w
	}
	return nil
}

// chunkSlots is the number of slots in one heap chunk.
const chunkSlots = 512

// chunk is a fixed run of heap slots and its zone: per column, a closed
// range [lo, hi] holding every INT value any version installed in the chunk
// has in that column. A writer widens the zone under writeMu before it
// stores the version, and a zone never narrows, so it covers every version a
// pinned snapshot can see in the chunk; a scan that wants only values outside
// it skips the chunk (Cursor.NextIn). A column that is not INT keeps the full
// range, and a chunk with no INT value in a column has lo > hi there. Zones
// are neither logged nor saved: replay, restore and vacuum widen them again
// as they install versions.
type chunk struct {
	slots [chunkSlots]atomic.Pointer[rowVersion]
	zone  []zoneRange
}

type zoneRange struct{ lo, hi atomic.Int64 }

// newChunk makes an empty chunk for a table whose INT columns ints marks.
func newChunk(ints []bool) *chunk {
	c := &chunk{zone: make([]zoneRange, len(ints))}
	for i, isInt := range ints {
		if isInt {
			c.zone[i].lo.Store(math.MaxInt64)
			c.zone[i].hi.Store(math.MinInt64)
		} else {
			c.zone[i].lo.Store(math.MinInt64)
			c.zone[i].hi.Store(math.MaxInt64)
		}
	}
	return c
}

// widen makes the zone cover row. A value that is neither NULL nor an INT
// (never in an INT column: images are checked before they are installed)
// widens its column to the full range. Callers hold writeMu.
func (c *chunk) widen(row value.Row) {
	for i := range min(len(row), len(c.zone)) {
		if row[i].IsNull() {
			continue
		}
		lo, ok := row[i].AsInt()
		hi := lo
		if !ok {
			lo, hi = math.MinInt64, math.MaxInt64
		}
		z := &c.zone[i]
		if lo < z.lo.Load() {
			z.lo.Store(lo)
		}
		if hi > z.hi.Load() {
			z.hi.Store(hi)
		}
	}
}

// admits reports whether the chunk may hold a row inside every bound.
func (c *chunk) admits(bounds []Bound) bool {
	for _, b := range bounds {
		if b.Lo > b.Hi {
			return false
		}
		if b.Col < 0 || b.Col >= len(c.zone) {
			continue
		}
		if z := &c.zone[b.Col]; z.lo.Load() > b.Hi || z.hi.Load() < b.Lo {
			return false
		}
	}
	return true
}

// heap is one published list of a table's slots: slot i is
// chunks[i/chunkSlots].slots[i%chunkSlots], and slots [0, n) are in use.
// Writers, under writeMu, fill the tail chunk and then advance n; a full
// tail, or a vacuum that drops slots, publishes a new heap, and a reader that
// loaded this one finishes on it. Chunks are never compacted in place. ints
// marks the table's INT columns, the ones its zones track.
type heap struct {
	chunks []*chunk
	n      atomic.Int64
	ints   []bool
}

func (h *heap) slot(i int) *atomic.Pointer[rowVersion] {
	return &h.chunks[uint(i)/chunkSlots].slots[uint(i)%chunkSlots]
}

// push installs v in the next free slot and returns the heap that holds it:
// h, or when h is full a new heap with one more chunk, for the caller to
// publish. The chunk's zone is widened by every version of v's chain first
// (vacuum pushes whole kept chains). Callers hold writeMu.
func (h *heap) push(v *rowVersion) *heap {
	n := int(h.n.Load())
	if n == len(h.chunks)*chunkSlots {
		grown := &heap{chunks: append(h.chunks[:len(h.chunks):len(h.chunks)], newChunk(h.ints)), ints: h.ints}
		grown.n.Store(int64(n))
		h = grown
	}
	c := h.chunks[n/chunkSlots]
	for w := v; w != nil; w = w.next.Load() {
		c.widen(w.row)
	}
	c.slots[n%chunkSlots].Store(v)
	h.n.Store(int64(n + 1))
	return h
}

// Cursor yields the rows one reader sees, in slot order, from the heap it
// loaded when it opened: the versions visible at its snapshot LSN in its
// range of positions, with no lock and no copy. A transaction's cursor
// overlays its buffered updates and deletes, and its positions from n on are
// its buffered inserts. Split cuts a cursor into contiguous ranges.
type Cursor struct {
	h        *heap
	snap     uint64
	pos, end int
	n        int       // slots of h covered; later positions index tt.ins
	tt       *txnTable // the transaction's buffered writes; nil when none
}

// Scan opens a cursor over the rows visible at snapshot LSN snap (0 = the
// store's visible position now). The caller keeps snap pinned while it reads,
// so vacuum leaves the versions it can see in place.
func (t *Table) Scan(snap uint64) Cursor {
	if snap == 0 {
		snap = t.store.visible.Load()
	}
	h := t.heap.Load()
	n := int(h.n.Load())
	return Cursor{h: h, snap: snap, end: n, n: n}
}

// Next returns the next row, or nil at the end of the range. Rows are
// immutable and may be shared.
func (c *Cursor) Next() value.Row {
	if row := c.Head(); row != nil {
		return row
	}
	tg, _ := c.next()
	return tg.row
}

// Head returns the next row when it is its slot's newest version, visible
// and live, and the cursor has no overlay — nearly every row of a scan — and
// nil otherwise, leaving the rest to Next. It is small enough to inline into
// a scan's loop, which a call per row measurably slows.
func (c *Cursor) Head() value.Row {
	if c.pos < c.end && c.tt == nil {
		if w := c.h.slot(c.pos).Load(); w.created <= c.snap && w.deleted.Load() == 0 {
			c.pos++
			return w.row
		}
	}
	return nil
}

// Bound is the closed range [Lo, Hi] of INT values in column Col; Lo > Hi
// is empty.
type Bound struct {
	Col    int
	Lo, Hi int64
}

// Prune is what a reader tells NextIn it wants: rows whose INT columns lie
// inside every bound. Skipped counts the chunks the cursor skipped for it.
type Prune struct {
	Bounds  []Bound
	Skipped int
}

// NextIn is Next for a reader that wants only rows inside p's bounds: at each
// chunk boundary it skips the chunks whose zones rule such rows out. It may
// still return rows outside the bounds. It skips nothing while the cursor's
// transaction has buffered updates or deletes of the table: their images are
// in no zone.
func (c *Cursor) NextIn(p *Prune) value.Row {
	if c.pos%chunkSlots != 0 {
		if row := c.Head(); row != nil {
			return row
		}
	}
	return c.nextIn(p)
}

func (c *Cursor) nextIn(p *Prune) value.Row {
	for c.pos < c.end {
		if c.pos%chunkSlots == 0 {
			c.skip(p)
		}
		if row := c.Head(); row != nil {
			return row
		}
		// The slow path, stopping at the next chunk boundary.
		end := c.end
		c.end = min(end, (c.pos/chunkSlots+1)*chunkSlots)
		tg, ok := c.next()
		c.end = end
		if ok {
			return tg.row
		}
	}
	return nil
}

// skip moves the cursor, at a chunk boundary, past the chunks whose zones
// admit no row inside p's bounds.
func (c *Cursor) skip(p *Prune) {
	if c.tt != nil && len(c.tt.mods) > 0 {
		return
	}
	for c.pos%chunkSlots == 0 && c.pos < min(c.end, c.n) && !c.h.chunks[c.pos/chunkSlots].admits(p.Bounds) {
		c.pos = min(c.pos+chunkSlots, c.end, c.n)
		p.Skipped++
	}
}

// Chunks is the number of heap chunks the cursor's remaining slots span.
func (c *Cursor) Chunks() int {
	end := min(c.end, c.n)
	if c.pos >= end {
		return 0
	}
	return (end-1)/chunkSlots - c.pos/chunkSlots + 1
}

// next returns the next row with the version it was read from and its slot
// (for a buffered insert: no version, and its index in tt.ins).
func (c *Cursor) next() (target, bool) {
	for c.pos < c.end {
		i := c.pos
		c.pos++
		if i >= c.n {
			if r := c.tt.ins[i-c.n]; r != nil {
				return target{slot: i - c.n, row: r}, true
			}
			continue
		}
		w := c.h.slot(i).Load().visibleAt(c.snap)
		if w == nil {
			continue
		}
		tg := target{v: w, slot: i, row: w.row}
		if c.tt != nil {
			if m, ok := c.tt.mods[w]; ok {
				tg.row = m.row
			}
		}
		if tg.row != nil {
			return tg, true
		}
	}
	return target{}, false
}

// Pos is the position of the row the cursor returned last: its slot in the
// cursor's heap, or for a transaction's buffered insert a position past the
// heap's slots. Vacuum never renumbers the heap a cursor holds.
func (c *Cursor) Pos() int { return c.pos - 1 }

// at returns what next returns for position i alone, or false when i is
// outside the cursor's positions or holds no row its reader sees.
func (c *Cursor) at(i int) (target, bool) {
	if i < 0 || i >= c.end {
		return target{}, false
	}
	one := *c
	one.pos, one.end = i, i+1
	return one.next()
}

// Len is the number of positions left in the cursor's range: an upper bound
// on the rows it yields.
func (c *Cursor) Len() int { return c.end - c.pos }

// Split cuts the cursor's range into deg contiguous cursors in order (the
// last may be short; trailing ones may be empty when deg > Len).
func (c Cursor) Split(deg int) []Cursor {
	parts := make([]Cursor, deg)
	per := (c.Len() + deg - 1) / deg
	for w := range parts {
		parts[w] = c
		parts[w].pos = min(c.pos+w*per, c.end)
		parts[w].end = min(c.pos+(w+1)*per, c.end)
	}
	return parts
}

// Snapshot returns a copy of the rows currently visible, in slot order. The
// engine never calls it: its readers walk a Cursor.
func (t *Table) Snapshot() []value.Row {
	snap := t.store.PinSnapshot()
	defer t.store.UnpinSnapshot(snap)
	c := t.Scan(snap)
	out := make([]value.Row, 0, c.Len())
	for r := c.Next(); r != nil; r = c.Next() {
		out = append(out, r)
	}
	return out
}

// RowCount returns the number of rows currently visible.
func (t *Table) RowCount() int {
	snap := t.store.PinSnapshot()
	defer t.store.UnpinSnapshot(snap)
	n, c := 0, t.Scan(snap)
	for c.Next() != nil {
		n++
	}
	return n
}

// VersionCount reports the slots in use and the versions resident in them
// (diagnostics: SHOW mvcc_status sums it across tables).
func (t *Table) VersionCount() (slots, versions int) {
	h := t.heap.Load()
	slots = int(h.n.Load())
	for i := 0; i < slots; i++ {
		versions += chainLen(h.slot(i).Load())
	}
	return slots, versions
}

// chainLen counts the versions from v down its chain.
func chainLen(v *rowVersion) int {
	n := 0
	for ; v != nil; v = v.next.Load() {
		n++
	}
	return n
}

// --- snapshot pinning -----------------------------------------------------------

// PinSnapshot registers a reader at the store's current visible LSN and
// returns that LSN. The registration and the read of the visible position
// happen under one lock, so the vacuum horizon can never advance past a
// snapshot between a reader choosing it and the pin landing. Every pin must
// be paired with exactly one UnpinSnapshot.
func (s *Store) PinSnapshot() uint64 {
	s.pinMu.Lock()
	lsn := s.visible.Load()
	s.pins[lsn]++
	s.pinMu.Unlock()
	return lsn
}

// UnpinSnapshot releases one pin taken at lsn.
func (s *Store) UnpinSnapshot(lsn uint64) {
	s.pinMu.Lock()
	if n := s.pins[lsn]; n > 1 {
		s.pins[lsn] = n - 1
	} else {
		delete(s.pins, lsn)
	}
	s.pinMu.Unlock()
}

// snapshotHorizon is the oldest snapshot any reader may still be using: the
// minimum pinned LSN, or the visible position when nothing is pinned.
func (s *Store) snapshotHorizon() uint64 {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	h := s.visible.Load()
	for lsn := range s.pins {
		if lsn < h {
			h = lsn
		}
	}
	return h
}

// PinnedSnapshots reports how many snapshot pins are outstanding.
func (s *Store) PinnedSnapshots() int {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	n := 0
	for _, c := range s.pins {
		n += c
	}
	return n
}

// --- vacuum ---------------------------------------------------------------------

// Vacuum reclaims row versions no reader can see anymore: for every table it
// drops slots whose newest version was deleted at or before the snapshot
// horizon, and trims chains below the newest version the horizon can reach.
// It returns the number of versions removed. It takes each table's writer
// lock in turn and never blocks a reader: dropping slots publishes a
// compacted heap of fresh chunks, and a reader on the old one finishes on it.
// Versions are never copied (an open transaction's conflict validation
// holds their identities), and kept slots keep their order, so a slot only
// ever moves down.
func (s *Store) Vacuum() int {
	h := s.snapshotHorizon()
	removed := 0
	for _, t := range s.tableList() {
		removed += t.vacuum(h)
	}
	s.vacuumRuns.Add(1)
	s.vacuumRemoved.Add(uint64(removed))
	return removed
}

func (t *Table) vacuum(h uint64) int {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	old := t.heap.Load()
	removed := 0
	var compacted *heap // built from fresh chunks once the first slot drops
	for i := range int(old.n.Load()) {
		v := old.slot(i).Load()
		if d := v.deleted.Load(); d != 0 && d <= h {
			// The newest version is dead at the horizon, so every older one
			// is too (they were superseded even earlier): no reader at or
			// past the horizon can see any of them. Drop the whole slot.
			if compacted == nil {
				compacted = &heap{ints: old.ints}
				for j := range i {
					compacted = compacted.push(old.slot(j).Load())
				}
			}
			removed += chainLen(v)
			continue
		}
		if compacted != nil {
			compacted = compacted.push(v)
		}
		// Find the newest version the horizon can reach; everything below it
		// is unreachable by any pinnable snapshot and is cut loose.
		w := v
		for w != nil && w.created > h {
			w = w.next.Load()
		}
		if w != nil && w.next.Load() != nil {
			removed += chainLen(w.next.Load())
			w.next.Store(nil)
		}
	}
	if compacted != nil {
		t.heap.Store(compacted)
	}
	return removed
}

// MVCCStatus is the observable multi-version state behind SHOW mvcc_status.
type MVCCStatus struct {
	// VisibleLSN is the store's published snapshot position; HorizonLSN the
	// oldest snapshot still pinned (== VisibleLSN when nothing is pinned).
	VisibleLSN, HorizonLSN uint64
	// Pins counts outstanding snapshot pins (statements and transactions).
	Pins int
	// Slots and Versions count resident row slots and row versions across
	// all tables; Versions - live rows is the vacuum backlog.
	Slots, Versions int
	// VacuumRuns and VacuumRemoved count vacuum passes and the versions they
	// reclaimed; WriteConflicts counts transactions aborted by
	// first-committer-wins validation.
	VacuumRuns, VacuumRemoved, WriteConflicts uint64
}

// MVCCStatus reports the store's multi-version counters.
func (s *Store) MVCCStatus() MVCCStatus {
	st := MVCCStatus{
		VisibleLSN:     s.visible.Load(),
		HorizonLSN:     s.snapshotHorizon(),
		Pins:           s.PinnedSnapshots(),
		VacuumRuns:     s.vacuumRuns.Load(),
		VacuumRemoved:  s.vacuumRemoved.Load(),
		WriteConflicts: s.conflicts.Load(),
	}
	for _, t := range s.tableList() {
		sl, vs := t.VersionCount()
		st.Slots += sl
		st.Versions += vs
	}
	return st
}

// tableList returns the store's tables.
func (s *Store) tableList() []*Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	return tables
}
