package storage

import (
	"perm/internal/value"
)

// This file is the multi-version half of the storage engine: row versions,
// snapshot visibility, snapshot pinning, and the version vacuum. Versions
// are created on two write paths: a primary's DML, every statement of which
// is a transaction decided and committed in txn.go, and the apply path
// (Store.ApplyChange in storage.go), which replays change records from a
// primary's feed, the WAL or a snapshot. Both stamp through Table.apply;
// everything here is about reading versions consistently and reclaiming
// them safely.

// rowVersion is one version of one row. A table slot points at the newest
// version; older versions hang off next, newest first. created is the LSN of
// the change that produced the version (0 = loaded from a snapshot, visible
// to everyone); deleted is the LSN of the change that superseded or removed
// it (0 = live). Fields are stamped under the owning table's mu (exclusive)
// and read either under mu (readers) or under the table's writeMu (writers,
// which excludes all stamping), so none of them need atomics.
type rowVersion struct {
	row     value.Row
	created uint64
	deleted uint64
	next    *rowVersion
}

// visibleAt returns the version of this slot's row visible at snapshot LSN
// snap, or nil when the row does not exist at that snapshot. The chain is
// newest-first and created LSNs decrease along it, so the first version old
// enough decides: it is visible unless a change at or before snap deleted it.
func (v *rowVersion) visibleAt(snap uint64) *rowVersion {
	for w := v; w != nil; w = w.next {
		if w.created > snap {
			continue
		}
		if w.deleted != 0 && w.deleted <= snap {
			return nil
		}
		return w
	}
	return nil
}

// matRows is one materialized read view of a table, cached on the table and
// shared zero-copy by every reader whose snapshot it matches. mod is the
// table's lastMod LSN at materialization time: any snapshot at or past it
// sees exactly these rows, because nothing in the table changed after mod.
type matRows struct {
	mod  uint64
	rows []value.Row
}

// SnapshotAt materializes the rows visible at snapshot LSN snap, in slot
// (insertion) order — updated rows keep their position, exactly as the
// pre-MVCC in-place heap ordered them. snap == 0 means "now": the store's
// current visible LSN. The returned slice and its rows are immutable and may
// be shared between callers; a steady-state read (no write to this table
// since the snapshot) is served from the table's materialization cache
// without copying anything.
func (t *Table) SnapshotAt(snap uint64) []value.Row {
	t.mu.RLock()
	if snap == 0 {
		snap = t.store.visible.Load()
	}
	current := t.lastMod <= snap
	if current {
		if c := t.cache.Load(); c != nil && c.mod == t.lastMod {
			t.mu.RUnlock()
			return c.rows
		}
	}
	out := make([]value.Row, 0, len(t.slots))
	for _, v := range t.slots {
		if w := v.visibleAt(snap); w != nil {
			out = append(out, w.row)
		}
	}
	mod := t.lastMod
	t.mu.RUnlock()
	if current {
		t.cache.Store(&matRows{mod: mod, rows: out})
	}
	return out
}

// Snapshot returns the rows currently visible — SnapshotAt at the store's
// visible position. Kept as the zero-argument form the executor, ANALYZE and
// persistence always used; the aliasing contract is unchanged (callers must
// treat the slice and its rows as read-only).
func (t *Table) Snapshot() []value.Row {
	return t.SnapshotAt(0)
}

// RowCount returns the number of rows currently visible, materializing
// them (the reads after an engine write find them cached).
func (t *Table) RowCount() int {
	return len(t.SnapshotAt(0))
}

// VersionCount reports live slots and total resident versions (diagnostics:
// SHOW mvcc_status sums it across tables).
func (t *Table) VersionCount() (slots, versions int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slots = len(t.slots)
	for _, v := range t.slots {
		for w := v; w != nil; w = w.next {
			versions++
		}
	}
	return slots, versions
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
	if s.pins == nil {
		s.pins = make(map[uint64]int)
	}
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
// minimum pinned LSN, or the current visible position when nothing is
// pinned. Versions dead at or before the horizon are unreachable by every
// present and future reader and may be vacuumed.
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
// horizon, and trims version chains below the newest version the horizon can
// still reach. It returns the number of versions removed. Vacuum never
// blocks readers for longer than one table's slot walk and takes each
// table's writer lock in turn, so it interleaves with normal DML.
//
// Version structs themselves are never copied or reused — an open
// transaction holds pointers to the versions it read, and commit-time
// conflict validation depends on those identities staying meaningful. The
// kept slots keep their order, so a slot only ever moves down: validation
// looks for a version from the slot it was read in downwards.
func (s *Store) Vacuum() int {
	h := s.snapshotHorizon()
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	removed := 0
	for _, t := range tables {
		removed += t.vacuum(h)
	}
	s.vacuumRuns.Add(1)
	s.vacuumRemoved.Add(uint64(removed))
	return removed
}

func (t *Table) vacuum(h uint64) int {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	kept := t.slots[:0]
	for _, v := range t.slots {
		if v.deleted != 0 && v.deleted <= h {
			// The newest version is dead at the horizon, so every older one
			// is too (they were superseded even earlier): no reader at or
			// past the horizon can see any of them. Drop the whole slot.
			for w := v; w != nil; w = w.next {
				removed++
			}
			continue
		}
		kept = append(kept, v)
		// Find the newest version the horizon can reach; everything below it
		// is unreachable by any pinnable snapshot and is cut loose.
		w := v
		for w != nil && w.created > h {
			w = w.next
		}
		if w != nil && w.next != nil {
			for x := w.next; x != nil; x = x.next {
				removed++
			}
			w.next = nil
		}
	}
	for i := len(kept); i < len(t.slots); i++ {
		t.slots[i] = nil
	}
	t.slots = kept
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
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	for _, t := range tables {
		sl, vs := t.VersionCount()
		st.Slots += sl
		st.Versions += vs
	}
	return st
}
