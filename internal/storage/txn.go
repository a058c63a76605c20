package storage

import (
	"errors"
	"fmt"
	"sort"

	"perm/internal/repl"
	"perm/internal/value"
)

// ErrWriteConflict is the typed error a transaction commit fails with when
// first-committer-wins validation finds that another writer changed or
// removed a row this transaction also wrote. The losing transaction is
// rolled back; the caller retries it from BEGIN. The engine re-exports it
// and the network server maps it to a wire error code, so it stays typed
// all the way to database/sql callers.
var ErrWriteConflict = errors.New("storage: write conflict: row changed by a concurrent transaction, retry the transaction")

// errTxnDone guards use-after-finish.
var errTxnDone = errors.New("storage: transaction is already committed or rolled back")

// Txn is a snapshot-isolation transaction: every read sees exactly the
// versions visible at the snapshot LSN pinned at Begin (plus the
// transaction's own buffered writes), and writes are buffered until Commit,
// which validates first-committer-wins — if any row this transaction
// deleted or updated was meanwhile changed by another committed writer, the
// commit fails with ErrWriteConflict and nothing is applied.
//
// A Txn is single-goroutine on its write side (the owning session executes
// one statement at a time); concurrent readers of the same Txn (parallel
// query workers) are safe because they only read the buffered state.
type Txn struct {
	store *Store
	snap  uint64
	done  bool
	tabs  map[*Table]*txnTable
}

// txnTable is one table's buffered effects.
type txnTable struct {
	// mods maps a row version this transaction read (the version visible at
	// its snapshot) to what the transaction did to it. The version pointer
	// is the conflict-detection token: at commit it must still be its
	// slot's newest, live version, or someone else changed the row first.
	mods map[*rowVersion]*txnMod
	// ins are rows this transaction inserted; entries deleted again by the
	// same transaction are nil.
	ins []value.Row
}

// txnMod is a buffered delete (del) or update (replacement row) of one
// pre-existing row.
type txnMod struct {
	del bool
	row value.Row
}

// Begin opens a snapshot-isolation transaction pinned at the store's
// current visible LSN. The pin also holds the vacuum horizon: versions the
// transaction can see stay resident until it finishes.
func (s *Store) Begin() *Txn {
	return &Txn{store: s, snap: s.PinSnapshot(), tabs: make(map[*Table]*txnTable)}
}

// Snap returns the transaction's snapshot LSN.
func (x *Txn) Snap() uint64 { return x.snap }

// Store returns the store the transaction began on. Sessions check it before
// attaching the transaction to a statement: after a replica re-bootstrap
// swaps the database's store, a transaction pinned on the old store must not
// read the new one's heaps.
func (x *Txn) Store() *Store { return x.store }

// Done reports whether the transaction has committed or rolled back.
func (x *Txn) Done() bool { return x.done }

func (x *Txn) table(t *Table) *txnTable {
	tt := x.tabs[t]
	if tt == nil {
		tt = &txnTable{mods: make(map[*rowVersion]*txnMod)}
		x.tabs[t] = tt
	}
	return tt
}

// versionRow pairs a version the transaction can see with the row image the
// transaction sees for it (the buffered replacement, when it updated it).
type versionRow struct {
	v   *rowVersion
	row value.Row
}

// visiblePairs materializes the versions visible at the transaction's
// snapshot with its own modifications applied, in slot order. Own inserts
// are NOT included — callers overlay tt.ins themselves, because inserts are
// addressed by index, not by version.
func (x *Txn) visiblePairs(t *Table) []versionRow {
	tt := x.tabs[t]
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]versionRow, 0, len(t.slots))
	for _, v := range t.slots {
		w := v.visibleAt(x.snap)
		if w == nil {
			continue
		}
		if tt != nil {
			if m, ok := tt.mods[w]; ok {
				if m.del {
					continue
				}
				out = append(out, versionRow{v: w, row: m.row})
				continue
			}
		}
		out = append(out, versionRow{v: w, row: w.row})
	}
	return out
}

// TableRows returns the rows of t as this transaction sees them: the
// snapshot image with buffered updates and deletes applied and buffered
// inserts appended. The executor's scans read transactions through this.
func (x *Txn) TableRows(t *Table) []value.Row {
	tt := x.tabs[t]
	if tt == nil || (len(tt.mods) == 0 && len(tt.ins) == 0) {
		// No writes to this table: the plain snapshot read, sharing the
		// table's materialization cache with every other reader.
		return t.SnapshotAt(x.snap)
	}
	pairs := x.visiblePairs(t)
	out := make([]value.Row, 0, len(pairs)+len(tt.ins))
	for _, p := range pairs {
		out = append(out, p.row)
	}
	for _, r := range tt.ins {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Insert buffers rows for insertion at commit, after type checking.
func (x *Txn) Insert(t *Table, rows []value.Row) (int, error) {
	if x.done {
		return 0, errTxnDone
	}
	checked := make([]value.Row, len(rows))
	for i, r := range rows {
		c, err := t.checkRow(r)
		if err != nil {
			return 0, fmt.Errorf("row %d: %v", i+1, err)
		}
		checked[i] = c
	}
	if len(checked) == 0 {
		return 0, nil
	}
	tt := x.table(t)
	tt.ins = append(tt.ins, checked...)
	return len(checked), nil
}

// Delete buffers the deletion of every visible row matching pred (all rows
// when pred is nil), including rows this transaction itself inserted or
// updated. pred runs outside all storage locks and may query any table.
func (x *Txn) Delete(t *Table, pred func(value.Row) (bool, error)) (int, error) {
	return x.rewrite(t, pred, nil)
}

// Update buffers the replacement of every visible row matching pred with
// fn's result, after type checking. Rows this transaction inserted are
// rewritten in place. Like Delete's, both callbacks run outside all storage
// locks.
func (x *Txn) Update(t *Table, pred func(value.Row) (bool, error), fn func(value.Row) (value.Row, error)) (int, error) {
	return x.rewrite(t, pred, fn)
}

// rewrite buffers, for every row of t the transaction sees that pred
// matches, fn's type-checked result as its replacement — or, when fn is
// nil, its deletion — and reports how many rows matched.
func (x *Txn) rewrite(t *Table, pred func(value.Row) (bool, error), fn func(value.Row) (value.Row, error)) (int, error) {
	if x.done {
		return 0, errTxnDone
	}
	// next reports whether row matches and, for an update, its replacement.
	next := func(row value.Row) (bool, value.Row, error) {
		if pred != nil {
			if ok, err := pred(row); err != nil || !ok {
				return false, nil, err
			}
		}
		if fn == nil {
			return true, nil, nil
		}
		nr, err := fn(row)
		if err != nil {
			return false, nil, err
		}
		nr, err = t.checkRow(nr)
		return err == nil, nr, err
	}
	pairs := x.visiblePairs(t)
	tt := x.table(t)
	n := 0
	for _, p := range pairs {
		ok, nr, err := next(p.row)
		if err != nil {
			return 0, err
		}
		if ok {
			tt.mods[p.v] = &txnMod{del: fn == nil, row: nr}
			n++
		}
	}
	for i, r := range tt.ins {
		if r == nil {
			continue
		}
		ok, nr, err := next(r)
		if err != nil {
			return 0, err
		}
		if ok {
			tt.ins[i] = nr
			n++
		}
	}
	return n, nil
}

// commitTable is one table's validated, slot-ordered commit plan.
type commitTable struct {
	t *Table
	// deletes
	delVs   []*rowVersion
	delImgs []value.Row
	// updates (slot index, target version, old and new image, slot-ordered)
	updIdx  []int
	updVs   []*rowVersion
	oldImgs []value.Row
	newImgs []value.Row
	// inserts (in buffered order, nil entries already dropped)
	ins []value.Row
}

// Commit validates and applies the transaction. Validation is
// first-committer-wins: every version this transaction deleted or updated
// must still be its slot's newest, live version — if a concurrent committed
// writer superseded, deleted, or (via vacuum after deletion) removed it,
// Commit aborts everything with ErrWriteConflict. On success all buffered
// effects across all tables become visible atomically at one gate-held
// apply, and Commit then waits for durability like any autocommit mutation.
// Whatever the outcome, the transaction is finished afterwards.
func (x *Txn) Commit() error {
	if x.done {
		return errTxnDone
	}
	s := x.store
	plans := x.commitPlansLocked()
	if plans == nil {
		// Nothing to write: a read-only transaction just releases its pin.
		x.finish()
		return nil
	}
	if err := s.writeAllowed(); err != nil {
		x.unlockAll(plans)
		x.finish()
		return err
	}
	// Validate under the tables' writer locks: no other writer can stamp
	// anything while we check, and the locks are ordered (by table name), so
	// concurrent commits cannot deadlock.
	conflict := false
	for i := range plans {
		if !plans[i].validate() {
			conflict = true
			break
		}
	}
	if conflict {
		x.unlockAll(plans)
		x.finish()
		s.conflicts.Add(1)
		return ErrWriteConflict
	}
	// Apply everything under one gate hold: the whole transaction becomes
	// visible at once, and snapshot collection can never see half of it.
	s.gate.Lock()
	for i := range plans {
		plans[i].apply()
	}
	s.visible.Store(s.log.LastLSN())
	s.gate.Unlock()
	// Mirror the engine's post-DML statistics refresh for row-count-changing
	// effects, exactly as replica replay does — cost-based plan choices must
	// not drift between a primary that committed a transaction and a replica
	// that replayed its records.
	for i := range plans {
		p := &plans[i]
		if len(p.ins) > 0 || len(p.delVs) > 0 {
			s.catalog.SetRowCount(p.t.def.Name, p.t.RowCount())
		}
	}
	x.unlockAll(plans)
	x.finish()
	return s.WaitDurable()
}

// commitPlansLocked collects the transaction's effects per table, sorted by
// table name, and takes each table's writer lock in that order. It returns
// nil (taking no locks) when the transaction wrote nothing.
func (x *Txn) commitPlansLocked() []commitTable {
	var plans []commitTable
	for t, tt := range x.tabs {
		p := commitTable{t: t}
		for _, r := range tt.ins {
			if r != nil {
				p.ins = append(p.ins, r)
			}
		}
		for v, m := range tt.mods {
			if m.del {
				p.delVs = append(p.delVs, v)
			} else {
				p.updVs = append(p.updVs, v)
				p.newImgs = append(p.newImgs, m.row)
			}
		}
		if len(p.ins) == 0 && len(p.delVs) == 0 && len(p.updVs) == 0 {
			continue
		}
		plans = append(plans, p)
	}
	if len(plans) == 0 {
		return nil
	}
	sort.Slice(plans, func(i, j int) bool {
		return keyOf(plans[i].t.def.Name) < keyOf(plans[j].t.def.Name)
	})
	for i := range plans {
		plans[i].t.writeMu.Lock()
	}
	return plans
}

func (x *Txn) unlockAll(plans []commitTable) {
	for i := range plans {
		plans[i].t.writeMu.Unlock()
	}
}

// validate checks first-committer-wins for one table and orders the plan's
// targets by slot position (the order replica replay re-matches images in).
// Caller holds the table's writeMu.
func (p *commitTable) validate() bool {
	t := p.t
	// Slot index of every newest version. A target missing from this map was
	// superseded by another writer's update (its slot has a newer head) or
	// vacuumed after another writer's delete — both conflicts.
	newest := make(map[*rowVersion]int, len(t.slots))
	t.mu.RLock()
	for i, v := range t.slots {
		newest[v] = i
	}
	t.mu.RUnlock()
	type tagged struct {
		idx int
		v   *rowVersion
		img value.Row
	}
	dels := make([]tagged, 0, len(p.delVs))
	for _, v := range p.delVs {
		idx, ok := newest[v]
		if !ok || v.deleted != 0 {
			return false
		}
		dels = append(dels, tagged{idx: idx, v: v})
	}
	upds := make([]tagged, 0, len(p.updVs))
	for i, v := range p.updVs {
		idx, ok := newest[v]
		if !ok || v.deleted != 0 {
			return false
		}
		upds = append(upds, tagged{idx: idx, v: v, img: p.newImgs[i]})
	}
	sort.Slice(dels, func(i, j int) bool { return dels[i].idx < dels[j].idx })
	sort.Slice(upds, func(i, j int) bool { return upds[i].idx < upds[j].idx })
	p.delVs, p.delImgs = p.delVs[:0], p.delImgs[:0]
	for _, d := range dels {
		p.delVs = append(p.delVs, d.v)
		p.delImgs = append(p.delImgs, d.v.row)
	}
	p.updIdx, p.updVs, p.oldImgs, p.newImgs = p.updIdx[:0], p.updVs[:0], p.oldImgs[:0], p.newImgs[:0]
	for _, u := range upds {
		p.updIdx = append(p.updIdx, u.idx)
		p.updVs = append(p.updVs, u.v)
		p.oldImgs = append(p.oldImgs, u.v.row)
		p.newImgs = append(p.newImgs, u.img)
	}
	return true
}

// apply stamps one table's validated plan. Caller holds the table's writeMu
// and the store gate; the visible LSN is published once by Commit after
// every table applied.
func (p *commitTable) apply() {
	t := p.t
	if len(p.delVs) > 0 {
		rec := &repl.Record{Kind: repl.KindDelete, Table: t.def.Name, Rows: p.delImgs}
		t.applyGateHeld(rec, func(ranges []lsnRange) { t.supersedeLocked(p.delVs, nil, nil, ranges) })
	}
	if len(p.updVs) > 0 {
		rec := &repl.Record{Kind: repl.KindUpdate, Table: t.def.Name, Rows: p.newImgs, OldRows: p.oldImgs}
		t.applyGateHeld(rec, func(ranges []lsnRange) { t.supersedeLocked(p.updVs, p.updIdx, p.newImgs, ranges) })
	}
	if len(p.ins) > 0 {
		rec := &repl.Record{Kind: repl.KindInsert, Table: t.def.Name, Rows: p.ins}
		t.applyGateHeld(rec, func(ranges []lsnRange) { t.insertLocked(p.ins, ranges) })
	}
}

// Rollback discards all buffered effects and releases the snapshot pin. It
// is a no-op on a finished transaction.
func (x *Txn) Rollback() {
	if x.done {
		return
	}
	x.finish()
}

func (x *Txn) finish() {
	x.done = true
	x.store.UnpinSnapshot(x.snap)
	x.tabs = nil
}
