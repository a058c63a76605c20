package storage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

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
// commit fails with ErrWriteConflict and nothing is applied. Every DML
// statement of a primary runs in one: outside BEGIN, Table.Write runs the
// statement in a Txn of its own.
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
	// its snapshot) to what the transaction did to it: the replacement row
	// of an update, or a nil row for a delete, and the slot the version was
	// in when read. The version pointer is the conflict-detection token: at
	// commit it must still be live, or someone else changed the row first.
	// It is nil until the transaction first deletes or updates a row.
	mods map[*rowVersion]target
	// ins are rows this transaction inserted; entries deleted again by the
	// same transaction are nil.
	ins []value.Row
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
		tt = &txnTable{}
		x.tabs[t] = tt
	}
	return tt
}

// each calls fn with every row of t this transaction sees, in the order
// TableRows lists them: the versions visible at its snapshot in slot order,
// its own updates applied and its own deletes left out, each with the slot
// it was read in; then the rows it inserted itself, with no version and
// their index in tt.ins as the slot. It stops once fn returns false.
func (x *Txn) each(t *Table, tt *txnTable, fn func(tg target) bool) {
	t.mu.RLock()
	for i, v := range t.slots {
		if w := v.visibleAt(x.snap); w != nil {
			tg := target{v: w, slot: i, row: w.row}
			if m, ok := tt.mods[w]; ok {
				tg.row = m.row
			}
			if tg.row != nil && !fn(tg) {
				t.mu.RUnlock()
				return
			}
		}
	}
	t.mu.RUnlock()
	for i, r := range tt.ins {
		if r != nil && !fn(target{slot: i, row: r}) {
			return
		}
	}
}

// TableRows returns the rows of t as this transaction sees them: the
// snapshot image with buffered updates and deletes applied and buffered
// inserts appended. The executor's scans read transactions through this,
// and a Pick names a row by its position here.
func (x *Txn) TableRows(t *Table) []value.Row {
	tt := x.tabs[t]
	if tt == nil || (len(tt.mods) == 0 && len(tt.ins) == 0) {
		// No writes to this table: the plain snapshot read, sharing the
		// table's materialization cache with every other reader.
		return t.SnapshotAt(x.snap)
	}
	var out []value.Row
	x.each(t, tt, func(tg target) bool {
		out = append(out, tg.row)
		return true
	})
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
	if tt := x.table(t); tt.ins == nil {
		tt.ins = checked
	} else {
		tt.ins = append(tt.ins, checked...)
	}
	return len(checked), nil
}

// Delete buffers the deletion of every visible row matching pred (all rows
// when pred is nil), including rows this transaction itself inserted or
// updated. pred runs outside all storage locks and may query any table.
func (x *Txn) Delete(t *Table, pred func(value.Row) (bool, error)) (int, error) {
	return x.Update(t, pred, nil)
}

// Update buffers the replacement of every visible row matching pred with
// fn's result, after type checking (with a nil fn, Delete): it picks them
// from TableRows and hands the picks to Rewrite. Rows this transaction
// inserted are rewritten in place. Like Delete's, both callbacks run
// outside all storage locks.
func (x *Txn) Update(t *Table, pred func(value.Row) (bool, error), fn func(value.Row) (value.Row, error)) (int, error) {
	if x.done {
		return 0, errTxnDone
	}
	var picks []Pick
	for id, row := range x.TableRows(t) {
		if pred != nil {
			if ok, err := pred(row); err != nil || !ok {
				if err != nil {
					return 0, err
				}
				continue
			}
		}
		p := Pick{ID: id}
		if fn != nil {
			var err error
			if p.Row, err = fn(row); err != nil {
				return 0, err
			}
		}
		picks = append(picks, p)
	}
	return x.Rewrite(t, picks)
}

// Pick is a statement's decision on one row of t the transaction sees,
// named by its position in TableRows: replace it with Row, or delete it
// when Row is nil.
type Pick struct {
	ID  int
	Row value.Row
}

// Rewrite buffers picks, in ascending ID order, and reports how many rows
// it rewrote. It type-checks every replacement before it buffers any pick,
// so a statement that fails on some row leaves the transaction as it was;
// the checked images replace the picks' rows.
func (x *Txn) Rewrite(t *Table, picks []Pick) (int, error) {
	if x.done {
		return 0, errTxnDone
	}
	for i := range picks {
		if picks[i].Row != nil {
			row, err := t.checkRow(picks[i].Row)
			if err != nil {
				return 0, err
			}
			picks[i].Row = row
		}
	}
	tt := x.table(t)
	decided := make([]target, 0, len(picks))
	id := 0
	x.each(t, tt, func(tg target) bool {
		if len(decided) < len(picks) && picks[len(decided)].ID == id {
			tg.row = picks[len(decided)].Row
			decided = append(decided, tg)
		}
		id++
		return len(decided) < len(picks)
	})
	if len(decided) < len(picks) {
		return 0, fmt.Errorf("storage: picks out of order or past the %d rows of %q the transaction sees", id, t.def.Name)
	}
	for _, d := range decided {
		switch {
		case d.v == nil:
			tt.ins[d.slot] = d.row
		case tt.mods == nil:
			tt.mods = map[*rowVersion]target{d.v: d}
		default:
			tt.mods[d.v] = d
		}
	}
	return len(decided), nil
}

// commitTable is one table's commit plan: the versions it deletes and
// updates, in slot order once validated, and the rows it inserts.
type commitTable struct {
	t          *Table
	dels, upds []target
	ins        []value.Row
}

// Commit validates and applies the transaction. Validation is
// first-committer-wins: every version this transaction deleted or updated
// must still be its slot's newest, live version — if a concurrent committed
// writer superseded, deleted, or (via vacuum after deletion) removed it,
// Commit aborts everything with ErrWriteConflict. So does a table that a
// concurrent DROP TABLE detached from the store. On success all buffered
// effects across all tables become visible atomically at one gate-held
// apply, and Commit then waits for durability. Whatever the outcome, the
// transaction is finished afterwards.
func (x *Txn) Commit() error {
	if x.done {
		return errTxnDone
	}
	plans := x.plans()
	// The writer locks are taken in table-name order (plans are sorted), so
	// concurrent commits cannot deadlock.
	for i := range plans {
		plans[i].t.writeMu.Lock()
	}
	err := x.commitLocked(plans)
	for i := range plans {
		plans[i].t.writeMu.Unlock()
	}
	x.finish()
	if err != nil || plans == nil {
		return err
	}
	return x.store.WaitDurable()
}

// plans collects the transaction's effects per table, sorted by table name;
// nil when it wrote nothing.
func (x *Txn) plans() []commitTable {
	var plans []commitTable
	for t, tt := range x.tabs {
		// The transaction is finishing: its inserts are compacted in place.
		p := commitTable{t: t, ins: slices.DeleteFunc(tt.ins, func(r value.Row) bool { return r == nil })}
		for _, m := range tt.mods {
			if m.row == nil {
				p.dels = append(p.dels, m)
			} else {
				p.upds = append(p.upds, m)
			}
		}
		if len(p.ins) > 0 || len(p.dels) > 0 || len(p.upds) > 0 {
			plans = append(plans, p)
		}
	}
	slices.SortFunc(plans, func(a, b commitTable) int {
		return strings.Compare(keyOf(a.t.def.Name), keyOf(b.t.def.Name))
	})
	return plans
}

// commitLocked validates the plans and applies them under one gate hold:
// the whole transaction becomes visible at once, and snapshot collection
// can never see half of it. The caller holds every plan's writer lock, so
// no other writer can stamp anything while it checks.
func (x *Txn) commitLocked(plans []commitTable) error {
	if len(plans) == 0 {
		// Nothing to write: a read-only transaction just commits.
		return nil
	}
	s := x.store
	if err := s.writeAllowed(); err != nil {
		return err
	}
	for i := range plans {
		if !plans[i].validate() {
			s.conflicts.Add(1)
			return ErrWriteConflict
		}
	}
	// The store lock keeps DROP TABLE out until the apply is done, so the
	// tables checked here are the ones written.
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range plans {
		if s.tables[keyOf(p.t.def.Name)] != p.t {
			s.conflicts.Add(1)
			return fmt.Errorf("%w (table %q was dropped)", ErrWriteConflict, p.t.def.Name)
		}
	}
	s.gated(func() {
		for i := range plans {
			plans[i].apply()
		}
	})
	return nil
}

// validate checks first-committer-wins for one table: every target must
// still be live, so still the newest version of its slot. It finds each
// target's slot from the one it was read in: slots only move down, and only
// under writeMu (vacuum drops the dead slots before them). It leaves the
// targets in slot order, the order replay re-matches images in. Caller
// holds the table's writeMu, which also keeps the slots still.
func (p *commitTable) validate() bool {
	slots := p.t.slots
	for _, tgs := range [][]target{p.dels, p.upds} {
		for i := range tgs {
			tg := &tgs[i]
			if tg.v.deleted != 0 {
				return false
			}
			tg.slot = min(tg.slot, len(slots)-1)
			for tg.slot >= 0 && slots[tg.slot] != tg.v {
				tg.slot--
			}
			if tg.slot < 0 {
				return false
			}
		}
		slices.SortFunc(tgs, func(a, b target) int { return cmp.Compare(a.slot, b.slot) })
	}
	return true
}

// apply stamps one table's validated plan: its deletes, its updates and its
// inserts, a change record each. Caller holds the table's writeMu and the
// store gate.
func (p *commitTable) apply() {
	t := p.t
	if len(p.dels) > 0 {
		rec := &repl.Record{Kind: repl.KindDelete, Table: t.def.Name, Rows: images(p.dels, true)}
		t.apply(rec, func(ranges []lsnRange) { t.supersedeLocked(p.dels, false, ranges) })
	}
	if len(p.upds) > 0 {
		rec := &repl.Record{Kind: repl.KindUpdate, Table: t.def.Name, Rows: images(p.upds, false), OldRows: images(p.upds, true)}
		t.apply(rec, func(ranges []lsnRange) { t.supersedeLocked(p.upds, true, ranges) })
	}
	if len(p.ins) > 0 {
		rec := &repl.Record{Kind: repl.KindInsert, Table: t.def.Name, Rows: p.ins}
		t.apply(rec, func(ranges []lsnRange) { t.insertLocked(p.ins, ranges) })
	}
}

// images returns the targets' old rows (their versions') or new rows.
func images(tgs []target, old bool) []value.Row {
	out := make([]value.Row, len(tgs))
	for i, tg := range tgs {
		out[i] = tg.row
		if old {
			out[i] = tg.v.row
		}
	}
	return out
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
