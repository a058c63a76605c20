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

// ErrWriteConflict is the typed error a commit fails with when
// first-committer-wins validation finds that another writer changed or
// removed a row this transaction also wrote; it is rolled back, to be retried
// from BEGIN. It stays typed up to database/sql callers.
var ErrWriteConflict = errors.New("storage: write conflict: row changed by a concurrent transaction, retry the transaction")

// errTxnDone guards use-after-finish.
var errTxnDone = errors.New("storage: transaction is already committed or rolled back")

// Txn is a snapshot-isolation transaction: it reads the versions visible at
// the snapshot LSN pinned at Begin plus its own buffered writes, and Commit
// validates first-committer-wins (ErrWriteConflict, nothing applied, when
// another writer changed a row it deleted or updated). Every DML statement
// of a primary runs in one. A Txn is single-goroutine on its write side;
// parallel query workers may read it concurrently.
type Txn struct {
	store *Store
	snap  uint64
	done  bool
	tabs  map[*Table]*txnTable
}

// txnTable is one table's buffered effects.
type txnTable struct {
	// mods maps a version this transaction read to what it did to it: the
	// replacement row of an update or a nil row for a delete, and the slot
	// the version was read in. At commit the version must still be live, or
	// someone else changed the row first. Nil until the first such write.
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

// Scan opens a cursor over the rows of t as this transaction sees them: the
// versions visible at its snapshot in slot order, its own updates applied
// and its own deletes left out, then the rows it inserted itself. The
// executor's scans read transactions through this, and a Pick names a row by
// the cursor's Pos. The cursor reads the buffered writes as it goes: the
// transaction writes nothing while one still reads.
func (x *Txn) Scan(t *Table) Cursor {
	c := t.Scan(x.snap)
	if tt := x.tabs[t]; tt != nil && (len(tt.mods) > 0 || len(tt.ins) > 0) {
		c.tt = tt
		c.end += len(tt.ins)
	}
	return c
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

// Pick is a statement's decision on one row of t the transaction sees,
// named by the position Cursor.Pos reported when the transaction's cursor
// over t returned it: replace it with Row, or delete it when Row is nil.
type Pick struct {
	ID  int
	Row value.Row
}

// Rewrite buffers picks, in ascending ID order, and reports how many rows
// it rewrote. c is the cursor of x over t the picks' positions came from:
// each pick is sought in it, in the heap it read and under its snapshot and
// overlay, so a vacuum since cannot misdirect one. A pick out of order or
// repeated, past the cursor's end, or naming no row the transaction sees is
// refused. Rewrite checks every pick and type-checks every replacement
// before it buffers any, so a statement that fails on some row leaves the
// transaction as it was.
func (x *Txn) Rewrite(t *Table, c *Cursor, picks []Pick) (int, error) {
	if x.done {
		return 0, errTxnDone
	}
	decided := make([]target, len(picks))
	for i, p := range picks {
		if i > 0 && p.ID <= picks[i-1].ID {
			return 0, fmt.Errorf("storage: picks of %q out of order or repeated at position %d", t.def.Name, p.ID)
		}
		tg, ok := c.at(p.ID)
		if !ok {
			return 0, fmt.Errorf("storage: position %d names no row of %q the transaction sees", p.ID, t.def.Name)
		}
		tg.row = p.Row
		if p.Row != nil {
			var err error
			if tg.row, err = t.checkRow(p.Row); err != nil {
				return 0, err
			}
		}
		decided[i] = tg
	}
	tt := x.table(t)
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

// Commit validates and applies the transaction: every version it deleted or
// updated must still be its slot's newest, live version, and every table it
// wrote still in the store, or it aborts with ErrWriteConflict. On success
// all its effects become visible at one gate-held apply, and Commit waits for
// durability. Either way the transaction is finished afterwards.
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
	h := p.t.heap.Load()
	n := int(h.n.Load())
	for _, tgs := range [][]target{p.dels, p.upds} {
		for i := range tgs {
			tg := &tgs[i]
			if tg.v.deleted.Load() != 0 {
				return false
			}
			tg.slot = min(tg.slot, n-1)
			for tg.slot >= 0 && h.slot(tg.slot).Load() != tg.v {
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
