// Package storage implements the in-memory heap storage engine under the
// Perm catalog: multi-versioned row slots per table with snapshot-LSN
// visibility, type-checked inserts, full-scan cursors, snapshot-isolation
// transactions, and a store that ties table data to the catalog the way
// PostgreSQL's heap ties to its system catalogs.
package storage

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"perm/internal/catalog"
	"perm/internal/repl"
	"perm/internal/value"
)

// Table holds the rows of one base relation as a slice of version slots:
// each slot is the newest version of one row, with superseded versions
// chained behind it (see mvcc.go). It is safe for concurrent use; readers
// materialize the versions visible at their snapshot LSN and never block on
// writers.
//
// Mutations run in two phases under writeMu (which serializes writers per
// table): first the decision phase evaluates predicates and update
// expressions against the live versions WITHOUT holding mu — so a WHERE
// subquery may scan any table, including this one, without deadlocking —
// then the apply phase takes the store gate, appends the change record (which
// assigns the mutation's LSNs), stamps and installs versions under mu, and
// publishes the new visible LSN. Readers pinned at earlier LSNs keep seeing
// exactly the versions their snapshot could see.
type Table struct {
	writeMu sync.Mutex
	mu      sync.RWMutex
	def     *catalog.TableDef
	slots   []*rowVersion
	// lastMod is the LSN of the last change applied to THIS table (under
	// mu). Any snapshot at or past it sees the table's current contents,
	// which is what lets the materialization cache serve steady-state reads
	// zero-copy.
	lastMod uint64
	// cache is the table's materialized read view (mvcc.go).
	cache atomic.Pointer[matRows]
	// gate, when non-nil, is the owning store's apply gate: every apply
	// phase holds it exclusively, so record append, version stamping and the
	// visible-LSN publication happen atomically with respect to every other
	// applier and to snapshot collection (Store.collect).
	gate *sync.Mutex
	// log, when non-nil, is the owning store's change log. Mutations append
	// their record inside the gate-held apply, so a persistence snapshot
	// always captures a row state and a log position that agree exactly.
	log *repl.ChangeLog
	// store, when non-nil, is the owning store — mutations consult its
	// durability gate before deciding and wait on it before acknowledging.
	store *Store
	// localSeq is the LSN space of a detached table (no owning store):
	// version stamps come from it and it doubles as the visible position.
	localSeq atomic.Uint64
}

// NewTable creates an empty table for the definition.
func NewTable(def *catalog.TableDef) *Table {
	return &Table{def: def}
}

// Def returns the table definition.
func (t *Table) Def() *catalog.TableDef { return t.def }

// checkRow validates arity, nullability and coerces values to column types.
func (t *Table) checkRow(row value.Row) (value.Row, error) {
	if len(row) != len(t.def.Columns) {
		return nil, fmt.Errorf("table %q expects %d values, got %d",
			t.def.Name, len(t.def.Columns), len(row))
	}
	out := make(value.Row, len(row))
	for i, v := range row {
		col := t.def.Columns[i]
		if v.IsNull() {
			if col.NotNull {
				return nil, fmt.Errorf("null value in column %q of table %q violates not-null constraint",
					col.Name, t.def.Name)
			}
			out[i] = value.Null
			continue
		}
		cv, err := value.Coerce(v, col.Type)
		if err != nil {
			return nil, fmt.Errorf("column %q of table %q: %v", col.Name, t.def.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// lsnRange says which rows of a (possibly split) change record landed at
// which LSN: record rows [lo:hi) carry lsn. Version stamps come from these,
// so a split mutation's versions match the log records a replica will replay
// one by one.
type lsnRange struct {
	lsn    uint64
	lo, hi int
}

// maxRecordRows and maxRecordBytes cap one change record: a single huge
// mutation (CREATE TABLE AS over a large provenance query, an unqualified
// DELETE or UPDATE on a wide table) is logged as several consecutive
// records, so an encoded record always fits comfortably inside a wire frame
// — a record that cannot frame would wedge every subscription on it
// forever. The byte bound is approximate (string payloads dominate); 8 MiB
// leaves an 8× margin under the 64 MiB frame limit. The split happens
// inside one gate-held apply, so snapshots and readers still see all or
// none of it.
const (
	maxRecordRows  = 4096
	maxRecordBytes = 8 << 20
)

// approxRowBytes estimates a row image's encoded size.
func approxRowBytes(row value.Row) int {
	n := 16 * len(row)
	for _, v := range row {
		n += len(v.Str())
	}
	return n
}

// appendRecord routes a record to the log and reports which LSNs its rows
// landed at: records without an LSN (primary mutations) are assigned the
// next ones, splitting oversized row sets; records carrying an LSN (a
// replica replaying the primary's feed — already split by the primary) must
// land at exactly that position. The replica's apply loop verifies
// continuity before mutating, so a failed AppendAt here means that check was
// bypassed — a programming error — and the record is dropped (nil return,
// the caller skips its apply) rather than corrupting the LSN space.
func appendRecord(log *repl.ChangeLog, rec repl.Record) []lsnRange {
	if rec.LSN != 0 {
		if err := log.AppendAt(rec); err != nil {
			return nil
		}
		return []lsnRange{{lsn: rec.LSN, lo: 0, hi: len(rec.Rows)}}
	}
	if len(rec.Rows) == 0 {
		log.Append(rec)
		return []lsnRange{{lsn: log.LastLSN()}}
	}
	var ranges []lsnRange
	for i := 0; i < len(rec.Rows); {
		j, bytes := i, 0
		for j < len(rec.Rows) && j-i < maxRecordRows {
			b := approxRowBytes(rec.Rows[j])
			if rec.OldRows != nil {
				b += approxRowBytes(rec.OldRows[j])
			}
			// Always take at least one row; a single row beyond the byte
			// bound still has to travel somehow.
			if j > i && bytes+b > maxRecordBytes {
				break
			}
			bytes += b
			j++
		}
		if i == 0 && j == len(rec.Rows) {
			log.Append(rec) // common case: no split
			return []lsnRange{{lsn: log.LastLSN(), lo: 0, hi: len(rec.Rows)}}
		}
		sub := repl.Record{Kind: rec.Kind, Table: rec.Table, Rows: rec.Rows[i:j]}
		if rec.OldRows != nil {
			sub.OldRows = rec.OldRows[i:j]
		}
		log.Append(sub)
		ranges = append(ranges, lsnRange{lsn: log.LastLSN(), lo: i, hi: j})
		i = j
	}
	return ranges
}

// apply is the apply phase of a mutation: under the store gate it appends
// the change record (assigning LSNs), lets stamp install/stamp versions
// under mu with those LSNs, and publishes the new visible position. A nil
// rec applies silently with no LSN (bulk load). Callers hold writeMu. The
// return value is false only when a replica-positioned record was refused by
// the log, in which case nothing was applied.
func (t *Table) apply(rec *repl.Record, stamp func(ranges []lsnRange)) bool {
	if t.gate != nil {
		t.gate.Lock()
		defer t.gate.Unlock()
	}
	var ranges []lsnRange
	if rec != nil {
		if t.log != nil {
			if ranges = appendRecord(t.log, *rec); ranges == nil {
				return false
			}
		} else {
			ranges = []lsnRange{{lsn: t.localSeq.Load() + 1, lo: 0, hi: len(rec.Rows)}}
		}
	}
	t.mu.Lock()
	stamp(ranges)
	if len(ranges) > 0 {
		t.lastMod = ranges[len(ranges)-1].lsn
	}
	t.mu.Unlock()
	if t.store != nil {
		t.store.visible.Store(t.log.LastLSN())
	} else if len(ranges) > 0 {
		t.localSeq.Store(ranges[len(ranges)-1].lsn)
	}
	return true
}

// insertLocked appends one new version per row, stamped per LSN range.
// Callers are inside an apply's stamp callback (mu held).
func (t *Table) insertLocked(rows []value.Row, ranges []lsnRange) {
	for _, rg := range ranges {
		for i := rg.lo; i < rg.hi; i++ {
			t.slots = append(t.slots, &rowVersion{row: rows[i], created: rg.lsn})
		}
	}
}

// liveVersions returns the table's live row versions (newest per slot, not
// deleted) and their slot indices, in slot order. Callers hold writeMu, so
// the result is stable until they apply: only writers stamp versions, and
// writeMu excludes them.
func (t *Table) liveVersions() ([]*rowVersion, []int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	live := make([]*rowVersion, 0, len(t.slots))
	idxs := make([]int, 0, len(t.slots))
	for i, v := range t.slots {
		if v.deleted == 0 {
			live = append(live, v)
			idxs = append(idxs, i)
		}
	}
	return live, idxs
}

// writeAllowed reports the owning store's sticky durability failure, if
// any; a detached table (no owning store) is always writable.
func (t *Table) writeAllowed() error {
	if t.store == nil {
		return nil
	}
	return t.store.writeAllowed()
}

// waitDurable blocks until the mutation this call follows is durable under
// the owning store's policy. Called after the gate-held apply, so an fsync
// wait never blocks snapshot collection, readers, or other tables' writers.
func (t *Table) waitDurable() error {
	if t.store == nil {
		return nil
	}
	return t.store.WaitDurable()
}

// Insert appends a row after type checking. It returns the number of rows
// inserted (always 1 on success).
func (t *Table) Insert(row value.Row) (int, error) {
	return t.InsertBatch([]value.Row{row})
}

// InsertBatch appends many rows, failing atomically on the first bad row.
func (t *Table) InsertBatch(rows []value.Row) (int, error) {
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
	if err := t.writeAllowed(); err != nil {
		return 0, err
	}
	t.writeMu.Lock()
	rec := &repl.Record{Kind: repl.KindInsert, Table: t.def.Name, Rows: checked}
	t.apply(rec, func(ranges []lsnRange) { t.insertLocked(checked, ranges) })
	t.writeMu.Unlock()
	if err := t.waitDurable(); err != nil {
		return 0, err
	}
	return len(checked), nil
}

// Delete removes all rows for which pred returns true and reports how many
// were removed. A nil pred removes every row. pred runs in the decision
// phase — outside the table's locks — so it may itself query this table
// (DELETE ... WHERE x IN (SELECT ... FROM same_table)).
func (t *Table) Delete(pred func(value.Row) (bool, error)) (int, error) {
	if err := t.writeAllowed(); err != nil {
		return 0, err
	}
	n, err := t.delete(pred)
	if err != nil || n == 0 {
		return n, err
	}
	if err := t.waitDurable(); err != nil {
		return 0, err
	}
	return n, nil
}

func (t *Table) delete(pred func(value.Row) (bool, error)) (int, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	live, _ := t.liveVersions()
	targets := live
	if pred != nil {
		targets = targets[:0:0]
		for _, v := range live {
			ok, err := pred(v.row)
			if err != nil {
				return 0, err
			}
			if ok {
				targets = append(targets, v)
			}
		}
	}
	if len(targets) == 0 {
		return 0, nil
	}
	images := make([]value.Row, len(targets))
	for i, v := range targets {
		images[i] = v.row
	}
	rec := &repl.Record{Kind: repl.KindDelete, Table: t.def.Name, Rows: images}
	t.apply(rec, func(ranges []lsnRange) {
		for _, rg := range ranges {
			for i := rg.lo; i < rg.hi; i++ {
				targets[i].deleted = rg.lsn
			}
		}
	})
	return len(targets), nil
}

// Update applies fn to every row matching pred, replacing the row with fn's
// result after type checking. It reports how many rows changed. Like
// Delete's pred, both callbacks run outside the table locks and may query
// any table, including this one.
func (t *Table) Update(pred func(value.Row) (bool, error), fn func(value.Row) (value.Row, error)) (int, error) {
	if err := t.writeAllowed(); err != nil {
		return 0, err
	}
	n, err := t.update(pred, fn)
	if err != nil || n == 0 {
		return n, err
	}
	if err := t.waitDurable(); err != nil {
		return 0, err
	}
	return n, nil
}

func (t *Table) update(pred func(value.Row) (bool, error), fn func(value.Row) (value.Row, error)) (int, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	live, idxs := t.liveVersions()
	var targets []*rowVersion
	var tidx []int
	// The change record carries old/new image pairs in table-scan order, the
	// order a replica re-scans in when it replays the record.
	var oldImages, newImages []value.Row
	for i, v := range live {
		match := true
		if pred != nil {
			ok, err := pred(v.row)
			if err != nil {
				return 0, err
			}
			match = ok
		}
		if !match {
			continue
		}
		nr, err := fn(v.row)
		if err != nil {
			return 0, err
		}
		checked, err := t.checkRow(nr)
		if err != nil {
			return 0, err
		}
		targets = append(targets, v)
		tidx = append(tidx, idxs[i])
		oldImages = append(oldImages, v.row)
		newImages = append(newImages, checked)
	}
	if len(newImages) == 0 {
		return 0, nil
	}
	rec := &repl.Record{Kind: repl.KindUpdate, Table: t.def.Name, Rows: newImages, OldRows: oldImages}
	t.apply(rec, func(ranges []lsnRange) {
		for _, rg := range ranges {
			for i := rg.lo; i < rg.hi; i++ {
				old := targets[i]
				old.deleted = rg.lsn
				t.slots[tidx[i]] = &rowVersion{row: newImages[i], created: rg.lsn, next: old}
			}
		}
	})
	return len(newImages), nil
}

// Store couples a catalog with the physical tables.
//
// Two locks protect it: mu guards the catalog/tables pairing (DDL holds it
// exclusively so the catalog and the heap map never disagree), and gate
// serializes apply phases — record append, version stamping and the
// visible-LSN publication of one mutation (or one transaction commit)
// happen as a unit, so readers pinning the visible position always see
// whole changes and snapshot collection captures an exact LSN. Readers
// never take the gate: they pin the visible LSN and materialize versions
// under per-table read locks.
type Store struct {
	mu      sync.RWMutex
	gate    sync.Mutex
	catalog *catalog.Catalog
	tables  map[string]*Table
	// log is the store's logical change log. DML appends under the gate
	// from Table.apply; DDL appends under mu (exclusive) AND the gate.
	// Snapshot collection holds mu (shared) and gate, so the LSN it captures
	// is exact: no mutation of either kind can be half-recorded.
	log *repl.ChangeLog
	// visible is the published snapshot position: the LSN up to which every
	// change is fully stamped and installed. Readers pin it (PinSnapshot);
	// appliers advance it as the last step of their gate-held apply. It
	// equals log.LastLSN() whenever the gate is free.
	visible atomic.Uint64
	// pinMu guards pins, the multiset of snapshot LSNs readers currently
	// hold (mvcc.go); the vacuum horizon is their minimum.
	pinMu sync.Mutex
	pins  map[uint64]int
	// vacuumRuns/vacuumRemoved/conflicts are the MVCC observability
	// counters behind SHOW mvcc_status.
	vacuumRuns    atomic.Uint64
	vacuumRemoved atomic.Uint64
	conflicts     atomic.Uint64
	// origin identifies the history this store's LSNs belong to: random at
	// creation, adopted from the snapshot on Restore. Two stores share an
	// origin exactly when one descends from the other's history, so a
	// replication follower whose origin differs from the primary's must
	// bootstrap from a snapshot — its LSNs count a different past, even if
	// the numbers happen to line up.
	origin atomic.Uint64
	// dur holds the store's Durability gate (a durabilityBox; nil d when the
	// store is purely in-memory). Loaded on every mutation, stored once at
	// startup, hence atomic rather than under mu.
	dur atomic.Value
}

// Durability is the write-ahead log's contract with the store: WaitDurable
// blocks until everything the change log accepted up to lsn is persistent
// under the configured sync policy, and Err reports the sticky failure that
// makes the store read-only (a write that may have been lost must never be
// acknowledged, and no later write may be accepted on top of it).
type Durability interface {
	WaitDurable(lsn uint64) error
	Err() error
}

type durabilityBox struct{ d Durability }

// SetDurability installs (or, with nil, removes) the durability gate. The
// WAL manager calls it after recovery, before the store serves traffic.
func (s *Store) SetDurability(d Durability) {
	s.dur.Store(durabilityBox{d: d})
}

func (s *Store) durability() Durability {
	if box, ok := s.dur.Load().(durabilityBox); ok {
		return box.d
	}
	return nil
}

// Durability returns the installed durability gate (nil when the store is
// purely in-memory). The cluster layer uses it to wrap the WAL gate with a
// replica-acknowledgment quorum without the two layers knowing each other.
func (s *Store) Durability() Durability { return s.durability() }

// WaitDurable blocks until the store's current change-log position is
// durable. Mutations call it after their critical section: the log position
// is at least their own record's LSN, and durability is monotone, so
// waiting for the newer position is correct (and naturally group-commits
// concurrent writers). A replication follower calls it once per applied
// batch instead of once per record.
func (s *Store) WaitDurable() error {
	d := s.durability()
	if d == nil {
		return nil
	}
	return d.WaitDurable(s.log.LastLSN())
}

// writeAllowed refuses new mutations while the durability gate's sticky
// failure stands; reads are unaffected.
func (s *Store) writeAllowed() error {
	d := s.durability()
	if d == nil {
		return nil
	}
	return d.Err()
}

// AdoptOrigin stamps the store with a history identifier recovered from an
// on-disk artifact (a WAL segment header when no snapshot survived). Zero —
// "no origin recorded" — is ignored.
func (s *Store) AdoptOrigin(origin uint64) {
	if origin != 0 {
		s.origin.Store(origin)
	}
}

// NewStore creates a store over a fresh catalog.
func NewStore() *Store {
	s := &Store{
		catalog: catalog.New(),
		tables:  make(map[string]*Table),
		log:     repl.NewChangeLog(),
		pins:    make(map[uint64]int),
	}
	s.origin.Store(newOrigin())
	return s
}

// newOrigin draws a random non-zero history identifier.
func newOrigin() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("storage: reading randomness: %v", err))
		}
		if v := binary.LittleEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
}

// Origin returns the store's history identifier.
func (s *Store) Origin() uint64 { return s.origin.Load() }

// Catalog exposes the schema registry.
func (s *Store) Catalog() *catalog.Catalog { return s.catalog }

// Log exposes the store's change log (replication, tests).
func (s *Store) Log() *repl.ChangeLog { return s.log }

// logDDL appends a catalog-change record under the gate and publishes the
// new visible position. Callers hold s.mu.
func (s *Store) logDDL(rec repl.Record) {
	s.gate.Lock()
	appendRecord(s.log, rec)
	s.visible.Store(s.log.LastLSN())
	s.gate.Unlock()
}

// CreateTable registers the definition and allocates the heap. Catalog entry
// and heap appear atomically with respect to snapshot collection.
func (s *Store) CreateTable(def *catalog.TableDef) (*Table, error) {
	if err := s.writeAllowed(); err != nil {
		return nil, err
	}
	t, err := s.createTable(def, 0)
	if err != nil {
		return nil, err
	}
	if err := s.WaitDurable(); err != nil {
		return nil, err
	}
	return t, nil
}

func (s *Store) createTable(def *catalog.TableDef, lsn uint64) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.catalog.CreateTable(def); err != nil {
		return nil, err
	}
	t := s.attach(def)
	s.logDDL(repl.Record{LSN: lsn, Kind: repl.KindCreateTable, Table: def.Name, Columns: def.Columns})
	return t, nil
}

// attach allocates the heap for a registered definition. Callers hold s.mu.
func (s *Store) attach(def *catalog.TableDef) *Table {
	t := NewTable(def)
	t.gate = &s.gate
	t.log = s.log
	t.store = s
	s.tables[keyOf(def.Name)] = t
	return t
}

// DropTable removes definition and data atomically.
func (s *Store) DropTable(name string) error {
	if err := s.writeAllowed(); err != nil {
		return err
	}
	if err := s.dropTable(name, 0); err != nil {
		return err
	}
	return s.WaitDurable()
}

func (s *Store) dropTable(name string, lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.catalog.DropTable(name); err != nil {
		return err
	}
	delete(s.tables, keyOf(name))
	s.logDDL(repl.Record{LSN: lsn, Kind: repl.KindDropTable, Table: name})
	return nil
}

// CreateView registers a view in the catalog and logs the change. View DDL
// must go through the store (not the catalog directly) on any database that
// may have replication followers.
func (s *Store) CreateView(def *catalog.ViewDef) error {
	if err := s.writeAllowed(); err != nil {
		return err
	}
	if err := s.createView(def, 0); err != nil {
		return err
	}
	return s.WaitDurable()
}

func (s *Store) createView(def *catalog.ViewDef, lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.catalog.CreateView(def); err != nil {
		return err
	}
	s.logDDL(repl.Record{LSN: lsn, Kind: repl.KindCreateView, Table: def.Name, ViewText: def.Text, Columns: def.Columns})
	return nil
}

// DropView removes a view and logs the change.
func (s *Store) DropView(name string) error {
	if err := s.writeAllowed(); err != nil {
		return err
	}
	if err := s.dropView(name, 0); err != nil {
		return err
	}
	return s.WaitDurable()
}

func (s *Store) dropView(name string, lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.catalog.DropView(name); err != nil {
		return err
	}
	s.logDDL(repl.Record{LSN: lsn, Kind: repl.KindDropView, Table: name})
	return nil
}

// Table returns the heap for the named table, or nil.
func (s *Store) Table(name string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[keyOf(name)]
}

// Analyze refreshes the catalog statistics (row count and per-column distinct
// fraction) for the named table, or for all tables when name is empty.
func (s *Store) Analyze(name string) error {
	if err := s.writeAllowed(); err != nil {
		return err
	}
	if err := s.analyze(name, 0); err != nil {
		return err
	}
	return s.WaitDurable()
}

// analyze does the statistics refresh and logs it. The scan runs over the
// currently visible rows (statistics are advisory and influence plan
// choice, never results), so a replica's ANALYZE may interleave slightly
// differently with concurrent DML than the primary's did — its statistics
// can differ transiently, its data cannot.
func (s *Store) analyze(name string, lsn uint64) error {
	names := []string{name}
	if name == "" {
		names = s.catalog.TableNames()
	}
	for _, n := range names {
		t := s.Table(n)
		if t == nil {
			return fmt.Errorf("table %q does not exist", n)
		}
		rows := t.Snapshot()
		s.catalog.SetRowCount(n, len(rows))
		var key []byte
		for ci, col := range t.Def().Columns {
			if len(rows) == 0 {
				s.catalog.SetDistinctFrac(n, col.Name, 1)
				continue
			}
			// Keys are built in one scratch buffer: only a value not seen
			// before allocates (its map key).
			seen := make(map[string]struct{})
			for _, r := range rows {
				key = r[ci].AppendKey(key[:0])
				if _, dup := seen[string(key)]; !dup {
					seen[string(key)] = struct{}{}
				}
			}
			s.catalog.SetDistinctFrac(n, col.Name, float64(len(seen))/float64(len(rows)))
		}
	}
	s.gate.Lock()
	appendRecord(s.log, repl.Record{LSN: lsn, Kind: repl.KindAnalyze, Table: name})
	s.visible.Store(s.log.LastLSN())
	s.gate.Unlock()
	return nil
}

// --- replication apply ----------------------------------------------------------

// ApplyChange replays one change record from a primary's feed: it performs
// the mutation and appends the record to this store's own log at the
// primary's LSN, atomically with respect to snapshot collection and
// concurrent readers. Records must arrive in LSN order (the caller —
// internal/server's follower — verifies continuity against Log().LastLSN()
// before applying).
//
// DML against a relation this store does not have is skipped silently: the
// primary logs mutations decided against a table heap that a concurrent DROP
// already detached, and the visible state on both sides is identical — no
// table. A row-image mismatch, by contrast, means the replica has diverged
// and is returned as an error so the caller can re-bootstrap from a
// snapshot.
func (s *Store) ApplyChange(rec repl.Record) error {
	if err := s.writeAllowed(); err != nil {
		return err
	}
	switch rec.Kind {
	case repl.KindCreateTable:
		cols := append([]catalog.Column(nil), rec.Columns...)
		_, err := s.createTable(&catalog.TableDef{Name: rec.Table, Columns: cols}, rec.LSN)
		return err
	case repl.KindDropTable:
		return s.dropTable(rec.Table, rec.LSN)
	case repl.KindCreateView:
		cols := append([]catalog.Column(nil), rec.Columns...)
		return s.createView(&catalog.ViewDef{Name: rec.Table, Text: rec.ViewText, Columns: cols}, rec.LSN)
	case repl.KindDropView:
		return s.dropView(rec.Table, rec.LSN)
	case repl.KindAnalyze:
		// The primary logs ANALYZE outside the DDL lock (statistics are
		// advisory), so its record can land after a concurrent DROP of its
		// target. Like DML on a dropped table, that replays as a logged
		// no-op rather than a divergence.
		if rec.Table != "" && s.Table(rec.Table) == nil {
			s.logSkipped(rec)
			return nil
		}
		return s.analyze(rec.Table, rec.LSN)
	case repl.KindInsert, repl.KindDelete, repl.KindUpdate:
		t := s.Table(rec.Table)
		if t == nil {
			// Mutation against a dropped table: a no-op on the primary's
			// visible state too. Keep the LSN space dense by logging the
			// skip.
			s.logSkipped(rec)
			return nil
		}
		if err := t.applyChange(rec); err != nil {
			return err
		}
		// Mirror the engine's post-DML statistics refresh (runInsert and
		// runDelete call SetRowCount): cost-based plan choices — and with
		// them un-ORDERed result order — must not drift between primary and
		// replica on cardinality alone.
		if rec.Kind != repl.KindUpdate {
			s.catalog.SetRowCount(rec.Table, t.RowCount())
		}
		return nil
	}
	return fmt.Errorf("storage: unknown change record kind %d", rec.Kind)
}

// logSkipped records a replayed change whose target relation is gone,
// keeping the LSN space dense.
func (s *Store) logSkipped(rec repl.Record) {
	s.mu.Lock()
	s.logDDL(rec)
	s.mu.Unlock()
}

// applyChange replays one DML record on the table: it matches the record's
// row images against the live versions exactly as the primary's scan
// decided them, then stamps versions at the record's LSN.
func (t *Table) applyChange(rec repl.Record) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	switch rec.Kind {
	case repl.KindInsert:
		t.apply(&rec, func(ranges []lsnRange) { t.insertLocked(rec.Rows, ranges) })
		return nil
	case repl.KindDelete:
		targets, err := t.matchImages(rec.Rows)
		if err != nil {
			return fmt.Errorf("table %q: %v", t.def.Name, err)
		}
		t.apply(&rec, func(ranges []lsnRange) {
			for _, rg := range ranges {
				for i := rg.lo; i < rg.hi; i++ {
					targets[i].deleted = rg.lsn
				}
			}
		})
		return nil
	case repl.KindUpdate:
		targets, tidx, news, err := t.matchReplacements(rec.OldRows, rec.Rows)
		if err != nil {
			return fmt.Errorf("table %q: %v", t.def.Name, err)
		}
		t.apply(&rec, func(ranges []lsnRange) {
			for _, rg := range ranges {
				for i := rg.lo; i < rg.hi; i++ {
					old := targets[i]
					old.deleted = rg.lsn
					t.slots[tidx[i]] = &rowVersion{row: news[i], created: rg.lsn, next: old}
				}
			}
		})
		return nil
	}
	return fmt.Errorf("storage: unexpected DML record kind %d", rec.Kind)
}

// matchImages resolves deleted row images to live versions by multiset match
// in slot order — the order the primary's scan removed them in, so the
// surviving rows come out byte-identical to the primary's.
func (t *Table) matchImages(images []value.Row) ([]*rowVersion, error) {
	pending := make(map[string]int, len(images))
	var keyBuf []byte
	for _, img := range images {
		keyBuf = img.AppendKey(keyBuf[:0])
		pending[string(keyBuf)]++
	}
	live, _ := t.liveVersions()
	targets := make([]*rowVersion, 0, len(images))
	for _, v := range live {
		keyBuf = v.row.AppendKey(keyBuf[:0])
		if n := pending[string(keyBuf)]; n > 0 {
			pending[string(keyBuf)] = n - 1
			targets = append(targets, v)
		}
	}
	if len(targets) != len(images) {
		return nil, fmt.Errorf("replica diverged: %d of %d deleted row images not found", len(images)-len(targets), len(images))
	}
	return targets, nil
}

// matchReplacements resolves updated old-row images to live versions,
// matching in slot order like matchImages. Duplicate old images consume
// their new images in order, reproducing the primary's scan exactly. The
// returned news are reordered into slot order alongside their targets.
func (t *Table) matchReplacements(olds, news []value.Row) ([]*rowVersion, []int, []value.Row, error) {
	if len(olds) != len(news) {
		return nil, nil, nil, fmt.Errorf("replica diverged: update record with %d old and %d new images", len(olds), len(news))
	}
	queue := make(map[string][]int, len(olds))
	var keyBuf []byte
	for i, img := range olds {
		keyBuf = img.AppendKey(keyBuf[:0])
		queue[string(keyBuf)] = append(queue[string(keyBuf)], i)
	}
	live, idxs := t.liveVersions()
	var targets []*rowVersion
	var tidx []int
	var ordered []value.Row
	for i, v := range live {
		keyBuf = v.row.AppendKey(keyBuf[:0])
		if q := queue[string(keyBuf)]; len(q) > 0 {
			ordered = append(ordered, news[q[0]])
			queue[string(keyBuf)] = q[1:]
			targets = append(targets, v)
			tidx = append(tidx, idxs[i])
		}
	}
	if len(targets) != len(olds) {
		return nil, nil, nil, fmt.Errorf("replica diverged: %d of %d updated row images not found", len(olds)-len(targets), len(olds))
	}
	return targets, tidx, ordered, nil
}

func keyOf(name string) string {
	b := []byte(name)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
