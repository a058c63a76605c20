// Package storage implements the in-memory heap storage engine under the
// Perm catalog: multi-versioned row slots per table with snapshot-LSN
// visibility, cursors that read them in place, snapshot-isolation
// transactions, and a store that ties table data to the catalog.
//
// Every write is a transaction (txn.go; outside BEGIN, Table.Write commits a
// one-statement Txn), and change records from a feed, the WAL or a snapshot
// take the apply path (Store.ApplyChange). Both stamp versions through
// Table.apply, which also sets the catalog's row count from the live count.
package storage

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"perm/internal/catalog"
	"perm/internal/repl"
	"perm/internal/value"
)

// Table holds the rows of one base relation in a heap of version slots, the
// newest version of each row with superseded ones chained behind it
// (mvcc.go). A reader walks the heap it loaded with a Cursor at its snapshot
// LSN, with no lock and no copy, and never blocks on writers. A write runs
// under writeMu in two phases: it decides (a WHERE subquery may scan any
// table, this one too), then under the store gate appends its change record,
// which assigns its LSNs, stamps versions and publishes the visible LSN.
type Table struct {
	writeMu sync.Mutex
	def     *catalog.TableDef
	// store owns the gate, the log and the durability gate writes go through.
	store *Store
	// heap is the published slot list readers load (mvcc.go).
	heap atomic.Pointer[heap]
	// live counts the slots whose newest version is live (under writeMu).
	live int
}

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

// ErrBadRowImage is wrapped by every refusal of a change record's row image
// (from a replication peer, a WAL segment or a snapshot) that does not fit
// its table; nothing of the record is installed.
var ErrBadRowImage = errors.New("storage: row image does not fit its table")

// fits checks a row image the way stored rows already are: arity, each value
// of its column's type or NULL, no NULL in a NOT NULL column. Unlike
// checkRow it coerces, and so copies, nothing.
func (t *Table) fits(row value.Row) error {
	if len(row) != len(t.def.Columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrBadRowImage, len(row), len(t.def.Columns))
	}
	for i, v := range row {
		col := t.def.Columns[i]
		if v.IsNull() && col.NotNull {
			return fmt.Errorf("%w: NULL in NOT NULL column %q", ErrBadRowImage, col.Name)
		}
		if !v.IsNull() && v.Kind() != col.Type {
			return fmt.Errorf("%w: %s value in %s column %q", ErrBadRowImage, v.Kind(), col.Type, col.Name)
		}
	}
	return nil
}

// lsnRange says which rows of a (possibly split) change record landed at
// which LSN: record rows [lo:hi) carry lsn, and so do their versions.
type lsnRange struct {
	lsn    uint64
	lo, hi int
}

// maxRecordRows and maxRecordBytes cap one change record: a huge mutation is
// logged as several consecutive records, so an encoded record always fits a
// wire frame (one that cannot would wedge every subscription on it). The byte
// bound is approximate: 8 MiB leaves an 8× margin under the 64 MiB frame
// limit. The split happens inside one gate-held apply, so readers see all or
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

// bulkLSN is the bulk-load stamp Restore applies a snapshot's records with:
// nothing is logged, so no WAL hook fires and no durability wait follows,
// and what it installs is created at 0, before every pinnable snapshot. A
// feed or WAL record never carries it: both take only the log's next LSN.
const bulkLSN = math.MaxUint64

// appendRecord routes a record to the log and reports which LSNs its rows
// landed at: a record without an LSN (a primary's mutation) takes the next
// ones, split when oversized; one carrying an LSN (a replica's replay, split
// by the primary) lands at exactly it; one at bulkLSN lands at 0, unlogged.
// A failed AppendAt means the replica's continuity check was bypassed: the
// record is dropped (nil return) rather than corrupting the LSN space.
func appendRecord(log *repl.ChangeLog, rec repl.Record) []lsnRange {
	if rec.LSN == bulkLSN {
		return []lsnRange{{lsn: 0, lo: 0, hi: len(rec.Rows)}}
	}
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
		j := cutRecord(rec.Rows, rec.OldRows, i)
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

// cutRecord returns the end of the record that starts at row i: rows (with
// their old images, when oldRows is not nil) up to maxRecordRows and
// maxRecordBytes. The change log and snapshots both cut records by it.
func cutRecord(rows, oldRows []value.Row, i int) int {
	j, bytes := i, 0
	for j < len(rows) && j-i < maxRecordRows {
		b := approxRowBytes(rows[j])
		if oldRows != nil {
			b += approxRowBytes(oldRows[j])
		}
		// Always take at least one row; a single row beyond the byte bound
		// still has to travel somehow.
		if j > i && bytes+b > maxRecordBytes {
			break
		}
		bytes += b
		j++
	}
	return j
}

// apply is the apply phase of one change record: it appends the record
// (assigning LSNs), lets stamp install and stamp versions with them, and sets
// the catalog's row count — the one place it is set. Callers hold writeMu and
// the store gate. It returns false, having applied nothing, when the log
// refused a replica-positioned record.
func (t *Table) apply(rec *repl.Record, stamp func(ranges []lsnRange)) bool {
	ranges := appendRecord(t.store.log, *rec)
	if ranges == nil {
		return false
	}
	stamp(ranges)
	t.store.catalog.SetRowCount(t.def.Name, t.live)
	return true
}

// insertLocked appends one new version per row, stamped per LSN range.
// Callers are inside an apply's stamp callback.
func (t *Table) insertLocked(rows []value.Row, ranges []lsnRange) {
	h := t.heap.Load()
	for _, rg := range ranges {
		for _, row := range rows[rg.lo:rg.hi] {
			h = h.push(&rowVersion{row: row, created: rg.lsn})
		}
	}
	t.heap.Store(h)
	t.live += len(rows)
}

// target is one row a change supersedes: the version, the slot it heads,
// and for an update the row that replaces it (nil for a delete).
type target struct {
	v    *rowVersion
	slot int
	row  value.Row
}

// supersedeLocked stamps each target deleted at its LSN range and, for an
// update, installs its replacement in its slot as the slot's newest version,
// its chunk's zone widened first. Callers are inside an apply's stamp
// callback.
func (t *Table) supersedeLocked(targets []target, update bool, ranges []lsnRange) {
	h := t.heap.Load()
	for _, rg := range ranges {
		for _, tg := range targets[rg.lo:rg.hi] {
			tg.v.deleted.Store(rg.lsn)
			if update {
				v := &rowVersion{row: tg.row, created: rg.lsn}
				v.next.Store(tg.v)
				h.chunks[tg.slot/chunkSlots].widen(v.row)
				h.slot(tg.slot).Store(v)
			} else {
				t.live--
			}
		}
	}
}

// Write runs op, one DML statement on t. Inside a transaction (x not nil)
// op buffers its effects until x commits. Outside one, op runs in a
// one-statement transaction: Write takes t's writeMu before it pins the
// snapshot and holds it through the commit, so op decides against the
// newest versions, no other writer can change them first, and the
// statement never fails with ErrWriteConflict. op writes to t only.
func (t *Table) Write(x *Txn, op func(x *Txn) (int, error)) (int, error) {
	if x != nil {
		return op(x)
	}
	if err := t.store.writeAllowed(); err != nil {
		return 0, err
	}
	n, err := t.autocommit(op)
	if err == nil && n > 0 {
		err = t.store.WaitDurable()
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// autocommit runs op in a one-statement transaction and commits it, all
// under t's writeMu.
func (t *Table) autocommit(op func(x *Txn) (int, error)) (int, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	x := t.store.Begin()
	defer x.finish()
	n, err := op(x)
	if err != nil {
		return 0, err
	}
	return n, x.commitLocked(x.plans())
}

// Insert appends a row after type checking. It returns the number of rows
// inserted (always 1 on success).
func (t *Table) Insert(row value.Row) (int, error) {
	return t.InsertBatch([]value.Row{row})
}

// InsertBatch appends many rows, failing atomically on the first bad row.
func (t *Table) InsertBatch(rows []value.Row) (int, error) {
	return t.Write(nil, func(x *Txn) (int, error) { return x.Insert(t, rows) })
}

// Store couples a catalog with the physical tables. mu guards the
// catalog/tables pairing (DDL holds it exclusively), and gate serializes
// apply phases: the record append, version stamping and visible-LSN
// publication of one mutation or commit happen as a unit, so a reader pinning
// the visible position sees whole changes and snapshot collection an exact
// LSN. Readers never take the gate.
type Store struct {
	mu      sync.RWMutex
	gate    sync.Mutex
	catalog *catalog.Catalog
	tables  map[string]*Table
	// log is the store's change log: DML appends under the gate, DDL under
	// mu (exclusive) and the gate.
	log *repl.ChangeLog
	// visible is the LSN up to which every change is stamped and installed:
	// readers pin it, appliers advance it last under the gate. It equals
	// log.LastLSN() whenever the gate is free.
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
	// creation, adopted on Restore. A follower whose origin differs from the
	// primary's must bootstrap from a snapshot: its LSNs count another past.
	origin atomic.Uint64
	// dur holds the Durability gate (nil: in-memory), loaded on every write.
	dur atomic.Pointer[Durability]
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

// SetDurability installs (or, with nil, removes) the durability gate. The
// WAL manager calls it after recovery, before the store serves traffic.
func (s *Store) SetDurability(d Durability) { s.dur.Store(&d) }

// Durability returns the installed durability gate (nil when the store is
// purely in-memory). The cluster layer uses it to wrap the WAL gate with a
// replica-acknowledgment quorum without the two layers knowing each other.
func (s *Store) Durability() Durability {
	if d := s.dur.Load(); d != nil {
		return *d
	}
	return nil
}

// WaitDurable blocks until the store's current change-log position is
// durable. Mutations call it after their critical section (durability is
// monotone, so waiting for a newer position group-commits concurrent
// writers); a replication follower calls it once per applied batch.
func (s *Store) WaitDurable() error {
	d := s.Durability()
	if d == nil {
		return nil
	}
	return d.WaitDurable(s.log.LastLSN())
}

// writeAllowed refuses new mutations while the durability gate's sticky
// failure stands; reads are unaffected.
func (s *Store) writeAllowed() error {
	d := s.Durability()
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

// gated runs apply under the gate and then publishes the log's end as the
// visible position, so readers and snapshot collection see all of a change
// or none of it.
func (s *Store) gated(apply func()) {
	s.gate.Lock()
	defer s.gate.Unlock()
	apply()
	s.visible.Store(s.log.LastLSN())
}

// logDDL appends a catalog-change record under the gate and publishes the
// new visible position. Callers hold s.mu.
func (s *Store) logDDL(rec repl.Record) {
	s.gated(func() { appendRecord(s.log, rec) })
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
	t := &Table{def: def, store: s}
	ints := make([]bool, len(def.Columns))
	for i, c := range def.Columns {
		ints[i] = c.Type == value.KindInt
	}
	t.heap.Store(&heap{ints: ints})
	s.tables[keyOf(def.Name)] = t
	return t
}

// DropTable removes definition and data atomically.
func (s *Store) DropTable(name string) error {
	return s.change(repl.Record{Kind: repl.KindDropTable, Table: name})
}

// CreateView registers a view in the catalog and logs the change. View DDL
// must go through the store (not the catalog directly) on any database that
// may have replication followers.
func (s *Store) CreateView(def *catalog.ViewDef) error {
	return s.change(repl.Record{Kind: repl.KindCreateView, Table: def.Name, ViewText: def.Text, Columns: def.Columns})
}

// DropView removes a view and logs the change.
func (s *Store) DropView(name string) error {
	return s.change(repl.Record{Kind: repl.KindDropView, Table: name})
}

// change makes one of this store's own changes through the apply path, at
// the next LSN, and waits until it is durable.
func (s *Store) change(rec repl.Record) error {
	if err := s.ApplyChange(rec); err != nil {
		return err
	}
	return s.WaitDurable()
}

// Table returns the heap for the named table, or nil.
func (s *Store) Table(name string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[keyOf(name)]
}

// Analyze refreshes the catalog statistics (row count and per-column distinct
// fraction) for the named table, or for all tables when name is empty. It
// counts the distinct values of every column over the visible rows, and the
// ANALYZE record — one row (table, column, fraction) per column — installs
// them here as it does on a replica.
func (s *Store) Analyze(name string) error {
	rec := repl.Record{Kind: repl.KindAnalyze, Table: name}
	names := []string{name}
	if name == "" {
		names = s.catalog.TableNames()
	}
	// Every column is counted at one pinned snapshot.
	snap := s.PinSnapshot()
	defer s.UnpinSnapshot(snap)
	var key []byte
	for _, n := range names {
		t := s.Table(n)
		if t == nil {
			return fmt.Errorf("table %q does not exist", n)
		}
		for ci, col := range t.def.Columns {
			// Keys are built in one scratch buffer: only a value not seen
			// before allocates (its map key).
			seen, rows, c := make(map[string]struct{}), 0, t.Scan(snap)
			for r := c.Next(); r != nil; r, rows = c.Next(), rows+1 {
				key = r[ci].AppendKey(key[:0])
				if _, dup := seen[string(key)]; !dup {
					seen[string(key)] = struct{}{}
				}
			}
			frac := 1.0
			if rows > 0 {
				frac = float64(len(seen)) / float64(rows)
			}
			rec.Rows = append(rec.Rows, value.Row{value.NewString(t.def.Name), value.NewString(col.Name), value.NewFloat(frac)})
		}
	}
	return s.change(rec)
}

// installStats applies an ANALYZE record: it installs the fractions it
// carries at the record's LSN, under the store lock and the gate, so a
// primary and its replicas hold the same bits. Nothing is rescanned (an
// older record without fractions installs nothing); a dropped table is
// skipped.
func (s *Store) installStats(rec repl.Record) error {
	for i, r := range rec.Rows {
		if len(r) != 3 || r[0].Kind() != value.KindString || r[1].Kind() != value.KindString || r[2].Kind() != value.KindFloat {
			return fmt.Errorf("%w: ANALYZE row %d is not (table, column, fraction)", ErrBadRowImage, i+1)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.gated(func() {
		appendRecord(s.log, rec)
		for _, r := range rec.Rows {
			if t := s.tables[keyOf(r[0].Str())]; t != nil {
				s.catalog.SetDistinctFrac(t.def.Name, r[1].Str(), r[2].Float())
			}
		}
	})
	return nil
}

// --- the apply path ---------------------------------------------------------

// ApplyChange is the one path a change record takes into the store: from a
// primary's feed, WAL replay, a snapshot (Restore, at bulkLSN), and this
// store's own DROP TABLE, view DDL and ANALYZE (Store.change). It performs
// the change and logs the record at its LSN, atomically with respect to
// snapshot collection and readers. Records arrive in LSN order. DML on a
// relation this store does not have is logged and skipped (older WAL
// segments may carry it). A row image that does not fit its table
// (ErrBadRowImage) or match the live rows is an error, with nothing applied.
func (s *Store) ApplyChange(rec repl.Record) error {
	if err := s.writeAllowed(); err != nil {
		return err
	}
	switch rec.Kind {
	case repl.KindCreateTable:
		_, err := s.createTable(&catalog.TableDef{Name: rec.Table, Columns: slices.Clone(rec.Columns)}, rec.LSN)
		return err
	case repl.KindDropTable:
		return s.ddl(rec, func() error {
			if err := s.catalog.DropTable(rec.Table); err != nil {
				return err
			}
			delete(s.tables, keyOf(rec.Table))
			return nil
		})
	case repl.KindCreateView:
		return s.ddl(rec, func() error {
			return s.catalog.CreateView(&catalog.ViewDef{Name: rec.Table, Text: rec.ViewText, Columns: slices.Clone(rec.Columns)})
		})
	case repl.KindDropView:
		return s.ddl(rec, func() error { return s.catalog.DropView(rec.Table) })
	case repl.KindAnalyze:
		return s.installStats(rec)
	case repl.KindInsert, repl.KindDelete, repl.KindUpdate:
		t := s.Table(rec.Table)
		if t == nil {
			// Mutation against a dropped table: a no-op on the primary's
			// visible state too. Keep the LSN space dense by logging the
			// skip.
			return s.ddl(rec, nil)
		}
		if err := t.applyChange(rec); err != nil {
			return fmt.Errorf("table %q: %w", t.def.Name, err)
		}
		return nil
	}
	return fmt.Errorf("storage: unknown change record kind %d", rec.Kind)
}

// ddl makes a catalog change (none, for a change whose relation is gone)
// and logs its record under the store lock.
func (s *Store) ddl(rec repl.Record, change func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if change != nil {
		if err := change(); err != nil {
			return err
		}
	}
	s.logDDL(rec)
	return nil
}

// applyChange performs one DML record on the table: inserted and new images
// must fit it as they are, deleted and old images must match live versions.
func (t *Table) applyChange(rec repl.Record) error {
	if rec.Kind != repl.KindDelete {
		for i, row := range rec.Rows {
			if err := t.fits(row); err != nil {
				return fmt.Errorf("row %d: %w", i+1, err)
			}
		}
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	stamp := func(ranges []lsnRange) { t.insertLocked(rec.Rows, ranges) }
	if rec.Kind != repl.KindInsert {
		olds, news := rec.Rows, []value.Row(nil)
		if rec.Kind == repl.KindUpdate {
			if len(rec.OldRows) != len(rec.Rows) {
				return fmt.Errorf("replica diverged: update record with %d old and %d new images", len(rec.OldRows), len(rec.Rows))
			}
			olds, news = rec.OldRows, rec.Rows
		}
		targets, err := t.matchImages(olds, news)
		if err != nil {
			return err
		}
		stamp = func(ranges []lsnRange) { t.supersedeLocked(targets, news != nil, ranges) }
	}
	t.store.gated(func() { t.apply(&rec, stamp) })
	return nil
}

// matchImages resolves deleted or updated row images to live versions by
// multiset match in slot order, the order the primary's scan met them in.
// For an update, news are the new images parallel to olds; duplicate old
// images consume them in order. Callers hold writeMu, so the live versions
// stay put until they apply.
func (t *Table) matchImages(olds, news []value.Row) ([]target, error) {
	queue := make(map[string][]int, len(olds))
	var keyBuf []byte
	for i, img := range olds {
		keyBuf = img.AppendKey(keyBuf[:0])
		queue[string(keyBuf)] = append(queue[string(keyBuf)], i)
	}
	targets := make([]target, 0, len(olds))
	c := t.Scan(bulkLSN) // every slot's newest version, if live
	for tg, ok := c.next(); ok; tg, ok = c.next() {
		keyBuf = tg.row.AppendKey(keyBuf[:0])
		if q := queue[string(keyBuf)]; len(q) > 0 {
			tg.row = nil
			if news != nil {
				tg.row = news[q[0]]
			}
			queue[string(keyBuf)] = q[1:]
			targets = append(targets, tg)
		}
	}
	if len(targets) != len(olds) {
		return nil, fmt.Errorf("replica diverged: %d of %d row images not found", len(olds)-len(targets), len(olds))
	}
	return targets, nil
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
