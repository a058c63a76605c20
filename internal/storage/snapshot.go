package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"perm/internal/catalog"
	"perm/internal/repl"
	"perm/internal/value"
	"perm/internal/wire"
)

// Snapshot persistence: the whole database (schema, rows, views, statistics)
// is written as the change records the WAL and the replication feed already
// carry, so one decoder (repl.ReadRecord) reads all three. This keeps eagerly
// materialized provenance tables available across process restarts — the
// "store provenance for later investigation" part of the paper's story.
//
// The stream is the magic "PERMSNAP", a version byte (3), and the uvarint LSN
// and history origin it was taken at; then per table a KindCreateTable
// record, the table's DistinctFrac (a uvarint count, then each column name
// and its 8-byte big-endian float, sorted by column) and its rows as
// KindInsert records, cut as the change log cuts a large mutation; then a
// KindCreateView record per view. Version 2 and older snapshots were gob
// streams and are refused.
//
// Save is an online, consistent backup. It runs in two phases:
//
//  1. collect — under the store lock (shared, so queries keep running) and
//     the apply gate (so no mutation's apply can interleave), it captures
//     the visible rows of every table plus the catalog state. Tables whose
//     materialization cache is warm contribute a slice header; only
//     recently written tables pay a version walk. This is the only moment
//     writers wait.
//  2. encode — the records are written outside all locks, straight from the
//     captured rows through one reused buffer, a write per insert record.
//     The captured slices stay valid because materialized views and their
//     rows are immutable (mutations create new versions, they never touch
//     old ones).
//
// The result is a point-in-time image across all tables at the captured
// LSN: each apply holds the gate for its whole critical section — a
// transaction commit for all its tables at once — so no statement's (or
// transaction's) write is ever half-visible. Concurrent readers are never
// blocked at all.

const (
	snapshotMagic   = "PERMSNAP"
	snapshotVersion = 3
)

// snapTable is one table as collect captured it.
type snapTable struct {
	def      *catalog.TableDef
	rows     []value.Row
	distinct map[string]float64
}

// snapshot is what collect captures under the locks and SaveLSN encodes
// outside them.
type snapshot struct {
	lsn, origin uint64
	tables      []snapTable
	views       []*catalog.ViewDef
}

// Save writes the full store to w as a consistent point-in-time snapshot
// without blocking concurrent readers (and blocking writers only for the
// header-collection instant).
func (s *Store) Save(w io.Writer) error {
	_, err := s.SaveLSN(w)
	return err
}

// SaveLSN is Save returning the change-log position the snapshot captures:
// a replica restored from this stream is exactly the primary as of that LSN
// and subscribes to the change feed from there. The LSN also travels inside
// the stream itself (Restore repositions the log from it).
func (s *Store) SaveLSN(w io.Writer) (uint64, error) {
	snap, err := s.collect()
	if err != nil {
		return 0, err
	}
	buf := append([]byte(snapshotMagic), snapshotVersion)
	buf = binary.AppendUvarint(buf, snap.lsn)
	buf = binary.AppendUvarint(buf, snap.origin)
	for _, t := range snap.tables {
		buf = repl.AppendRecord(buf, repl.Record{Kind: repl.KindCreateTable, Table: t.def.Name, Columns: t.def.Columns})
		cols := make([]string, 0, len(t.distinct))
		for c := range t.distinct {
			cols = append(cols, c)
		}
		slices.Sort(cols)
		buf = binary.AppendUvarint(buf, uint64(len(cols)))
		for _, c := range cols {
			buf = binary.BigEndian.AppendUint64(wire.AppendString(buf, c), math.Float64bits(t.distinct[c]))
		}
		for i := 0; i < len(t.rows); {
			j := cutRecord(t.rows, nil, i)
			buf = repl.AppendRecord(buf, repl.Record{Kind: repl.KindInsert, Table: t.def.Name, Rows: t.rows[i:j]})
			if _, err := w.Write(buf); err != nil {
				return 0, err
			}
			buf, i = buf[:0], j
		}
	}
	for _, v := range snap.views {
		buf = repl.AppendRecord(buf, repl.Record{Kind: repl.KindCreateView, Table: v.Name, ViewText: v.Text, Columns: v.Columns})
	}
	_, err = w.Write(buf)
	return snap.lsn, err
}

// collect captures the snapshot under the store lock and the write gate.
func (s *Store) collect() (*snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.gate.Lock()
	defer s.gate.Unlock()
	// Mutations append their change record inside the same critical sections
	// the two locks above exclude (gate for DML, mu for DDL), so this LSN and
	// the row slices collected below describe the same instant.
	snap := &snapshot{lsn: s.log.LastLSN(), origin: s.Origin()}
	for _, name := range s.catalog.TableNames() {
		t := s.tables[keyOf(name)]
		if t == nil {
			return nil, fmt.Errorf("storage: table %q in catalog but not in store", name)
		}
		// DistinctFrac stays advisory (DML refreshes catalog stats after
		// releasing the gate); RowCount is restored from the rows themselves.
		snap.tables = append(snap.tables, snapTable{def: t.Def(), rows: t.Snapshot(), distinct: s.catalog.TableStats(name).DistinctFrac})
	}
	for _, name := range s.catalog.ViewNames() {
		snap.views = append(snap.views, s.catalog.View(name))
	}
	return snap, nil
}

// Restore loads a snapshot written by Save into an EMPTY store. It fails if
// any relation already exists. Restoring is a bulk load, not a sequence of
// logical changes: nothing is appended to the change log; instead the log is
// positioned at the snapshot's LSN, so the restored store continues the
// saved store's LSN space (a follower restored from this snapshot resumes
// the primary's feed right after it). Every failure to decode the stream is
// reported as "storage: corrupt snapshot: …".
func (s *Store) Restore(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("storage: read snapshot: %w", err)
	}
	if err := s.restore(b); err != nil {
		return fmt.Errorf("storage: corrupt snapshot: %w", err)
	}
	return nil
}

func (s *Store) restore(b []byte) error {
	if !bytes.HasPrefix(b, []byte(snapshotMagic)) {
		return fmt.Errorf("no %s header (snapshot version 2 and older were gob streams, which this build does not read)", snapshotMagic)
	}
	rd := wire.NewReader(b[len(snapshotMagic):])
	if v := rd.Byte(); v != snapshotVersion {
		return fmt.Errorf("unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	lsn, origin := rd.Uvarint(), rd.Uvarint()
	var tab *Table
	rows := 0 // rows loaded into tab so far
	for rd.Err() == nil && rd.Remaining() > 0 {
		rec, err := repl.ReadRecord(rd)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case repl.KindCreateTable:
			if tab, err = s.loadTable(&catalog.TableDef{Name: rec.Table, Columns: rec.Columns}); err != nil {
				return err
			}
			rows = 0
			for n := rd.Uvarint(); rd.Err() == nil && n > 0; n-- {
				col, bits := rd.String(), rd.Bytes(8)
				if rd.Err() == nil {
					s.catalog.SetDistinctFrac(rec.Table, col, math.Float64frombits(binary.BigEndian.Uint64(bits)))
				}
			}
		case repl.KindInsert:
			if tab == nil || rec.Table != tab.def.Name {
				return fmt.Errorf("rows for table %q outside its table", rec.Table)
			}
			if err := tab.load(rec.Rows); err != nil {
				return fmt.Errorf("table %q: %v", rec.Table, err)
			}
			rows += len(rec.Rows)
			s.catalog.SetRowCount(rec.Table, rows)
		case repl.KindCreateView:
			if err := s.catalog.CreateView(&catalog.ViewDef{Name: rec.Table, Text: rec.ViewText, Columns: rec.Columns}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected %s record", rec.Kind)
		}
	}
	if err := rd.Err(); err != nil {
		return err
	}
	s.log.Reset(lsn)
	s.visible.Store(lsn)
	if origin != 0 {
		s.origin.Store(origin)
	}
	return nil
}

// loadTable registers and attaches a table without logging a change record.
func (s *Store) loadTable(def *catalog.TableDef) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.catalog.CreateTable(def); err != nil {
		return nil, err
	}
	return s.attach(def), nil
}

// load type-checks and installs rows without logging a change record. The
// versions are stamped created=0 — a bulk-loaded row predates every
// pinnable snapshot, exactly as the snapshot's LSN says it does.
func (t *Table) load(rows []value.Row) error {
	checked := make([]value.Row, len(rows))
	for i, r := range rows {
		c, err := t.checkRow(r)
		if err != nil {
			return fmt.Errorf("row %d: %v", i+1, err)
		}
		checked[i] = c
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	t.apply(nil, func([]lsnRange) {
		for _, r := range checked {
			t.slots = append(t.slots, &rowVersion{row: r})
		}
	})
	return nil
}
