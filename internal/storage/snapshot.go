package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"perm/internal/catalog"
	"perm/internal/repl"
	"perm/internal/value"
	"perm/internal/wire"
)

// Snapshot persistence: a snapshot is a log segment. The whole database is
// written as the change records the WAL and the replication feed carry,
// framed and checksummed as a WAL segment frames them, and restored through
// the apply path those records take (Store.ApplyChange). Eagerly
// materialized provenance so survives restarts — the paper's "store
// provenance for later investigation" — and a damaged copy is refused
// instead of restoring different witnesses.
//
// The stream is the magic "PERMSNAP" and a version byte (4), then frames:
//
//   - the uvarint LSN and history origin the snapshot was taken at;
//   - per table a KindCreateTable record, its rows as KindInsert records cut
//     as the change log cuts a large mutation, and, when it has statistics,
//     a KindAnalyze record of (table, column, fraction) rows by column;
//   - a KindCreateView record per view;
//   - the end mark: "END" and repl.FrameSum over every frame before it, so
//     a stream cut at a frame boundary, or with a frame dropped, repeated
//     or moved, is refused. Nothing may follow it.
//
// Version 3 (the same records, unframed) and version 2 and older (gob
// streams) are refused by name, with no converter.
//
// Save is an online, consistent backup in two phases. collect runs under
// the store lock (shared) and the apply gate, the only moment writers wait:
// it pins the log's position as a snapshot, opens a cursor on every table's
// heap and captures the catalog. Encoding then runs outside all locks: it
// walks each pinned heap (the pin keeps vacuum from trimming its versions)
// into one reused buffer of at most maxRecordRows row headers, a write per
// insert record, and releases the pin at the end. An apply holds the gate
// for its whole critical section, so the image is one point in time.

const (
	snapshotMagic   = "PERMSNAP"
	snapshotVersion = 4
	// snapshotEnd opens the end mark's payload. No record encoding starts
	// with it: its second byte is no record kind.
	snapshotEnd = "END"
)

// snapTable is one table as collect captured it.
type snapTable struct {
	def      *catalog.TableDef
	rows     Cursor
	distinct map[string]float64
}

// snapshot is what collect captures under the locks and SaveLSN encodes
// outside them; lsn stays pinned until SaveLSN is done.
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
	defer s.UnpinSnapshot(snap.lsn)
	buf := append([]byte(snapshotMagic), snapshotVersion)
	buf = repl.AppendFrame(buf, binary.AppendUvarint(binary.AppendUvarint(nil, snap.lsn), snap.origin))
	sum := repl.FrameSum(0, buf[len(snapshotMagic)+1:])
	put := func(rec repl.Record) {
		start := len(buf)
		buf = repl.AppendRecordFrame(buf, rec)
		sum = repl.FrameSum(sum, buf[start:])
	}
	var rows []value.Row // the next insert record's rows, and what follows them
	for _, t := range snap.tables {
		put(repl.Record{Kind: repl.KindCreateTable, Table: t.def.Name, Columns: t.def.Columns})
		for {
			for len(rows) < maxRecordRows {
				r := t.rows.Next()
				if r == nil {
					break
				}
				rows = append(rows, r)
			}
			if len(rows) == 0 {
				break
			}
			j := cutRecord(rows, nil, 0)
			put(repl.Record{Kind: repl.KindInsert, Table: t.def.Name, Rows: rows[:j]})
			if _, err := w.Write(buf); err != nil {
				return 0, err
			}
			buf, rows = buf[:0], rows[:copy(rows, rows[j:])]
		}
		if len(t.distinct) > 0 {
			put(repl.Record{Kind: repl.KindAnalyze, Table: t.def.Name, Rows: statRows(t.def.Name, t.distinct)})
		}
	}
	for _, v := range snap.views {
		put(repl.Record{Kind: repl.KindCreateView, Table: v.Name, ViewText: v.Text, Columns: v.Columns})
	}
	buf = repl.AppendFrame(buf, binary.LittleEndian.AppendUint32([]byte(snapshotEnd), sum))
	_, err = w.Write(buf)
	return snap.lsn, err
}

// statRows is a table's distinct fractions as ANALYZE record rows, sorted by
// column.
func statRows(table string, distinct map[string]float64) []value.Row {
	cols := make([]string, 0, len(distinct))
	for c := range distinct {
		cols = append(cols, c)
	}
	slices.Sort(cols)
	rows := make([]value.Row, len(cols))
	for i, col := range cols {
		rows[i] = value.Row{value.NewString(table), value.NewString(col), value.NewFloat(distinct[col])}
	}
	return rows
}

// collect captures the snapshot under the store lock and the write gate.
func (s *Store) collect() (*snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.gate.Lock()
	defer s.gate.Unlock()
	// Mutations append their change record inside the same critical sections
	// the two locks above exclude (gate for DML and ANALYZE, mu for DDL), so
	// the pinned LSN (the visible position: the log's end while the gate is
	// held), the cursors and the statistics collected below describe the same
	// instant.
	snap := &snapshot{lsn: s.PinSnapshot(), origin: s.Origin()}
	for _, name := range s.catalog.TableNames() {
		t := s.tables[keyOf(name)]
		if t == nil {
			s.UnpinSnapshot(snap.lsn)
			return nil, fmt.Errorf("storage: table %q in catalog but not in store", name)
		}
		// RowCount is restored from the rows themselves.
		snap.tables = append(snap.tables, snapTable{def: t.def, rows: t.Scan(snap.lsn), distinct: s.catalog.TableStats(name).DistinctFrac})
	}
	for _, name := range s.catalog.ViewNames() {
		snap.views = append(snap.views, s.catalog.View(name))
	}
	return snap, nil
}

// Restore loads a snapshot written by Save into an EMPTY store (it fails if
// any relation exists), a frame at a time as the stream arrives, and reads
// the stream to its end: bytes after the end mark are damage. Each record
// goes through ApplyChange under the bulk-load stamp (bulkLSN); then the
// log is positioned at the snapshot's LSN, so the store continues the saved
// store's LSN space (a follower restored from it resumes the primary's feed
// right after it). Every failure — a damaged stream, one the reader could
// not deliver whole, a record that does not apply — is reported as
// "storage: corrupt snapshot: …".
func (s *Store) Restore(r io.Reader) error {
	if err := s.restore(bufio.NewReaderSize(r, 64<<10)); err != nil {
		return fmt.Errorf("storage: corrupt snapshot: %w", err)
	}
	return nil
}

func (s *Store) restore(r io.Reader) error {
	head := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil || !bytes.HasPrefix(head, []byte(snapshotMagic)) {
		return fmt.Errorf("no %s header (snapshot version 2 and older were gob streams, which this build does not read)", snapshotMagic)
	}
	if v := head[len(snapshotMagic)]; v != snapshotVersion {
		return fmt.Errorf("unsupported snapshot version %d (want %d; version 3 was unframed records, which this build does not read)", v, snapshotVersion)
	}
	fr := repl.NewFrameReader(r)
	p, err := fr.Next()
	if err != nil {
		return fmt.Errorf("no header frame: %w", err)
	}
	hd := wire.NewReader(p)
	lsn, origin := hd.Uvarint(), hd.Uvarint()
	if hd.Err() != nil || hd.Remaining() != 0 {
		return errors.New("malformed header frame")
	}
	for {
		sum := fr.Sum()
		p, err := fr.Next()
		if err == io.EOF {
			return errors.New("the stream ends before its end mark")
		}
		if err != nil {
			return err
		}
		if bytes.HasPrefix(p, []byte(snapshotEnd)) {
			if !bytes.Equal(p, binary.LittleEndian.AppendUint32([]byte(snapshotEnd), sum)) {
				return errors.New("the end mark does not match the frames before it")
			}
			break
		}
		rec, err := repl.ReadRecord(wire.NewReader(p))
		if err != nil {
			return err
		}
		// The bulk stamp is only sound for records that create: a deleted
		// or superseded version stamped 0 would still look live.
		if k := rec.Kind; k != repl.KindCreateTable && k != repl.KindInsert && k != repl.KindAnalyze && k != repl.KindCreateView {
			return fmt.Errorf("a snapshot holds no %s record", k)
		}
		rec.LSN = bulkLSN
		if err := s.ApplyChange(rec); err != nil {
			return err
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		return errors.New("bytes follow the end mark")
	}
	s.log.Reset(lsn)
	s.visible.Store(lsn)
	s.AdoptOrigin(origin)
	return nil
}
