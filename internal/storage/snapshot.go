package storage

import (
	"encoding/gob"
	"fmt"
	"io"

	"perm/internal/catalog"
	"perm/internal/value"
)

// Snapshot persistence: the whole database (schema, rows, views, statistics)
// serializes to a single gob stream. This keeps eagerly materialized
// provenance tables available across process restarts — the "store
// provenance for later investigation" part of the paper's story.
//
// Save is an online, consistent backup. It runs in two phases:
//
//  1. collect — under the store lock (shared, so queries keep running) and
//     the apply gate (so no mutation's apply can interleave), it captures
//     the visible rows of every table plus the catalog state. Tables whose
//     materialization cache is warm contribute a slice header; only
//     recently written tables pay a version walk. This is the only moment
//     writers wait.
//  2. encode — the gob stream is written outside all locks. The captured
//     slices stay valid because materialized views and their rows are
//     immutable (mutations create new versions, they never touch old ones);
//     the encoder only reads.
//
// The result is a point-in-time image across all tables at the captured
// LSN: each apply holds the gate for its whole critical section — a
// transaction commit for all its tables at once — so no statement's (or
// transaction's) write is ever half-visible. Concurrent readers are never
// blocked at all.

// snapshotDTO is the on-disk representation.
type snapshotDTO struct {
	// Version guards the format for forward changes.
	Version int
	Tables  []tableDTO
	Views   []viewDTO
	// LSN is the change-log position the snapshot was taken at (version ≥ 2;
	// gob decodes it as 0 from older streams). A store restored from this
	// snapshot continues the same LSN space: its next local mutation — or
	// the next record a replication follower applies — is LSN+1.
	LSN uint64
	// Origin is the history identifier the LSN belongs to (version ≥ 2); a
	// restored store adopts it, so replication followers can tell a genuine
	// resume from a coincidence of LSN numbers across unrelated histories.
	Origin uint64
}

type tableDTO struct {
	Name    string
	Columns []catalog.Column
	// Rows is filled from live by SaveLSN's encode phase, outside the locks
	// collect holds.
	Rows     [][]savedValue
	live     []value.Row
	RowCount int
	Distinct map[string]float64
}

// savedValue is a value on disk: the kind and one payload field per kind,
// which is what gob wrote for value.Value when its fields were exported, so
// snapshots taken before the value layout changed still restore.
type savedValue struct {
	K value.Kind
	B bool
	I int64
	F float64
	S string
}

func saveRows(rows []value.Row) [][]savedValue {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	flat := make([]savedValue, n) // one allocation for the table, cut per row
	out := make([][]savedValue, len(rows))
	for i, row := range rows {
		sr := flat[:len(row):len(row)]
		flat = flat[len(row):]
		for j, v := range row {
			sv := savedValue{K: v.Kind()}
			switch sv.K {
			case value.KindBool:
				sv.B = v.Bool()
			case value.KindInt:
				sv.I = v.Int()
			case value.KindFloat:
				sv.F = v.Float()
			case value.KindString:
				sv.S = v.Str()
			}
			sr[j] = sv
		}
		out[i] = sr
	}
	return out
}

func restoreRows(saved [][]savedValue) ([]value.Row, error) {
	var alloc value.RowAlloc
	rows := make([]value.Row, len(saved))
	for i, sr := range saved {
		row := alloc.New(len(sr))
		for j, sv := range sr {
			switch sv.K {
			case value.KindNull:
			case value.KindBool:
				row[j] = value.NewBool(sv.B)
			case value.KindInt:
				row[j] = value.NewInt(sv.I)
			case value.KindFloat:
				row[j] = value.NewFloat(sv.F)
			case value.KindString:
				row[j] = value.NewString(sv.S)
			default:
				return nil, fmt.Errorf("row %d: unknown value kind %d", i+1, sv.K)
			}
		}
		rows[i] = row
	}
	return rows, nil
}

type viewDTO struct {
	Name    string
	Text    string
	Columns []catalog.Column
}

const snapshotVersion = 2

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
	dto, err := s.collect()
	if err != nil {
		return 0, err
	}
	for i := range dto.Tables {
		t := &dto.Tables[i]
		t.Rows, t.live = saveRows(t.live), nil
	}
	return dto.LSN, gob.NewEncoder(w).Encode(dto)
}

// collect captures the snapshot DTO under the store lock and the write gate.
func (s *Store) collect() (*snapshotDTO, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.gate.Lock()
	defer s.gate.Unlock()
	// Mutations append their change record inside the same critical sections
	// the two locks above exclude (gate for DML, mu for DDL), so this LSN and
	// the row slices collected below describe the same instant.
	dto := snapshotDTO{Version: snapshotVersion, LSN: s.log.LastLSN(), Origin: s.Origin()}
	for _, name := range s.catalog.TableNames() {
		t := s.tables[keyOf(name)]
		if t == nil {
			return nil, fmt.Errorf("storage: table %q in catalog but not in store", name)
		}
		rows := t.Snapshot()
		st := s.catalog.TableStats(name)
		dto.Tables = append(dto.Tables, tableDTO{
			Name:    t.Def().Name,
			Columns: t.Def().Columns,
			live:    rows,
			// RowCount derives from the captured rows, not the catalog: DML
			// refreshes catalog stats after releasing the gate, so the two can
			// briefly disagree. DistinctFrac stays advisory (as after any DML).
			RowCount: len(rows),
			Distinct: st.DistinctFrac,
		})
	}
	for _, name := range s.catalog.ViewNames() {
		v := s.catalog.View(name)
		dto.Views = append(dto.Views, viewDTO{Name: v.Name, Text: v.Text, Columns: v.Columns})
	}
	return &dto, nil
}

// Restore loads a snapshot written by Save into an EMPTY store. It fails if
// any relation already exists. Restoring is a bulk load, not a sequence of
// logical changes: nothing is appended to the change log; instead the log is
// positioned at the snapshot's LSN, so the restored store continues the
// saved store's LSN space (a follower restored from this snapshot resumes
// the primary's feed right after it).
func (s *Store) Restore(r io.Reader) error {
	var dto snapshotDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return fmt.Errorf("storage: corrupt snapshot: %v", err)
	}
	if dto.Version < 1 || dto.Version > snapshotVersion {
		return fmt.Errorf("storage: unsupported snapshot version %d (want 1..%d)", dto.Version, snapshotVersion)
	}
	for _, t := range dto.Tables {
		tab, err := s.loadTable(&catalog.TableDef{Name: t.Name, Columns: t.Columns})
		if err != nil {
			return err
		}
		rows, err := restoreRows(t.Rows)
		if err != nil {
			return fmt.Errorf("storage: corrupt snapshot: table %q: %v", t.Name, err)
		}
		if err := tab.load(rows); err != nil {
			return err
		}
		s.catalog.SetRowCount(t.Name, t.RowCount)
		for col, frac := range t.Distinct {
			s.catalog.SetDistinctFrac(t.Name, col, frac)
		}
	}
	for _, v := range dto.Views {
		if err := s.catalog.CreateView(&catalog.ViewDef{Name: v.Name, Text: v.Text, Columns: v.Columns}); err != nil {
			return err
		}
	}
	s.log.Reset(dto.LSN)
	s.visible.Store(dto.LSN)
	if dto.Origin != 0 {
		s.origin.Store(dto.Origin)
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
