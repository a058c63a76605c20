package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"perm/internal/catalog"
	"perm/internal/repl"
	"perm/internal/value"
)

func mustCreate(t *testing.T, s *Store, name string, cols ...catalog.Column) *Table {
	t.Helper()
	tab, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: cols})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func intCol(name string) catalog.Column  { return catalog.Column{Name: name, Type: value.KindInt} }
func textCol(name string) catalog.Column { return catalog.Column{Name: name, Type: value.KindString} }

// TestChangeLogRecordsMutations verifies every mutation shape lands in the
// log with the right kind, dense LSNs, and faithful row images.
func TestChangeLogRecordsMutations(t *testing.T) {
	s := NewStore()
	tab := mustCreate(t, s, "t", intCol("i"), textCol("s"))
	if _, err := tab.InsertBatch([]value.Row{
		{value.NewInt(1), value.NewString("a")},
		{value.NewInt(2), value.NewString("b")},
		{value.NewInt(2), value.NewString("b")}, // duplicate row
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab,
		func(r value.Row) (bool, error) { return r[0].Int() == 2, nil },
		func(r value.Row) (value.Row, error) {
			return value.Row{r[0], value.NewString("u")}, nil
		}); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab, func(r value.Row) (bool, error) { return r[0].Int() == 1, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateView(&catalog.ViewDef{Name: "v", Text: "SELECT i FROM t"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Analyze(""); err != nil {
		t.Fatal(err)
	}
	if err := s.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}

	recs, ok := s.Log().Since(0, 0)
	if !ok {
		t.Fatal("log trimmed unexpectedly")
	}
	wantKinds := []repl.Kind{
		repl.KindCreateTable, repl.KindInsert, repl.KindUpdate, repl.KindDelete,
		repl.KindCreateView, repl.KindAnalyze, repl.KindDropView, repl.KindDropTable,
	}
	if len(recs) != len(wantKinds) {
		t.Fatalf("log has %d records, want %d: %+v", len(recs), len(wantKinds), recs)
	}
	for i, rec := range recs {
		if rec.Kind != wantKinds[i] {
			t.Fatalf("record %d kind %s, want %s", i, rec.Kind, wantKinds[i])
		}
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN %d, want %d", i, rec.LSN, i+1)
		}
	}
	if upd := recs[2]; len(upd.OldRows) != 2 || len(upd.Rows) != 2 ||
		upd.OldRows[0][1].Str() != "b" || upd.Rows[0][1].Str() != "u" {
		t.Fatalf("update record images: old %v new %v", upd.OldRows, upd.Rows)
	}
	if del := recs[3]; len(del.Rows) != 1 || del.Rows[0][0].Int() != 1 {
		t.Fatalf("delete record images: %v", del.Rows)
	}
}

// TestNoOpMutationsNotLogged: zero-row inserts, no-match deletes/updates add
// nothing to the log (a replica has nothing to do).
func TestNoOpMutationsNotLogged(t *testing.T) {
	s := NewStore()
	tab := mustCreate(t, s, "t", intCol("i"))
	before := s.Log().LastLSN()
	if _, err := tab.InsertBatch(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab, func(value.Row) (bool, error) { return false, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab, func(value.Row) (bool, error) { return false, nil },
		func(r value.Row) (value.Row, error) { return r, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab, nil, nil); err != nil { // truncate of an empty table
		t.Fatal(err)
	}
	if got := s.Log().LastLSN(); got != before {
		t.Fatalf("no-op mutations advanced the log from %d to %d", before, got)
	}
}

// TestApplyChangeReplay replays a store's log into a second store and
// expects identical tables, including duplicate-row multisets.
func TestApplyChangeReplay(t *testing.T) {
	src := NewStore()
	tab := mustCreate(t, src, "t", intCol("i"), textCol("s"))
	var rows []value.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i % 7)), value.NewString(fmt.Sprint("v", i%5))})
	}
	if _, err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab,
		func(r value.Row) (bool, error) { return r[0].Int()%3 == 0, nil },
		func(r value.Row) (value.Row, error) { return value.Row{r[0], value.NewString("upd")}, nil },
	); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab, func(r value.Row) (bool, error) { return r[0].Int() == 1, nil }, nil); err != nil {
		t.Fatal(err)
	}

	dst := NewStore()
	recs, ok := src.Log().Since(0, 0)
	if !ok {
		t.Fatal("source log trimmed")
	}
	for _, rec := range recs {
		if err := dst.ApplyChange(rec); err != nil {
			t.Fatalf("apply LSN %d: %v", rec.LSN, err)
		}
	}
	if got, want := dst.Log().LastLSN(), src.Log().LastLSN(); got != want {
		t.Fatalf("replayed log at LSN %d, source at %d", got, want)
	}
	srcRows, dstRows := src.Table("t").Snapshot(), dst.Table("t").Snapshot()
	if len(srcRows) != len(dstRows) {
		t.Fatalf("replayed table has %d rows, want %d", len(dstRows), len(srcRows))
	}
	for i := range srcRows {
		if srcRows[i].Key() != dstRows[i].Key() {
			t.Fatalf("row %d diverged: %v vs %v", i, srcRows[i], dstRows[i])
		}
	}
}

// TestApplyChangeDivergence: row images that don't match the local table
// must error (the follower re-bootstraps on this signal).
func TestApplyChangeDivergence(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, "t", intCol("i"))
	lsn := s.Log().LastLSN()
	err := s.ApplyChange(repl.Record{LSN: lsn + 1, Kind: repl.KindDelete, Table: "t",
		Rows: []value.Row{{value.NewInt(99)}}})
	if err == nil {
		t.Fatal("deleting a non-existent row image did not error")
	}
	// DML against a missing table is skipped but still consumes the LSN.
	before := s.Log().LastLSN()
	if err := s.ApplyChange(repl.Record{LSN: before + 1, Kind: repl.KindInsert, Table: "ghost",
		Rows: []value.Row{{value.NewInt(1)}}}); err != nil {
		t.Fatalf("insert into dropped table should be a logged no-op: %v", err)
	}
	if got := s.Log().LastLSN(); got != before+1 {
		t.Fatalf("skipped record did not advance the log: %d", got)
	}
}

// TestLargeMutationSplit: one huge insert is logged as several consecutive
// records so encoded frames stay bounded, and replaying them reproduces the
// table.
func TestLargeMutationSplit(t *testing.T) {
	s := NewStore()
	tab := mustCreate(t, s, "t", intCol("i"))
	n := maxRecordRows*2 + 17
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	if _, err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	recs, _ := s.Log().Since(1, 0) // skip CREATE TABLE
	if len(recs) != 3 {
		t.Fatalf("huge insert logged as %d records, want 3", len(recs))
	}
	total := 0
	for _, rec := range recs {
		if rec.Kind != repl.KindInsert || len(rec.Rows) > maxRecordRows {
			t.Fatalf("split record: kind %s, %d rows", rec.Kind, len(rec.Rows))
		}
		total += len(rec.Rows)
	}
	if total != n {
		t.Fatalf("split records carry %d rows, want %d", total, n)
	}
}

// TestSnapshotCarriesLSN: Save/Restore round-trips the log position, and a
// snapshot of a store with history resumes the LSN space.
func TestSnapshotCarriesLSN(t *testing.T) {
	s := NewStore()
	tab := mustCreate(t, s, "t", intCol("i"))
	for i := 0; i < 5; i++ {
		if _, err := tab.Insert(value.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	lsn, err := s.SaveLSN(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 { // CREATE TABLE + 5 inserts
		t.Fatalf("snapshot LSN = %d, want 6", lsn)
	}
	r := NewStore()
	if err := r.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().LastLSN(); got != 6 {
		t.Fatalf("restored log at LSN %d, want 6", got)
	}
	// Restore logged nothing: the retained tail is empty, history beyond the
	// snapshot position unavailable.
	if _, ok := r.Log().Since(0, 0); ok {
		t.Fatal("restored store claims history before its snapshot LSN")
	}
	if recs, ok := r.Log().Since(6, 0); !ok || len(recs) != 0 {
		t.Fatalf("restored store tail = %v, ok=%v", recs, ok)
	}
	// And the store continues the LSN space.
	if _, err := r.Table("t").Insert(value.Row{value.NewInt(99)}); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().LastLSN(); got != 7 {
		t.Fatalf("first post-restore mutation at LSN %d, want 7", got)
	}
}

// TestWideRowMutationSplitsByBytes: few rows but huge payloads must also
// split, so one record can never exceed what a wire frame can carry.
func TestWideRowMutationSplitsByBytes(t *testing.T) {
	s := NewStore()
	tab := mustCreate(t, s, "t", intCol("i"), textCol("s"))
	wide := string(make([]byte, 3<<20)) // 3 MiB per row, 8 MiB record budget
	var rows []value.Row
	for i := 0; i < 6; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewString(wide)})
	}
	if _, err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	recs, _ := s.Log().Since(1, 0) // skip CREATE TABLE
	if len(recs) != 3 {
		t.Fatalf("6×3MiB insert logged as %d records, want 3 (2 rows each)", len(recs))
	}
	total := 0
	for _, rec := range recs {
		if len(rec.Rows) > 2 {
			t.Fatalf("split record carries %d wide rows", len(rec.Rows))
		}
		total += len(rec.Rows)
	}
	if total != 6 {
		t.Fatalf("split records carry %d rows, want 6", total)
	}
}

// TestRestoreSnapshotOfOldValueLayout: a version-2 snapshot — a gob stream,
// this one written while value.Value was the five-field struct gob encoded
// field by field — is refused with an error that names its version. Since
// version 3 a snapshot is change records, and no gob reader is kept.
func TestRestoreSnapshotOfOldValueLayout(t *testing.T) {
	old, err := os.ReadFile("testdata/snapshot_v2_40byte_value.gob")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	err = s.Restore(bytes.NewReader(old))
	if err == nil || !strings.HasPrefix(err.Error(), "storage: corrupt snapshot: ") || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("restoring a version-2 gob snapshot: %v, want a refusal naming version 2", err)
	}
	if names := s.Catalog().TableNames(); len(names) != 0 {
		t.Fatalf("a refused snapshot left tables %v", names)
	}
}

// TestApplyChangeRefusesBadImages: a change record's inserted and new row
// images come from outside the program (a replication peer, a WAL segment, a
// snapshot), so the apply path checks them against the table as they are —
// arity, each value's type, NOT NULL — and installs and logs nothing on a
// refusal.
func TestApplyChangeRefusesBadImages(t *testing.T) {
	s := NewStore()
	tab := mustCreate(t, s, "t", catalog.Column{Name: "a", Type: value.KindInt, NotNull: true}, intCol("b"))
	if _, err := tab.Insert(value.Row{value.NewInt(1), value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	good := value.Row{value.NewInt(1), value.NewInt(2)}
	for name, rec := range map[string]repl.Record{
		"short insert":       {Kind: repl.KindInsert, Rows: []value.Row{{value.NewString("x")}}},
		"NULL into NOT NULL": {Kind: repl.KindInsert, Rows: []value.Row{{value.Null, value.NewInt(3)}}},
		"text into INT":      {Kind: repl.KindInsert, Rows: []value.Row{{value.NewInt(4), value.NewString("5")}}},
		"wide new image":     {Kind: repl.KindUpdate, OldRows: []value.Row{good}, Rows: []value.Row{{value.NewInt(1), value.NewInt(2), value.NewInt(3)}}},
	} {
		lsn := s.Log().LastLSN()
		rec.LSN, rec.Table = lsn+1, "t"
		if err := s.ApplyChange(rec); !errors.Is(err, ErrBadRowImage) {
			t.Errorf("%s: ApplyChange returned %v, want ErrBadRowImage", name, err)
		}
		if got := s.Log().LastLSN(); got != lsn {
			t.Errorf("%s: refused record moved the log from %d to %d", name, lsn, got)
		}
		if rows := tab.Snapshot(); len(rows) != 1 || rows[0].Key() != good.Key() {
			t.Errorf("%s: table holds %v after the refusal", name, rows)
		}
	}
}

// TestReplicaStatisticsMatchPrimary: an ANALYZE record carries the
// fractions the primary counted, so a replica installs them instead of
// rescanning rows a concurrent writer has changed since, and ends with the
// primary's statistics bit for bit. Each insert refreshes the row count
// where it stamps its rows, on the primary as on the replica.
func TestReplicaStatisticsMatchPrimary(t *testing.T) {
	s := NewStore()
	// The replica replays the whole log, however many batches the writer
	// below gets in before it stops.
	s.Log().SetRetentionBytes(0)
	tab := mustCreate(t, s, "t", intCol("a"), textCol("b"))
	batch := func(from int) []value.Row {
		rows := make([]value.Row, 100)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64((from + i) % 1000)), value.NewString(fmt.Sprint((from + i) % 77))}
		}
		return rows
	}
	for i := 0; i < 20_000; i += 100 {
		if _, err := tab.InsertBatch(batch(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 20_000; ; i += 100 {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tab.InsertBatch(batch(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var want []map[string]float64 // the primary's fractions after each ANALYZE
	for i := 0; i < 20; i++ {
		if err := s.Analyze("t"); err != nil {
			t.Fatal(err)
		}
		want = append(want, s.Catalog().TableStats("t").DistinctFrac)
	}
	close(stop)
	<-done

	r := NewStore()
	recs, ok := s.Log().Since(0, 0)
	if !ok {
		t.Fatal("primary log trimmed")
	}
	for _, rec := range recs {
		if err := r.ApplyChange(rec); err != nil {
			t.Fatalf("apply LSN %d: %v", rec.LSN, err)
		}
		if rec.Kind != repl.KindAnalyze {
			continue
		}
		got := r.Catalog().TableStats("t").DistinctFrac
		for col, f := range want[0] {
			if math.Float64bits(got[col]) != math.Float64bits(f) {
				t.Fatalf("ANALYZE at LSN %d: replica %s fraction %v, primary %v", rec.LSN, col, got[col], f)
			}
		}
		want = want[1:]
	}
	ps, rs := s.Catalog().TableStats("t"), r.Catalog().TableStats("t")
	if ps.RowCount != rs.RowCount || len(ps.DistinctFrac) != len(rs.DistinctFrac) {
		t.Fatalf("replica statistics %+v, primary %+v", rs, ps)
	}
	for col, f := range ps.DistinctFrac {
		if math.Float64bits(rs.DistinctFrac[col]) != math.Float64bits(f) {
			t.Fatalf("replica %s fraction %v, primary %v", col, rs.DistinctFrac[col], f)
		}
	}
}

// TestAnalyzeRecordWithoutFractions: an ANALYZE record written before the
// record carried its fractions (a data directory of an older build) replays
// as a logged no-op: it installs no statistics and rescans nothing.
func TestAnalyzeRecordWithoutFractions(t *testing.T) {
	s := NewStore()
	tab := mustCreate(t, s, "t", intCol("i"))
	if _, err := tab.Insert(value.Row{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	lsn := s.Log().LastLSN()
	if err := s.ApplyChange(repl.Record{LSN: lsn + 1, Kind: repl.KindAnalyze, Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Log().LastLSN(); got != lsn+1 {
		t.Fatalf("the record left the log at %d, want %d", got, lsn+1)
	}
	if st := s.Catalog().TableStats("t"); len(st.DistinctFrac) != 0 {
		t.Fatalf("an ANALYZE record without fractions installed %v", st.DistinctFrac)
	}
}
