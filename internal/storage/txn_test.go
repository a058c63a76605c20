package storage

import (
	"errors"
	"slices"
	"testing"

	"perm/internal/value"
)

func ints(vs ...int64) value.Row {
	r := make(value.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

func TestTxnVersionVisibility(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	tab.Insert(ints(1))
	before := s.PinSnapshot()
	defer s.UnpinSnapshot(before)

	x := s.Begin()
	if _, err := x.Insert(tab, []value.Row{ints(2)}); err != nil {
		t.Fatal(err)
	}
	// The transaction sees its own insert; the pre-txn snapshot, a fresh
	// snapshot, and a concurrent transaction all do not.
	if got := x.TableRows(tab); len(got) != 2 {
		t.Fatalf("txn sees %d rows, want 2", len(got))
	}
	if got := tab.SnapshotAt(before); len(got) != 1 {
		t.Fatalf("pre-txn snapshot sees %d rows, want 1", len(got))
	}
	if got := tab.Snapshot(); len(got) != 1 {
		t.Fatalf("committed view sees %d rows before commit, want 1", len(got))
	}
	y := s.Begin()
	if got := y.TableRows(tab); len(got) != 1 {
		t.Fatalf("concurrent txn sees %d rows, want 1", len(got))
	}
	y.Rollback()

	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if !x.Done() {
		t.Fatal("committed txn not done")
	}
	// Commit publishes atomically at a new LSN: the old pin still reads the
	// old world, a new read sees the new one.
	if got := tab.SnapshotAt(before); len(got) != 1 {
		t.Fatalf("pinned snapshot changed after commit: %d rows", len(got))
	}
	if got := tab.Snapshot(); len(got) != 2 {
		t.Fatalf("committed view sees %d rows, want 2", len(got))
	}
}

func TestTxnFirstCommitterWins(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	tab.Insert(ints(1))
	tab.Insert(ints(2))

	pred1 := func(r value.Row) (bool, error) { return r[0].Int() == 1, nil }
	bump := func(r value.Row) (value.Row, error) { return ints(r[0].Int() + 10), nil }

	x, y := s.Begin(), s.Begin()
	if n, err := rewrite(x, tab, pred1, bump); err != nil || n != 1 {
		t.Fatalf("x.Update: %d, %v", n, err)
	}
	if n, err := rewrite(y, tab, pred1, bump); err != nil || n != 1 {
		t.Fatalf("y.Update: %d, %v", n, err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := y.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second committer: %v, want ErrWriteConflict", err)
	}
	if !y.Done() {
		t.Fatal("conflicted txn must be finished")
	}
	// Exactly one increment landed; the loser left nothing behind.
	rows := tab.Snapshot()
	if len(rows) != 2 || rows[0][0].Int() != 11 || rows[1][0].Int() != 2 {
		t.Fatalf("rows = %v, want [11 2]", rows)
	}

	// Delete vs update on the same slot conflicts in either order.
	x, y = s.Begin(), s.Begin()
	pred2 := func(r value.Row) (bool, error) { return r[0].Int() == 2, nil }
	if _, err := rewrite(x, tab, pred2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(y, tab, pred2, bump); err != nil {
		t.Fatal(err)
	}
	if err := y.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("delete after committed update: %v, want ErrWriteConflict", err)
	}

	// Disjoint write sets commit cleanly; a read-only txn always commits.
	x, y = s.Begin(), s.Begin()
	if _, err := rewrite(x, tab, pred1, bump); err != nil {
		t.Fatal(err)
	}
	_ = y.TableRows(tab)
	if err := y.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("disjoint commit: %v", err)
	}

	if got := s.MVCCStatus().WriteConflicts; got != 2 {
		t.Fatalf("WriteConflicts = %d, want 2", got)
	}
	if s.PinnedSnapshots() != 0 {
		t.Fatalf("pins = %d, want 0", s.PinnedSnapshots())
	}
}

func TestTxnRollbackLeavesNoTrace(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	tab.Insert(ints(1))
	slots0, versions0 := tab.VersionCount()

	x := s.Begin()
	x.Insert(tab, []value.Row{ints(2)})
	rewrite(x, tab, nil, nil)
	x.Rollback()
	if !x.Done() {
		t.Fatal("rolled-back txn not done")
	}
	if got := tab.Snapshot(); len(got) != 1 || got[0][0].Int() != 1 {
		t.Fatalf("rows after rollback = %v", got)
	}
	// Buffered writes never touched the heap: no versions to vacuum.
	if slots, versions := tab.VersionCount(); slots != slots0 || versions != versions0 {
		t.Fatalf("version counts changed across rollback: %d/%d -> %d/%d",
			slots0, versions0, slots, versions)
	}
	if s.PinnedSnapshots() != 0 {
		t.Fatalf("pins = %d, want 0", s.PinnedSnapshots())
	}
}

// TestTxnVacuumHorizon pins that an open transaction's snapshot holds the
// vacuum horizon: versions it can still see are not reclaimed until it ends.
func TestTxnVacuumHorizon(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	tab.Insert(ints(1))

	x := s.Begin()
	bump := func(r value.Row) (value.Row, error) { return ints(r[0].Int() + 1), nil }
	for i := 0; i < 5; i++ {
		if _, err := rewrite(nil, tab, nil, bump); err != nil {
			t.Fatal(err)
		}
	}
	if removed := s.Vacuum(); removed != 0 {
		t.Fatalf("vacuum reclaimed %d versions under an open txn, want 0", removed)
	}
	if got := x.TableRows(tab); len(got) != 1 || got[0][0].Int() != 1 {
		t.Fatalf("txn snapshot after vacuum attempt = %v, want original 1", got)
	}
	x.Rollback()
	if removed := s.Vacuum(); removed != 5 {
		t.Fatalf("vacuum after txn end removed %d, want 5", removed)
	}
	if slots, versions := tab.VersionCount(); slots != 1 || versions != 1 {
		t.Fatalf("slots/versions = %d/%d, want 1/1", slots, versions)
	}
}

// TestTxnCommitAfterDropConflicts: a commit into a table that a concurrent
// DROP TABLE detached — here re-created under the same name — fails with
// ErrWriteConflict and writes nothing, in a transaction and in autocommit
// alike, so the primary stays exactly what a replay of its log rebuilds.
func TestTxnCommitAfterDropConflicts(t *testing.T) {
	s := NewStore()
	old := intTable(t, s, "t", "id")
	x := s.Begin()
	if _, err := x.Insert(old, []value.Row{ints(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	intTable(t, s, "t", "id")
	if err := x.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("commit into a dropped table: %v, want ErrWriteConflict", err)
	}
	if _, err := old.Insert(ints(2)); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("autocommit into a dropped table: %v, want ErrWriteConflict", err)
	}

	r := NewStore()
	recs, ok := s.Log().Since(0, 0)
	if !ok {
		t.Fatal("log trimmed")
	}
	for _, rec := range recs {
		if err := r.ApplyChange(rec); err != nil {
			t.Fatalf("replay LSN %d: %v", rec.LSN, err)
		}
	}
	primary, replay := s.Table("t").Snapshot(), r.Table("t").Snapshot()
	if len(primary) != 0 || len(replay) != 0 {
		t.Fatalf("t holds %v on the primary and %v after replay, want both empty", primary, replay)
	}
	if pc, rc := s.Catalog().TableStats("t").RowCount, r.Catalog().TableStats("t").RowCount; pc != 0 || rc != 0 {
		t.Fatalf("row count %d on the primary, %d after replay, want 0", pc, rc)
	}
}

// TestTxnCommitAfterVacuumMovedSlots: a vacuum between a transaction's
// reads and its commit drops dead slots before the rows it wrote, so those
// rows sit lower than where they were read. The commit still finds them,
// writes them in slot order, and a replay of the log agrees.
func TestTxnCommitAfterVacuumMovedSlots(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	for i := int64(1); i <= 5; i++ {
		tab.Insert(ints(i))
	}
	is := func(vs ...int64) func(value.Row) (bool, error) {
		return func(r value.Row) (bool, error) { return slices.Contains(vs, r[0].Int()), nil }
	}
	if n, err := rewrite(nil, tab, is(1, 2), nil); err != nil || n != 2 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	x := s.Begin()
	bump := func(r value.Row) (value.Row, error) { return ints(r[0].Int() + 10), nil }
	if _, err := rewrite(x, tab, is(5), bump); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(x, tab, is(3), bump); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(x, tab, is(4), nil); err != nil {
		t.Fatal(err)
	}
	if removed := s.Vacuum(); removed != 2 {
		t.Fatalf("vacuum removed %d versions, want the 2 deleted rows", removed)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	r := NewStore()
	recs, _ := s.Log().Since(0, 0)
	for _, rec := range recs {
		if err := r.ApplyChange(rec); err != nil {
			t.Fatalf("replay LSN %d: %v", rec.LSN, err)
		}
	}
	want := []value.Row{ints(13), ints(15)}
	for name, got := range map[string][]value.Row{"primary": tab.Snapshot(), "replay": r.Table("t").Snapshot()} {
		if !slices.EqualFunc(got, want, func(a, b value.Row) bool { return a.Key() == b.Key() }) {
			t.Fatalf("%s holds %v, want %v", name, got, want)
		}
	}
	if n := s.Catalog().TableStats("t").RowCount; n != 2 {
		t.Fatalf("row count %d, want 2", n)
	}
}

// replayed is a fresh store that applied every record of s's log.
func replayed(t *testing.T, s *Store) *Store {
	t.Helper()
	r := NewStore()
	recs, ok := s.Log().Since(0, 0)
	if !ok {
		t.Fatal("log trimmed")
	}
	for _, rec := range recs {
		if err := r.ApplyChange(rec); err != nil {
			t.Fatalf("replay LSN %d: %v", rec.LSN, err)
		}
	}
	return r
}

// sameRows fails unless got holds the one-column rows want, in order.
func sameRows(t *testing.T, what string, got []value.Row, want ...int64) {
	t.Helper()
	var ws []value.Row
	for _, w := range want {
		ws = append(ws, ints(w))
	}
	if !slices.EqualFunc(got, ws, func(a, b value.Row) bool { return a.Key() == b.Key() }) {
		t.Fatalf("%s: %v, want %v", what, got, ws)
	}
}

// TestTxnRewriteAfterVacuumBetweenScanAndRewrite: a vacuum that publishes
// a compacted heap after a transaction's scan and before its Rewrite moves
// the rows it read to lower slots. The picks still name positions in the
// heap the scan's cursor read, so the rewrite lands on the rows that were
// read, and the commit and a replay of the log agree.
func TestTxnRewriteAfterVacuumBetweenScanAndRewrite(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	for i := int64(1); i <= 5; i++ {
		tab.Insert(ints(i))
	}
	if n, err := rewrite(nil, tab, func(r value.Row) (bool, error) { return r[0].Int() <= 2, nil }, nil); err != nil || n != 2 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	x := s.Begin()
	c := x.Scan(tab)
	var picks []Pick
	for r := c.Next(); r != nil; r = c.Next() {
		switch r[0].Int() {
		case 3:
			picks = append(picks, Pick{ID: c.Pos(), Row: ints(13)})
		case 5:
			picks = append(picks, Pick{ID: c.Pos()})
		}
	}
	if picks[0].ID != 2 || picks[1].ID != 4 {
		t.Fatalf("picks at positions %d and %d, want 2 and 4", picks[0].ID, picks[1].ID)
	}
	if removed := s.Vacuum(); removed != 2 {
		t.Fatalf("vacuum removed %d versions, want the 2 deleted rows", removed)
	}
	if n, err := x.Rewrite(tab, &c, picks); err != nil || n != 2 {
		t.Fatalf("rewrite: %d, %v", n, err)
	}
	sameRows(t, "the transaction's view", x.TableRows(tab), 13, 4)
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	sameRows(t, "primary", tab.Snapshot(), 13, 4)
	sameRows(t, "replay", replayed(t, s).Table("t").Snapshot(), 13, 4)
	if n := s.Catalog().TableStats("t").RowCount; n != 2 {
		t.Fatalf("row count %d, want 2", n)
	}
}

// TestTxnRewriteRefusesBadPicks: picks out of order or repeated, a pick
// past the cursor's end and one naming a row the transaction already
// deleted are refused, and the refused statement leaves the transaction as
// it was.
func TestTxnRewriteRefusesBadPicks(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	for i := int64(1); i <= 4; i++ {
		tab.Insert(ints(i))
	}
	x := s.Begin()
	defer x.Rollback()
	if n, err := rewrite(x, tab, func(r value.Row) (bool, error) { return r[0].Int() == 2, nil }, nil); err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	for name, picks := range map[string][]Pick{
		"out of order":                {{ID: 2}, {ID: 0}},
		"repeated":                    {{ID: 0, Row: ints(10)}, {ID: 0}},
		"past the end":                {{ID: 0}, {ID: 4}},
		"before the start":            {{ID: -1}},
		"a row the txn deleted":       {{ID: 1}},
		"after a good one, a deleted": {{ID: 0, Row: ints(10)}, {ID: 1, Row: ints(20)}},
	} {
		c := x.Scan(tab)
		for c.Next() != nil {
		}
		if n, err := x.Rewrite(tab, &c, picks); err == nil {
			t.Errorf("%s: rewrote %d rows, want a refusal", name, n)
		}
		sameRows(t, name+", the transaction's view", x.TableRows(tab), 1, 3, 4)
	}
	c := x.Scan(tab)
	if n, err := x.Rewrite(tab, &c, []Pick{{ID: 0, Row: ints(10)}, {ID: 3}}); err != nil || n != 2 {
		t.Fatalf("good picks: %d, %v", n, err)
	}
	sameRows(t, "after good picks", x.TableRows(tab), 10, 3)
}

// TestTxnRewriteOwnInserts: the rows a transaction inserted have positions
// past the heap's slots, and a Rewrite of them updates and deletes them in
// place, before and after commit.
func TestTxnRewriteOwnInserts(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	tab.Insert(ints(1))
	tab.Insert(ints(2))
	x := s.Begin()
	if _, err := x.Insert(tab, []value.Row{ints(10), ints(11), ints(12)}); err != nil {
		t.Fatal(err)
	}
	c := x.Scan(tab)
	var picks []Pick
	for r := c.Next(); r != nil; r = c.Next() {
		switch r[0].Int() {
		case 10:
			picks = append(picks, Pick{ID: c.Pos()})
		case 11:
			picks = append(picks, Pick{ID: c.Pos(), Row: ints(21)})
		}
	}
	if picks[0].ID != 2 || picks[1].ID != 3 {
		t.Fatalf("inserted rows at positions %d and %d, want 2 and 3, past the heap's 2 slots", picks[0].ID, picks[1].ID)
	}
	if n, err := x.Rewrite(tab, &c, picks); err != nil || n != 2 {
		t.Fatalf("rewrite: %d, %v", n, err)
	}
	sameRows(t, "the transaction's view", x.TableRows(tab), 1, 2, 21, 12)
	// The deleted insert keeps its position: the next statement's picks
	// name the rows after it as before.
	if n, err := rewrite(x, tab, func(r value.Row) (bool, error) { return r[0].Int() > 20, nil }, func(r value.Row) (value.Row, error) { return ints(r[0].Int() + 10), nil }); err != nil || n != 1 {
		t.Fatalf("second update: %d, %v", n, err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	sameRows(t, "primary", tab.Snapshot(), 1, 2, 31, 12)
	sameRows(t, "replay", replayed(t, s).Table("t").Snapshot(), 1, 2, 31, 12)
}
