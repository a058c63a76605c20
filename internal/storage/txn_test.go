package storage

import (
	"errors"
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
	if n, err := x.Update(tab, pred1, bump); err != nil || n != 1 {
		t.Fatalf("x.Update: %d, %v", n, err)
	}
	if n, err := y.Update(tab, pred1, bump); err != nil || n != 1 {
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
	if _, err := x.Delete(tab, pred2); err != nil {
		t.Fatal(err)
	}
	if _, err := y.Update(tab, pred2, bump); err != nil {
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
	if _, err := x.Update(tab, pred1, bump); err != nil {
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
	x.Delete(tab, nil)
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
		if _, err := tab.Update(nil, bump); err != nil {
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
