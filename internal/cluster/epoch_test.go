package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

func TestEpochMissingFileIsZero(t *testing.T) {
	e, err := LoadEpoch(t.TempDir())
	if err != nil || e != 0 {
		t.Fatalf("LoadEpoch(empty dir) = %d, %v; want 0, nil", e, err)
	}
}

func TestEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, e := range []uint64{1, 2, 7, 7, 1<<40 + 3} {
		if err := SaveEpoch(dir, e); err != nil {
			t.Fatalf("SaveEpoch(%d): %v", e, err)
		}
		got, err := LoadEpoch(dir)
		if err != nil || got != e {
			t.Fatalf("LoadEpoch after SaveEpoch(%d) = %d, %v", e, got, err)
		}
	}
	// The install is atomic: no temp file may linger.
	if _, err := os.Stat(filepath.Join(dir, epochFile+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp epoch file left behind: %v", err)
	}
}

func TestEpochCorruptFileIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, epochFile), []byte("bogus\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEpoch(dir); err == nil {
		t.Fatal("LoadEpoch accepted a corrupt epoch file")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sql  string
		want StatementClass
	}{
		{"SELECT 1", ClassRead},
		{"  select PROVENANCE * from messages", ClassRead},
		{"VALUES (1, 2)", ClassRead},
		{"EXPLAIN SELECT 1", ClassRead},
		{"SHOW replication_status", ClassRead},
		{"(SELECT 1) UNION (SELECT 2)", ClassRead},
		{"-- leading comment\nSELECT 1", ClassRead},
		{"/* block */ select 1", ClassRead},
		{";; SELECT 1", ClassRead},
		{"", ClassRead},
		{"SET provenance_contribution = 'copy'", ClassSession},
		{"  set wal_sync = 'group'", ClassSession},
		{"INSERT INTO t VALUES (1)", ClassWrite},
		{"UPDATE t SET v = 1", ClassWrite},
		{"DELETE FROM t", ClassWrite},
		{"CREATE TABLE t (a int)", ClassWrite},
		{"DROP VIEW v", ClassWrite},
		{"ANALYZE t", ClassWrite},
	}
	for _, c := range cases {
		if got := Classify(c.sql); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}

// TestFirstKeyword checks that Classify reads the first keyword past
// comments and empty statements, whatever its case.
func TestFirstKeyword(t *testing.T) {
	cases := []struct {
		sql  string
		want StatementClass
	}{
		{"SELECT 1", ClassRead},
		{"-- c\n  /* c2 */ Insert into t", ClassWrite},
		{"; ;\nupdate t set v=1", ClassWrite},
		{"/* x */ ; Set optimizer = 'off'", ClassSession},
		{"", ClassRead},
		{"/* unterminated", ClassRead},
	}
	for _, c := range cases {
		if got := Classify(c.sql); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}
