package engine

import (
	"errors"
	"strings"
	"testing"
)

// stubWALCtl records SetSyncPolicy calls and serves a fixed status, standing
// in for the server's wal.Manager adapter.
type stubWALCtl struct {
	mode   string
	setErr error
}

func (c *stubWALCtl) SetSyncPolicy(policy string) error {
	if c.setErr != nil {
		return c.setErr
	}
	c.mode = policy
	return nil
}

func (c *stubWALCtl) WALStatus() WALStatus {
	return WALStatus{Mode: c.mode, LastLSN: 42, DurableLSN: 41, CheckpointLSN: 30,
		Checkpoints: 3, Segments: 2, WALBytes: 4096, Err: "boom"}
}

func TestWALSettings(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()

	// Without a WAL: SET fails with a clear error, SHOW reports disabled.
	if _, err := s.Execute(`SET wal_sync = always`); err == nil || !strings.Contains(err.Error(), "no write-ahead log") {
		t.Fatalf("SET wal_sync without WAL: %v", err)
	}
	res, err := s.Execute(`SHOW wal_sync`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != "disabled" {
		t.Fatalf("SHOW wal_sync without WAL = %q, want disabled", got)
	}
	res, err = s.Execute(`SHOW wal_status`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != "disabled" {
		t.Fatalf("SHOW wal_status sync_mode without WAL = %q, want disabled", got)
	}

	// With a controller installed: SET reaches it, SHOW reflects it.
	ctl := &stubWALCtl{mode: "always"}
	db.SetWALController(ctl)
	if _, err := s.Execute(`SET wal_sync = 'group(5)'`); err != nil {
		t.Fatal(err)
	}
	if ctl.mode != "group(5)" {
		t.Fatalf("controller saw policy %q, want group(5)", ctl.mode)
	}
	res, err = s.Execute(`SHOW wal_sync`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != "group(5)" {
		t.Fatalf("SHOW wal_sync = %q, want group(5)", got)
	}
	res, err = s.Execute(`SHOW wal_status`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[1].Int() != 42 || row[2].Int() != 41 || row[3].Int() != 30 || row[4].Int() != 3 ||
		row[5].Int() != 2 || row[6].Int() != 4096 || row[7].Str() != "boom" {
		t.Fatalf("SHOW wal_status row = %v", row)
	}

	// A rejected policy surfaces the controller's error.
	ctl.setErr = errors.New("bad policy")
	if _, err := s.Execute(`SET wal_sync = off`); err == nil || !strings.Contains(err.Error(), "bad policy") {
		t.Fatalf("SET wal_sync error not surfaced: %v", err)
	}

	// Removing the controller restores the disabled behavior.
	db.SetWALController(nil)
	if _, err := s.Execute(`SET wal_sync = always`); err == nil {
		t.Fatal("SET wal_sync succeeded after controller removal")
	}
}
