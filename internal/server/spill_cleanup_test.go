package server

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"perm/internal/wire"
)

// Interrupt-safety of spill files: a query that has spilled to disk must
// leave zero temp files behind however it ends — per-query timeout, abrupt
// client disconnect mid-spill, or a server shutdown with an open spilling
// cursor — while keeping the existing typed error codes. All three run under
// the race detector in CI.

// spillCleanupCfg forces every blocking operator to spill into a private,
// assertable temp dir.
func spillCleanupCfg(t *testing.T, extra Config) (Config, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := extra
	cfg.WorkMem = 4096
	cfg.TempDir = dir
	return cfg, dir
}

// waitEmptyDir polls dir down to zero entries.
func waitEmptyDir(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read temp dir: %v", err)
		}
		if len(ents) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d spill files still in %s after 5s (first: %s)", len(ents), dir, ents[0].Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// spillingSortQuery is a cross-join ORDER BY whose input dwarfs the 4 KiB
// budget — the executor is guaranteed to be spilling runs and merging them
// for as long as the query lives.
const spillingSortQuery = `SELECT b1.s, b2.i FROM big b1, big b2 ORDER BY b1.s DESC, b2.i`

// TestSpillTimeoutMidQuery runs a large spilling sort under a short
// per-query timeout: the statement must fail with the typed timeout code and
// every spill file must be gone.
func TestSpillTimeoutMidQuery(t *testing.T) {
	db := bigDB(t, 400) // 160k-row cross join: far beyond 50ms
	cfg, dir := spillCleanupCfg(t, Config{QueryTimeout: 50 * time.Millisecond})
	addr, srv, shutdown := startServerSrv(t, db, cfg)
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Execute("", spillingSortQuery, nil, 0)
	for err == nil {
		// Drain until the (in-band or immediate) error surfaces.
		row, rerr := rows.Next()
		if rerr != nil {
			err = rerr
			break
		}
		if row == nil {
			break
		}
	}
	var serr *wire.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.ErrCodeTimeout {
		t.Fatalf("spilling query past deadline: err=%v, want typed timeout", err)
	}
	waitEmptyDir(t, dir)
	if n := srv.ActivePortals(); n != 0 {
		t.Fatalf("portals leaked: %d", n)
	}
	// The connection survives the statement error.
	if _, err := c.ExecuteDrain("", `SELECT 1`, nil); err != nil {
		t.Fatalf("connection unusable after spill timeout: %v", err)
	}
}

// TestSpillDisconnectMidStream kills the TCP connection while a cursor is
// suspended over a spilling sort (its runs live on disk): the server must
// free the portal, close the session, and delete every spill file.
func TestSpillDisconnectMidStream(t *testing.T) {
	db := bigDB(t, 120)
	cfg, dir := spillCleanupCfg(t, Config{CursorBatchRows: 8})
	addr, srv, shutdown := startServerSrv(t, db, cfg)
	defer shutdown()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	if _, err := wire.Handshake(conn, "spill-test"); err != nil {
		t.Fatal(err)
	}
	req := wire.Execute{SQL: spillingSortQuery, FetchSize: 10}
	if err := conn.WriteMessage(wire.MsgExecute, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		typ, _, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if typ == wire.MsgSuspended {
			break
		}
		if typ != wire.MsgRowDesc && typ != wire.MsgRowBatch {
			t.Fatalf("unexpected frame %q", typ)
		}
	}
	// The cursor is parked mid-merge: its spill files must exist right now…
	if ents, _ := os.ReadDir(dir); len(ents) == 0 {
		t.Fatalf("expected live spill files under a suspended spilling cursor")
	}
	// …then the client vanishes without a goodbye.
	nc.Close()
	waitZero(t, "portals", srv.ActivePortals)
	waitZero(t, "sessions", db.ActiveSessions)
	waitEmptyDir(t, dir)
}

// TestSpillShutdownWithOpenCursor force-shuts the server down while a
// spilling cursor is suspended: the kill path must interrupt the query,
// close the session, and delete every spill file.
func TestSpillShutdownWithOpenCursor(t *testing.T) {
	db := bigDB(t, 120)
	cfg, dir := spillCleanupCfg(t, Config{CursorBatchRows: 8})
	addr, srv, _ := startServerSrv(t, db, cfg)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cur, err := c.Execute("", spillingSortQuery, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) == 0 {
		t.Fatalf("expected live spill files under an open spilling cursor")
	}

	// An already-expired context: drain nothing, kill immediately — the
	// existing typed contract for a forced shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown = %v, want context.Canceled", err)
	}
	waitZero(t, "portals", srv.ActivePortals)
	waitZero(t, "sessions", db.ActiveSessions)
	waitEmptyDir(t, dir)
}
