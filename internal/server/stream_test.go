package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"perm/internal/engine"
	"perm/internal/wire"
)

// bigDB seeds a database whose cross-join result is large enough that any
// cursor spans many batches.
func bigDB(t *testing.T, rows int) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Execute(`CREATE TABLE big (i int, s text)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'row %d payload payload payload')", i, i)
	}
	if _, err := s.Execute(b.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// waitZero polls an int-returning observable down to zero.
func waitZero(t *testing.T, what string, f func() int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still %d after 5s", what, f())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCursorDisconnectFreesPortal kills the TCP connection while a cursor
// is suspended halfway through a large result: the server must free the
// portal (closing the executor tree) and tear down the session promptly.
func TestCursorDisconnectFreesPortal(t *testing.T) {
	db := bigDB(t, 100)
	addr, srv, shutdown := startServerSrv(t, db, Config{CursorBatchRows: 8})
	defer shutdown()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	if _, err := wire.Handshake(conn, "stream-test"); err != nil {
		t.Fatal(err)
	}
	req := wire.Execute{SQL: `SELECT b1.s FROM big b1, big b2`, FetchSize: 10}
	if err := conn.WriteMessage(wire.MsgExecute, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read this fetch's frames up to the suspension, so the portal is
	// definitely open server-side...
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
	if got := srv.ActivePortals(); got != 1 {
		t.Fatalf("ActivePortals = %d, want 1", got)
	}
	// ... then vanish without a goodbye.
	nc.Close()
	waitZero(t, "portals", srv.ActivePortals)
	waitZero(t, "sessions", db.ActiveSessions)
}

// TestCursorDisconnectMidWrite kills the connection while the server is
// streaming a large fetch, so the failure surfaces as a write error inside
// the batch loop rather than an idle suspension.
func TestCursorDisconnectMidWrite(t *testing.T) {
	db := bigDB(t, 120)
	addr, srv, shutdown := startServerSrv(t, db, Config{CursorBatchRows: 4, QueryTimeout: 5 * time.Second})
	defer shutdown()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	if _, err := wire.Handshake(conn, "stream-test"); err != nil {
		t.Fatal(err)
	}
	// FetchSize 0: the server streams the whole 14400-row cross join; the
	// client disappears after the first frame.
	req := wire.Execute{SQL: `SELECT b1.s FROM big b1, big b2`}
	if err := conn.WriteMessage(wire.MsgExecute, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	nc.Close()
	waitZero(t, "portals", srv.ActivePortals)
	waitZero(t, "sessions", db.ActiveSessions)
}

// TestCursorTimeoutBetweenFetches parks an open cursor past the per-query
// timeout: the next Fetch must fail with the typed timeout error, the
// portal must be freed, and the connection must stay usable.
func TestCursorTimeoutBetweenFetches(t *testing.T) {
	db := bigDB(t, 50)
	addr, srv, shutdown := startServerSrv(t, db, Config{QueryTimeout: 100 * time.Millisecond, CursorBatchRows: 4})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cur, err := c.Execute("", `SELECT i FROM big`, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the first batch, then outstay the timeout.
	for i := 0; i < 5; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatalf("first batch: %v", err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	_, err = cur.Next() // triggers the next Fetch
	var serr *wire.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.ErrCodeTimeout {
		t.Fatalf("fetch past deadline: err=%v, want typed timeout", err)
	}
	if !strings.Contains(serr.Message, "per-query timeout") {
		t.Fatalf("timeout message = %q", serr.Message)
	}
	waitZero(t, "portals", srv.ActivePortals)
	// The connection survives the statement error.
	rows, err := c.Execute("", `SELECT count(*) FROM big`, nil, 0)
	if err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	row, err := rows.Next()
	if err != nil || row[0].Int() != 50 {
		t.Fatalf("after timeout: row=%v err=%v", row, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorMidStreamError streams a result that fails partway through
// (division by zero on a later row): the rows before the failure arrive,
// the error comes back typed in-band, the portal is freed, and the
// connection stays usable.
func TestCursorMidStreamError(t *testing.T) {
	db := engine.NewDB()
	s := db.NewSession()
	if _, err := s.Execute(`CREATE TABLE seq (i int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(`INSERT INTO seq VALUES (1), (2), (3), (4), (5)`); err != nil {
		t.Fatal(err)
	}
	s.Close()
	addr, srv, shutdown := startServerSrv(t, db, Config{CursorBatchRows: 1})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cur, err := c.Execute("", `SELECT 10 / (4 - i) FROM seq`, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	var streamErr error
	for {
		row, err := cur.Next()
		if err != nil {
			streamErr = err
			break
		}
		if row == nil {
			break
		}
		got = append(got, row[0].Int())
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 10 {
		t.Fatalf("rows before failure = %v", got)
	}
	var serr *wire.ServerError
	if !errors.As(streamErr, &serr) || !strings.Contains(serr.Message, "division by zero") {
		t.Fatalf("mid-stream error = %v, want division by zero", streamErr)
	}
	cur.Close()
	waitZero(t, "portals", srv.ActivePortals)
	if _, err := c.ExecuteDrain("", `SELECT 1`, nil); err != nil {
		t.Fatalf("connection unusable after mid-stream error: %v", err)
	}
}

// TestParkedCursorReaped leaves a suspended cursor with a silent client:
// once the portal's query deadline plus one grace timeout passes, the
// server reaps the connection — a silent client cannot pin the executor
// tree, session, or MaxConns slot indefinitely.
func TestParkedCursorReaped(t *testing.T) {
	db := bigDB(t, 50)
	addr, srv, shutdown := startServerSrv(t, db, Config{QueryTimeout: 100 * time.Millisecond, CursorBatchRows: 4})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute("", `SELECT i FROM big`, nil, 4); err != nil {
		t.Fatal(err)
	}
	if got := srv.ActivePortals(); got != 1 {
		t.Fatalf("ActivePortals = %d, want 1", got)
	}
	// No Fetch, ever. Deadline (100ms) + grace (100ms) later the server
	// must have torn everything down on its own.
	waitZero(t, "portals", srv.ActivePortals)
	waitZero(t, "sessions", db.ActiveSessions)
}

// TestShutdownSkipsExpiredPortal starts a graceful shutdown while a parked
// cursor's deadline has already passed: its next Fetch could only fail with
// the typed timeout, so Shutdown must close it immediately instead of
// burning the whole drain deadline waiting for it.
func TestShutdownSkipsExpiredPortal(t *testing.T) {
	db := bigDB(t, 50)
	addr, srv, _ := startServerSrv(t, db, Config{QueryTimeout: 50 * time.Millisecond, CursorBatchRows: 4})

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute("", `SELECT i FROM big`, nil, 4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // expire the portal deadline

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown with expired portal took %v", took)
	}
	if got := srv.ActivePortals(); got != 0 {
		t.Fatalf("portals after shutdown = %d", got)
	}
}

// TestShutdownDrainsOpenCursor starts a graceful shutdown while a cursor is
// suspended: the connection must survive for the client to finish fetching
// (Fetch and ClosePortal stay admissible), after which the connection
// closes and Shutdown returns within the drain deadline.
func TestShutdownDrainsOpenCursor(t *testing.T) {
	db := bigDB(t, 40)
	addr, srv, _ := startServerSrv(t, db, Config{CursorBatchRows: 4})
	// Shutdown driven by hand below; the startServerSrv closer would
	// double-shutdown.

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cur, err := c.Execute("", `SELECT i FROM big`, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// Give shutdown time to close listeners and idle connections; the
	// cursor connection must NOT be one of them.
	time.Sleep(50 * time.Millisecond)

	var n int
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("fetch during shutdown: %v", err)
		}
		if row == nil {
			break
		}
		n++
	}
	if n != 39 { // 40 rows, one consumed before shutdown
		t.Fatalf("drained %d rows during shutdown, want 39", n)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor close: %v", err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	if got := srv.ActivePortals(); got != 0 {
		t.Fatalf("portals after shutdown = %d", got)
	}
}

// TestShutdownKillsParkedCursor expires the drain deadline while a cursor
// sits open: the kill path force-closes the connection, interrupts the
// session, and frees the portal.
func TestShutdownKillsParkedCursor(t *testing.T) {
	db := bigDB(t, 40)
	addr, srv, _ := startServerSrv(t, db, Config{CursorBatchRows: 4})

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cur, err := c.Execute("", `SELECT i FROM big`, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}

	// An already-expired context: drain nothing, kill immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown = %v, want context.Canceled", err)
	}
	waitZero(t, "portals", srv.ActivePortals)
	waitZero(t, "sessions", db.ActiveSessions)
}

// TestStreamedTagMatchesMaterialized is the tag regression: "SELECT n" for a
// streamed result is computed at drain time and must agree with the
// materialized path, over the wire included.
func TestStreamedTagMatchesMaterialized(t *testing.T) {
	db := bigDB(t, 30)
	addr, _, shutdown := startServerSrv(t, db, Config{CursorBatchRows: 4})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess := db.NewSession()
	defer sess.Close()

	for _, q := range []string{
		`SELECT i FROM big`,
		`SELECT i FROM big WHERE i < 7`,
		`SELECT i FROM big LIMIT 11`,
		`SELECT b1.i FROM big b1, big b2 WHERE b1.i = b2.i AND b1.i % 2 = 0`,
		`SELECT i FROM big WHERE i < 0`,
	} {
		res, err := sess.Execute(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want := fmt.Sprintf("SELECT %d", len(res.Rows))
		if res.Tag != want {
			t.Fatalf("%q: materialized tag %q, want %q", q, res.Tag, want)
		}
		cur, err := c.Execute("", q, nil, 3)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		var n int
		for {
			row, err := cur.Next()
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if row == nil {
				break
			}
			n++
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if n != len(res.Rows) {
			t.Fatalf("%q: streamed %d rows, materialized %d", q, n, len(res.Rows))
		}
		if cur.Complete.Tag != want {
			t.Fatalf("%q: streamed tag %q, want %q", q, cur.Complete.Tag, want)
		}
	}
}
