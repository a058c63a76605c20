package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"perm/internal/engine"
	"perm/internal/value"
	"perm/internal/wire"
)

// startServer runs a server on a loopback listener and returns its address
// and a shutdown func.
func startServer(t *testing.T, db *engine.DB, cfg Config) (addr string, shutdown func()) {
	t.Helper()
	addr, _, shutdown = startServerSrv(t, db, cfg)
	return addr, shutdown
}

// startServerSrv is startServer, additionally exposing the Server for tests
// that assert on its counters or drive Shutdown themselves.
func startServerSrv(t *testing.T, db *engine.DB, cfg Config) (addr string, srv *Server, shutdown func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv = New(db, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	var once sync.Once
	return l.Addr().String(), srv, func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-done; err != ErrServerClosed {
				t.Errorf("serve returned %v, want ErrServerClosed", err)
			}
		})
	}
}

func seedDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	s := db.NewSession()
	defer s.Close()
	for _, stmt := range []string{
		`CREATE TABLE r (i int, s text)`,
		`INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, NULL)`,
	} {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatalf("seed %q: %v", stmt, err)
		}
	}
	return db
}

func TestQueryRoundTrip(t *testing.T) {
	db := seedDB(t)
	addr, shutdown := startServer(t, db, Config{})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	rows, err := c.Execute("", `SELECT PROVENANCE i FROM r ORDER BY i`, nil, 0)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := rows.Desc.Names; len(got) != 3 || got[0] != "i" || got[1] != "prov_public_r_i" || got[2] != "prov_public_r_s" {
		t.Fatalf("columns = %v", got)
	}
	if rows.Desc.IsProv[0] || !rows.Desc.IsProv[1] || !rows.Desc.IsProv[2] {
		t.Fatalf("provenance flags = %v", rows.Desc.IsProv)
	}
	var all []value.Row
	for {
		row, err := rows.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if row == nil {
			break
		}
		all = append(all, row)
	}
	if len(all) != 3 || all[0][0].Int() != 1 || all[0][1].Int() != 1 {
		t.Fatalf("rows = %v", all)
	}
	if rows.Complete.Tag != "SELECT 3" {
		t.Fatalf("tag = %q", rows.Complete.Tag)
	}

	// Remote results must equal the embedded engine's, value for value.
	s := db.NewSession()
	defer s.Close()
	local, err := s.Execute(`SELECT PROVENANCE i FROM r ORDER BY i`)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	for i, lr := range local.Rows {
		if value.CompareRows(lr, all[i]) != 0 {
			t.Fatalf("row %d: remote %v != local %v", i, all[i], lr)
		}
	}
}

func TestStatementErrorKeepsConnectionUsable(t *testing.T) {
	addr, shutdown := startServer(t, seedDB(t), Config{})
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if _, err := c.Execute("", `SELECT nope FROM missing`, nil, 0); err == nil {
		t.Fatal("want error for bad query")
	} else if _, ok := err.(*wire.ServerError); !ok {
		t.Fatalf("want *wire.ServerError, got %T: %v", err, err)
	}
	done, err := c.ExecuteDrain("", `SELECT i FROM r WHERE i = 1`, nil)
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	if done.Tag != "SELECT 1" {
		t.Fatalf("tag = %q", done.Tag)
	}
}

// TestInlineExecuteParsesOnlyOnAMiss: a one-shot statement opens through the
// session plan cache, so repeating it — with or without arguments — is a
// cache hit that did not parse.
func TestInlineExecuteParsesOnlyOnAMiss(t *testing.T) {
	addr, shutdown := startServer(t, seedDB(t), Config{})
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	for _, tc := range []struct {
		sql  string
		args []value.Value
	}{
		{sql: `SELECT PROVENANCE i FROM r WHERE i >= 2`},
		{sql: `SELECT PROVENANCE i FROM r WHERE i >= ?`, args: []value.Value{value.NewInt(2)}},
	} {
		first, err := c.ExecuteDrain("", tc.sql, tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.sql, err)
		}
		if first.CacheHit || first.Parse == 0 {
			t.Fatalf("first %q: %+v, want a parsed miss", tc.sql, first)
		}
		again, err := c.ExecuteDrain("", tc.sql, tc.args)
		if err != nil {
			t.Fatalf("%q again: %v", tc.sql, err)
		}
		if !again.CacheHit || again.Parse != 0 || again.Tag != first.Tag {
			t.Fatalf("repeated %q: %+v, want a cache hit with no parse time and tag %q", tc.sql, again, first.Tag)
		}
	}
}

func TestSessionIsolationAndSettings(t *testing.T) {
	addr, shutdown := startServer(t, seedDB(t), Config{})
	defer shutdown()
	c1, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if _, err := c1.ExecuteDrain("", `SET provenance_contribution = 'copy'`, nil); err != nil {
		t.Fatalf("set: %v", err)
	}
	show := func(c *wire.Client) string {
		rows, err := c.Execute("", `SHOW provenance_contribution`, nil, 0)
		if err != nil {
			t.Fatalf("show: %v", err)
		}
		row, err := rows.Next()
		if err != nil || row == nil {
			t.Fatalf("show next: %v %v", row, err)
		}
		rows.Close()
		return row[0].Str()
	}
	if got := show(c1); got != "copy" {
		t.Fatalf("c1 contribution = %q", got)
	}
	if got := show(c2); got != "influence" {
		t.Fatalf("c2 contribution = %q (session settings leaked)", got)
	}
}

func TestPerQueryTimeout(t *testing.T) {
	db := engine.NewDB()
	s := db.NewSession()
	defer s.Close()
	// A self-cross-joined table big enough to overrun a tiny timeout.
	if _, err := s.Execute(`CREATE TABLE big (n int)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO big VALUES (0)`)
	for i := 1; i < 400; i++ {
		fmt.Fprintf(&b, ", (%d)", i)
	}
	if _, err := s.Execute(b.String()); err != nil {
		t.Fatal(err)
	}

	addr, shutdown := startServer(t, db, Config{QueryTimeout: 5 * time.Millisecond})
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.ExecuteDrain("", `SELECT count(*) FROM big a, big b, big c WHERE a.n <= b.n`, nil)
	if err == nil {
		t.Fatal("runaway query was not canceled")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("error = %v, want per-query timeout", err)
	}
	// The session survives the cancellation.
	done, err := c.ExecuteDrain("", `SELECT count(*) FROM big`, nil)
	if err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	if done.Tag != "SELECT 1" {
		t.Fatalf("tag = %q", done.Tag)
	}

	// A join whose probe loop never emits a row (the condition can never
	// match) must still observe the timeout: this exercises the row-free
	// cancellation polls, which the materialization loops cannot cover.
	_, err = c.ExecuteDrain("", `SELECT count(*) FROM big a JOIN big b ON a.n >= b.n JOIN big c ON a.n > c.n + 1000`, nil)
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("never-matching join not canceled: %v", err)
	}
}

func TestConnectionLimit(t *testing.T) {
	addr, shutdown := startServer(t, seedDB(t), Config{MaxConns: 2})
	defer shutdown()
	c1, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if _, err := wire.Dial(addr); err == nil {
		t.Fatal("third connection admitted over MaxConns=2")
	} else if !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("refusal error = %v", err)
	}

	// Closing one admits the next.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := wire.Dial(addr)
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not released: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionTeardownOnDisconnect(t *testing.T) {
	db := seedDB(t)
	addr, shutdown := startServer(t, db, Config{})
	defer shutdown()

	base := db.ActiveSessions()
	var clients []*wire.Client
	for i := 0; i < 5; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if _, err := c.ExecuteDrain("", `SELECT i FROM r`, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.ActiveSessions(); got != base+5 {
		t.Fatalf("active sessions = %d, want %d", got, base+5)
	}
	for _, c := range clients {
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for db.ActiveSessions() != base {
		if time.Now().After(deadline) {
			t.Fatalf("sessions not torn down: %d live", db.ActiveSessions()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestOnlineBackupRestores(t *testing.T) {
	db := seedDB(t)
	addr, shutdown := startServer(t, db, Config{})
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Materialize provenance eagerly, then back up over the wire.
	if _, err := c.ExecuteDrain("", `CREATE TABLE p AS SELECT PROVENANCE i, s FROM r`, nil); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	var snap bytes.Buffer
	if err := c.Backup(&snap); err != nil {
		t.Fatalf("backup: %v", err)
	}

	restored := engine.NewDB()
	if err := restored.Store().Restore(&snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	s := restored.NewSession()
	defer s.Close()
	res, err := s.Execute(`SELECT count(*) FROM p`)
	if err != nil {
		t.Fatalf("query restored: %v", err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("restored provenance table has %v rows, want 3", res.Rows[0][0])
	}
}

func TestBackupDoesNotBlockQueries(t *testing.T) {
	db := seedDB(t)
	// Grow the table so the backup encode takes a visible amount of time.
	s := db.NewSession()
	var b strings.Builder
	b.WriteString(`INSERT INTO r VALUES (10, 'x')`)
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, ", (%d, 'padding-%d')", i+10, i)
	}
	if _, err := s.Execute(b.String()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	addr, shutdown := startServer(t, db, Config{})
	defer shutdown()

	var wg sync.WaitGroup
	wg.Add(2)
	errCh := make(chan error, 2)
	go func() {
		defer wg.Done()
		c, err := wire.Dial(addr)
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			var snap bytes.Buffer
			if err := c.Backup(&snap); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		c, err := wire.Dial(addr)
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()
		for i := 0; i < 20; i++ {
			if _, err := c.ExecuteDrain("", `SELECT PROVENANCE count(*) FROM r GROUP BY s`, nil); err != nil {
				errCh <- err
				return
			}
			if _, err := c.ExecuteDrain("", fmt.Sprintf(`INSERT INTO r VALUES (%d, 'c')`, 1000+i), nil); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent backup/query: %v", err)
	}
}

func TestGracefulShutdownClosesIdleConns(t *testing.T) {
	db := seedDB(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// An idle pooled connection (request completed, nothing in flight) must
	// not delay shutdown: it is closed immediately, like net/http does.
	c, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecuteDrain("", `SELECT i FROM r`, nil); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("shutdown waited %s on an idle connection", waited)
	}
	// The idle session was torn down and new dials fail.
	if _, err := c.ExecuteDrain("", `SELECT 1`, nil); err == nil {
		t.Fatal("idle connection survived shutdown")
	}
	if _, err := wire.Dial(l.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("serve: %v", err)
	}
	if got := db.ActiveSessions(); got != 0 {
		t.Fatalf("%d sessions still active after shutdown", got)
	}
}

func TestProtocolVersionMismatch(t *testing.T) {
	addr, shutdown := startServer(t, seedDB(t), Config{})
	defer shutdown()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	if err := conn.WriteMessage(wire.MsgHello, wire.Hello{Version: 99, Client: "test"}.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, body, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("type = %q, want error", typ)
	}
	if msg := wire.NewReader(body).String(); !strings.Contains(msg, "protocol version") {
		t.Fatalf("message = %q", msg)
	}
}
