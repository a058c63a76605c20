package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"perm"
	"perm/internal/engine"
	"perm/internal/server"

	permdriver "perm/driver"
)

// startServer serves db on a loopback listener and returns the address.
func startServer(t *testing.T, db *engine.DB, cfg server.Config) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(db, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	return l.Addr().String()
}

// the paper's Figure 1 forum schema, the script both engines run in the
// end-to-end comparison.
var setupScript = []string{
	`CREATE TABLE messages (mId int, text text, uId int)`,
	`CREATE TABLE users (uId int, name text)`,
	`INSERT INTO messages VALUES (1, 'lorem ipsum', 3), (4, 'hi there', 2)`,
	`INSERT INTO users VALUES (2, 'gert'), (3, 'peter')`,
}

const provQuery = `SELECT PROVENANCE m.text, u.name FROM messages m, users u WHERE m.uId = u.uId ORDER BY m.mId`

// readAll scans every row into printable strings.
func readAll(t *testing.T, rows *sql.Rows) (cols []string, data [][]string) {
	t.Helper()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatalf("columns: %v", err)
	}
	for rows.Next() {
		raw := make([]any, len(cols))
		for i := range raw {
			raw[i] = new(sql.NullString)
		}
		if err := rows.Scan(raw...); err != nil {
			t.Fatalf("scan: %v", err)
		}
		row := make([]string, len(cols))
		for i, c := range raw {
			ns := c.(*sql.NullString)
			if ns.Valid {
				row[i] = ns.String
			} else {
				row[i] = "<null>"
			}
		}
		data = append(data, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return cols, data
}

// TestEndToEndMatchesEmbedded is the acceptance path: a live server on a
// loopback listener, database/sql through the perm driver, DDL + SELECT
// PROVENANCE, and results identical to the embedded engine.
func TestEndToEndMatchesEmbedded(t *testing.T) {
	addr := startServer(t, engine.NewDB(), server.Config{})
	db, err := sql.Open("perm", "tcp://"+addr)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	for _, stmt := range setupScript {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
	}
	rows, err := db.Query(provQuery)
	if err != nil {
		t.Fatalf("provenance query: %v", err)
	}
	gotCols, gotRows := readAll(t, rows)
	rows.Close()

	// The same script on the embedded engine.
	emb := perm.Open()
	for _, stmt := range setupScript {
		emb.MustExec(stmt)
	}
	want, err := emb.Query(provQuery)
	if err != nil {
		t.Fatalf("embedded query: %v", err)
	}
	if len(gotCols) != len(want.Columns) {
		t.Fatalf("columns %v, embedded %v", gotCols, want.Columns)
	}
	for i := range gotCols {
		if gotCols[i] != want.Columns[i] {
			t.Fatalf("column %d: %q != %q", i, gotCols[i], want.Columns[i])
		}
	}
	if len(gotRows) != len(want.Rows) {
		t.Fatalf("%d rows, embedded %d", len(gotRows), len(want.Rows))
	}
	for i, wr := range want.Rows {
		for j, wv := range wr {
			wantCell := wv.String()
			if wv.IsNull() {
				wantCell = "<null>"
			}
			if gotRows[i][j] != wantCell {
				t.Fatalf("row %d col %d: %q != embedded %q", i, j, gotRows[i][j], wantCell)
			}
		}
	}
	// Sanity: provenance columns actually arrived.
	if !strings.HasPrefix(gotCols[2], "prov_") {
		t.Fatalf("expected provenance columns, got %v", gotCols)
	}
}

// TestFiftyConcurrentConnections is the second acceptance bullet: 50 driver
// connections against one live server, all querying provenance, under -race.
func TestFiftyConcurrentConnections(t *testing.T) {
	edb := engine.NewDB()
	s := edb.NewSession()
	for _, stmt := range setupScript {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	addr := startServer(t, edb, server.Config{})

	db, err := sql.Open("perm", "tcp://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 50
	db.SetMaxOpenConns(n)
	db.SetMaxIdleConns(n)

	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				rows, err := db.Query(provQuery)
				if err != nil {
					errCh <- fmt.Errorf("conn %d: %v", id, err)
					return
				}
				count := 0
				for rows.Next() {
					count++
				}
				cerr := rows.Err()
				rows.Close()
				if cerr != nil {
					errCh <- fmt.Errorf("conn %d: %v", id, cerr)
					return
				}
				if count != 2 {
					errCh <- fmt.Errorf("conn %d: %d rows, want 2", id, count)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentMixedTraffic stress-tests mixed DDL/DML/provenance traffic
// and cross-session plan-cache invalidation over a live server.
func TestConcurrentMixedTraffic(t *testing.T) {
	edb := engine.NewDB()
	s := edb.NewSession()
	if _, err := s.Execute(`CREATE TABLE shared (w int, tag text)`); err != nil {
		t.Fatal(err)
	}
	s.Close()
	addr := startServer(t, edb, server.Config{})

	db, err := sql.Open("perm", "tcp://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const workers = 8
	db.SetMaxOpenConns(workers)

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fail := func(err error) { errCh <- fmt.Errorf("worker %d: %v", id, err) }
			for iter := 0; iter < 15; iter++ {
				// DML on the shared table.
				if _, err := db.Exec(`INSERT INTO shared VALUES (?, ?)`, id*1000+iter, fmt.Sprintf("w%d", id)); err != nil {
					fail(err)
					return
				}
				// The identical SELECT text from every worker: sessions cache
				// the plan, and the DDL below (from other workers) forces
				// cross-session invalidation through the catalog version.
				shRows, err := db.Query(`SELECT PROVENANCE count(*) FROM shared GROUP BY tag`)
				if err != nil {
					fail(err)
					return
				}
				for shRows.Next() {
				}
				shErr := shRows.Err()
				shRows.Close()
				if shErr != nil {
					fail(shErr)
					return
				}
				// Private DDL churn: create, fill, provenance-query, drop.
				tbl := fmt.Sprintf("t_%d", id)
				if _, err := db.Exec(`CREATE TABLE ` + tbl + ` (x int)`); err != nil {
					fail(err)
					return
				}
				if _, err := db.Exec(`INSERT INTO `+tbl+` VALUES (?), (?)`, iter, iter+1); err != nil {
					fail(err)
					return
				}
				rows, err := db.Query(`SELECT PROVENANCE x FROM ` + tbl)
				if err != nil {
					fail(err)
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				cerr := rows.Err()
				rows.Close()
				if cerr != nil {
					fail(cerr)
					return
				}
				if n != 2 {
					fail(fmt.Errorf("private table had %d rows, want 2", n))
					return
				}
				if _, err := db.Exec(`DROP TABLE ` + tbl); err != nil {
					fail(err)
					return
				}
				// Occasionally delete to exercise the write gate against
				// concurrent scans.
				if iter%5 == 4 {
					if _, err := db.Exec(`DELETE FROM shared WHERE w = ?`, id*1000+iter); err != nil {
						fail(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The shared table must reflect every surviving insert exactly.
	var total int
	if err := db.QueryRow(`SELECT count(*) FROM shared`).Scan(&total); err != nil {
		t.Fatal(err)
	}
	want := workers*15 - workers*3 // 15 inserts, 3 deletes per worker
	if total != want {
		t.Fatalf("shared table has %d rows, want %d", total, want)
	}
}

func TestMemModeSharedAndPrivate(t *testing.T) {
	// Private: two sql.DBs on mem:// never see each other.
	db1, err := sql.Open("perm", "mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	db2, err := sql.Open("perm", "mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db1.Exec(`CREATE TABLE t (x int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec(`CREATE TABLE t (x int)`); err != nil {
		t.Fatalf("mem:// databases leaked into each other: %v", err)
	}

	// Named: the same name is the same database; pooled connections are
	// separate sessions over it.
	a, err := sql.Open("perm", "mem://stress")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := sql.Open("perm", "mem://stress")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.Exec(`CREATE TABLE s (x int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(`INSERT INTO s VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := b.QueryRow(`SELECT count(*) FROM s`).Scan(&n); err != nil {
		t.Fatalf("shared mem db not visible: %v", err)
	}
	if n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}

func TestPlaceholderInterpolation(t *testing.T) {
	db, err := sql.Open("perm", "mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec := func(q string, args ...any) {
		t.Helper()
		if _, err := db.Exec(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE t (i int, f float, s text, b bool)`)
	mustExec(`INSERT INTO t VALUES (?, ?, ?, ?)`, 42, 2.5, "it's ok?", true)
	mustExec(`INSERT INTO t VALUES (?, ?, ?, ?)`, nil, nil, nil, nil)

	var (
		i sql.NullInt64
		f sql.NullFloat64
		s sql.NullString
		b sql.NullBool
	)
	// A ? inside a string literal is not a placeholder.
	err = db.QueryRow(`SELECT i, f, s, b FROM t WHERE s = ? AND s != 'not a ? marker'`, "it's ok?").Scan(&i, &f, &s, &b)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if i.Int64 != 42 || f.Float64 != 2.5 || s.String != "it's ok?" || !b.Bool {
		t.Fatalf("got %v %v %q %v", i.Int64, f.Float64, s.String, b.Bool)
	}
	var nulls int
	if err := db.QueryRow(`SELECT count(*) FROM t WHERE i IS NULL`).Scan(&nulls); err != nil {
		t.Fatal(err)
	}
	if nulls != 1 {
		t.Fatalf("null rows = %d", nulls)
	}

	// Arity mismatches fail where the statement is parsed: the engine's
	// bind-count error (TestArityCheckedByParse pins the message).
	if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?, ?)`, 1); err == nil {
		t.Fatal("too few args accepted")
	}
	if _, err := db.Exec(`INSERT INTO t (i) VALUES (?)`, 1, 2); err == nil {
		t.Fatal("too many args accepted")
	}

	// Comments — including ones containing apostrophes or ? — must not
	// confuse placeholder detection. Block comments nest, like the lexer's.
	var got int64
	err = db.QueryRow("SELECT i FROM t -- it's a comment with a ? mark\nWHERE i = ? /* isn't it? */ /* a /* nested ? */ comment */", 42).Scan(&got)
	if err != nil {
		t.Fatalf("commented query: %v", err)
	}
	if got != 42 {
		t.Fatalf("commented query returned %d", got)
	}
}

// TestArityCheckedByParse runs statements with too few and too many
// arguments, embedded and over the wire: each fails with the engine's
// bind-count error from the parse, and a mismatched INSERT writes no row.
func TestArityCheckedByParse(t *testing.T) {
	addr := startServer(t, engine.NewDB(), server.Config{})
	for _, dsn := range []string{"mem://", "tcp://" + addr} {
		db, err := sql.Open("perm", dsn)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.Exec(`CREATE TABLE t (i int, s text)`); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			args []any
			want string
		}{
			{[]any{1}, "engine: statement binds 2 parameters, got 1 arguments"},
			{[]any{1, "a", 3}, "engine: statement binds 2 parameters, got 3 arguments"},
			{nil, "engine: statement binds 2 parameters, got 0 arguments"},
		} {
			_, err := db.Exec(`INSERT INTO t VALUES (?, /* ? */ ?)`, c.args...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: INSERT with %d arguments: err = %v, want %q", dsn, len(c.args), err, c.want)
			}
			if _, err := db.Query(`SELECT i FROM t WHERE i = ? AND s = ?`, c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: SELECT with %d arguments: err = %v, want %q", dsn, len(c.args), err, c.want)
			}
		}
		var n int
		if err := db.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil || n != 0 {
			t.Errorf("%s: mismatched INSERTs wrote %d rows (%v)", dsn, n, err)
		}
	}
}

func TestExecResultAndColumnTypes(t *testing.T) {
	db, err := sql.Open("perm", "mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (i int, s text)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res.RowsAffected(); err != nil || n != 3 {
		t.Fatalf("rows affected = %d, %v", n, err)
	}
	res, err = db.Exec(`DELETE FROM t WHERE i > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Fatalf("delete affected %d", n)
	}

	rows, err := db.Query(`SELECT i, s FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	types, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	if types[0].DatabaseTypeName() != "INTEGER" || types[1].DatabaseTypeName() != "TEXT" {
		t.Fatalf("types = %s, %s", types[0].DatabaseTypeName(), types[1].DatabaseTypeName())
	}
}

func TestTransactions(t *testing.T) {
	db, err := sql.Open("perm", "mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE acct (id int, bal int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO acct VALUES (1, 100), (2, 50)`); err != nil {
		t.Fatal(err)
	}

	// Committed transaction: both effects land atomically.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE acct SET bal = bal - 30 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE acct SET bal = bal + 30 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the transaction.
	var bal int
	if err := tx.QueryRow(`SELECT bal FROM acct WHERE id = 2`).Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 80 {
		t.Fatalf("in-transaction read: bal = %d, want 80", bal)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var total int
	if err := db.QueryRow(`SELECT sum(bal) FROM acct`).Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total != 150 {
		t.Fatalf("after commit: sum = %d, want 150", total)
	}

	// Rolled-back transaction: no effect survives.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM acct`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := db.QueryRow(`SELECT count(*) FROM acct`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("after rollback: %d rows, want 2", n)
	}

	// SERIALIZABLE would over-promise under snapshot isolation; refused.
	if _, err := db.BeginTx(context.Background(), &sql.TxOptions{Isolation: sql.LevelSerializable}); err == nil {
		t.Fatal("BeginTx(serializable) succeeded; snapshot isolation cannot honor it")
	}
}

func TestContextCancellationLocal(t *testing.T) {
	db, err := sql.Open("perm", "mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE big (n int)`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO big VALUES (0)`)
	for i := 1; i < 300; i++ {
		fmt.Fprintf(&b, ", (%d)", i)
	}
	if _, err := db.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = db.QueryContext(ctx, `SELECT count(*) FROM big a, big b, big c WHERE a.n <= b.n`)
	if err == nil {
		t.Fatal("runaway local query not canceled by context")
	}
	// The connection survives.
	var n int
	if err := db.QueryRow(`SELECT count(*) FROM big`).Scan(&n); err != nil || n != 300 {
		t.Fatalf("connection unusable after cancel: %d, %v", n, err)
	}
}

// TestContextCancellationRemote: a context deadline must unblock a driver
// call that is waiting on the server without waiting for the server to give
// up. The server's own timeout here is a 100×-larger backstop (so the
// orphaned query doesn't outlive the test); the assertion is that the
// client returns at its own deadline, sacrificing the connection, and the
// pool recovers.
func TestContextCancellationRemote(t *testing.T) {
	edb := engine.NewDB()
	s := edb.NewSession()
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
	s.Close()
	addr := startServer(t, edb, server.Config{QueryTimeout: 2 * time.Second})

	db, err := sql.Open("perm", "tcp://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = db.QueryContext(ctx, `SELECT count(*) FROM big a, big b, big c WHERE a.n <= b.n`)
	if err == nil {
		t.Fatal("remote query ignored context deadline")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error = %v, want context deadline", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("cancellation took %s; the driver waited for the server instead of the context", waited)
	}
	// The pool recovers with a fresh connection.
	var n int
	if err := db.QueryRow(`SELECT count(*) FROM big`).Scan(&n); err != nil || n != 400 {
		t.Fatalf("pool did not recover: %d, %v", n, err)
	}
}

func TestBadDSN(t *testing.T) {
	for _, dsn := range []string{"", "http://x", "tcp://"} {
		db, err := sql.Open("perm", dsn)
		if err == nil {
			// sql.Open defers dialing; the error surfaces on first use.
			err = db.Ping()
			db.Close()
		}
		if err == nil {
			t.Fatalf("DSN %q accepted", dsn)
		}
	}
}

// TestReadOnlyDSNLocal verifies the `?readonly` option rejects writes
// client-side on an embedded connection, with the typed error.
func TestReadOnlyDSNLocal(t *testing.T) {
	rw, err := sql.Open("perm", "mem://roshared")
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if _, err := rw.Exec(`CREATE TABLE t (i int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Exec(`INSERT INTO t VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}

	ro, err := sql.Open("perm", "mem://roshared?readonly")
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	var n int
	if err := ro.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil || n != 2 {
		t.Fatalf("read on readonly pool: %d, %v", n, err)
	}
	for _, stmt := range []string{
		`INSERT INTO t VALUES (3)`,
		`UPDATE t SET i = 9`,
		`DELETE FROM t`,
		`DROP TABLE t`,
		`CREATE TABLE u (i int)`,
		`ANALYZE`,
	} {
		if _, err := ro.Exec(stmt); !errors.Is(err, permdriver.ErrReadOnly) {
			t.Fatalf("%s on readonly pool: err = %v, want ErrReadOnly", stmt, err)
		}
	}
	// SET and EXPLAIN remain usable (session-local / read-only).
	if _, err := ro.Exec(`SET optimizer = 'off'`); err != nil {
		t.Fatalf("SET on readonly pool: %v", err)
	}
	rows, err := ro.Query(`EXPLAIN SELECT i FROM t`)
	if err != nil {
		t.Fatalf("EXPLAIN on readonly pool: %v", err)
	}
	rows.Close()

	// Bad option values are rejected at Open/first use.
	bad, err := sql.Open("perm", "mem://x?readonly=maybe")
	if err == nil {
		if err = bad.Ping(); err == nil {
			t.Fatal("bad readonly value accepted")
		}
		bad.Close()
	}
}

// TestReadOnlyReplicaRemoteTyped points a pool at a replica server WITHOUT
// the readonly DSN option: the server's rejection must come back as the same
// typed error through the wire error code.
func TestReadOnlyReplicaRemoteTyped(t *testing.T) {
	edb := engine.NewDB()
	if _, err := edb.NewSession().Execute(`CREATE TABLE t (i int)`); err != nil {
		t.Fatal(err)
	}
	edb.SetReadOnly(true)
	addr := startServer(t, edb, server.Config{})

	db, err := sql.Open("perm", "tcp://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); !errors.Is(err, permdriver.ErrReadOnly) {
		t.Fatalf("remote write to replica: err = %v, want ErrReadOnly", err)
	}
	var n int
	if err := db.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil {
		t.Fatalf("remote read from replica: %v", err)
	}
}
