package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"perm/internal/engine"
	"perm/internal/value"
	"perm/internal/wire"
	"perm/internal/workload"
)

// replCfg is a server config with fast heartbeats so tests observe liveness
// without waiting wall-clock seconds.
func replCfg() Config {
	return Config{HeartbeatInterval: 20 * time.Millisecond}
}

func fastFollower(addr string) FollowerConfig {
	return FollowerConfig{
		PrimaryAddr: addr,
		ReadTimeout: 2 * time.Second,
		RetryMin:    10 * time.Millisecond,
		RetryMax:    200 * time.Millisecond,
	}
}

// waitCaughtUp blocks until the replica's applied LSN reaches the primary's
// current last LSN (lag 0 as of the call, at least).
func waitCaughtUp(t *testing.T, primary *engine.DB, f *Follower) {
	t.Helper()
	target := primary.Store().Log().LastLSN()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Status()
		if st.AppliedLSN >= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at LSN %d, primary at %d (connected=%v lastErr=%q)",
				st.AppliedLSN, target, st.Connected, st.LastError)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicationSuite is the query battery both sides must answer identically:
// plain SQL, provenance with its rewrite strategies (aggregation, set
// operations, DISTINCT, nested subqueries), views, and EXPLAIN-adjacent
// SHOW output is excluded (it is node-local by design).
var replicationSuite = []string{
	`SELECT mId, text, uId FROM messages ORDER BY mId`,
	`SELECT * FROM v1 ORDER BY mId, text`,
	`SELECT PROVENANCE mId, text FROM messages`,
	`SELECT PROVENANCE name FROM users u, messages m WHERE u.uId = m.uId ORDER BY name`,
	`SELECT PROVENANCE count(*) FROM messages`,
	`SELECT PROVENANCE uId, count(*) FROM approved GROUP BY uId ORDER BY uId`,
	`SELECT PROVENANCE mId, text FROM messages UNION SELECT mId, text FROM imports ORDER BY mId, text`,
	`SELECT PROVENANCE DISTINCT text FROM (SELECT text FROM messages UNION ALL SELECT text FROM imports) sub ORDER BY text`,
	`SELECT PROVENANCE mId FROM messages WHERE mId > ANY (SELECT mId FROM approved) ORDER BY mId`,
	`SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) mId, text FROM messages`,
	`SELECT PROVENANCE * FROM v1 ORDER BY mId, text`,
	`SELECT m.mId, a.uId FROM messages m LEFT OUTER JOIN approved a ON m.mId = a.mId ORDER BY m.mId, a.uId`,
}

// renderResult flattens a result to a byte-comparable string: column names,
// provenance flags, types, and every row value in order.
func renderResult(res *engine.Result) string {
	var b strings.Builder
	for i, c := range res.Columns {
		fmt.Fprintf(&b, "%s|", c)
		if i < len(res.Schema) {
			fmt.Fprintf(&b, "%s|%v|", res.Schema[i].Type, res.Schema[i].IsProv)
		}
	}
	b.WriteString("\n")
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(v.SQLLiteral())
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// assertIdentical runs the suite on both databases and compares the rendered
// results byte for byte.
func assertIdentical(t *testing.T, primary, replica *engine.DB, queries []string) {
	t.Helper()
	ps, rs := primary.NewSession(), replica.NewSession()
	defer ps.Close()
	defer rs.Close()
	for _, q := range queries {
		pres, perr := ps.Execute(q)
		rres, rerr := rs.Execute(q)
		if perr != nil || rerr != nil {
			t.Fatalf("query %q: primary err %v, replica err %v", q, perr, rerr)
		}
		if p, r := renderResult(pres), renderResult(rres); p != r {
			t.Fatalf("query %q diverged:\nprimary:\n%s\nreplica:\n%s", q, p, r)
		}
	}
}

func TestReplicaBootstrapAndLiveChanges(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addr))
	defer f.Stop()
	waitCaughtUp(t, primary, f)
	if f.Snapshots() != 1 {
		t.Fatalf("bootstrap used %d snapshots, want 1", f.Snapshots())
	}
	assertIdentical(t, primary, replica, replicationSuite)

	// Live changes: every DML shape, view DDL and ANALYZE flow through.
	ps := primary.NewSession()
	defer ps.Close()
	for _, stmt := range []string{
		`INSERT INTO messages VALUES (5, 'fresh ...', 1)`,
		`UPDATE users SET name = 'Bertha' WHERE uId = 1`,
		`DELETE FROM approved WHERE mId = 2`,
		`CREATE VIEW recent AS SELECT mId FROM messages WHERE mId > 2`,
		`CREATE TABLE tags (mId int, tag text)`,
		`INSERT INTO tags SELECT mId, 'hot' FROM messages WHERE mId >= 4`,
		`ANALYZE`,
	} {
		if _, err := ps.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	waitCaughtUp(t, primary, f)
	assertIdentical(t, primary, replica, append(replicationSuite,
		`SELECT * FROM recent ORDER BY mId`,
		`SELECT PROVENANCE mId, tag FROM tags ORDER BY mId`,
	))

	// Replication status reads correctly on both sides.
	st := f.Status()
	if st.Role != "replica" || !st.Connected || st.Lag() != 0 {
		t.Fatalf("replica status = %+v", st)
	}
	if ps := primary.ReplicationStatus(); ps.Role != "primary" || ps.Lag() != 0 {
		t.Fatalf("primary status = %+v", ps)
	}
	res, err := replica.NewSession().Execute(`SHOW replication_status`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "role" || res.Rows[0][0].Str() != "replica" {
		t.Fatalf("SHOW replication_status = %v / %v", res.Columns, res.Rows)
	}
}

func TestReplicaRejectsWritesTyped(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addr))
	defer f.Stop()
	waitCaughtUp(t, primary, f)

	// Embedded sessions get the typed engine error.
	rs := replica.NewSession()
	defer rs.Close()
	for _, stmt := range []string{
		`INSERT INTO messages VALUES (9, 'x', 1)`,
		`UPDATE messages SET text = 'x'`,
		`DELETE FROM messages`,
		`CREATE TABLE nope (i int)`,
		`DROP TABLE messages`,
		`CREATE VIEW nope AS SELECT 1`,
		`ANALYZE`,
	} {
		_, err := rs.Execute(stmt)
		if !errors.Is(err, engine.ErrReadOnly) {
			t.Fatalf("%s on replica: err = %v, want ErrReadOnly", stmt, err)
		}
	}
	// Reads — including provenance and SHOW — still work.
	if _, err := rs.Execute(`SELECT PROVENANCE mId FROM messages`); err != nil {
		t.Fatalf("read on replica: %v", err)
	}

	// Over the wire the error carries the read-only code.
	raddr, rshutdown := startServer(t, replica, replCfg())
	defer rshutdown()
	c, err := wire.Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ExecuteDrain("", `INSERT INTO messages VALUES (9, 'x', 1)`, nil)
	var serr *wire.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.ErrCodeReadOnly {
		t.Fatalf("remote write to replica: err = %v (code?)", err)
	}
	if rows, err := c.Execute("", `SELECT count(*) FROM messages`, nil, 0); err != nil {
		t.Fatalf("remote read from replica: %v", err)
	} else if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaCatchupUnderConcurrentWrites races a follower (including its
// initial snapshot bootstrap) against concurrent DML and DDL writers, then
// verifies convergence. Run with -race this also exercises the log/gate
// locking.
func TestReplicaCatchupUnderConcurrentWrites(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := primary.NewSession()
			defer s.Close()
			table := fmt.Sprintf("load%d", w)
			if _, err := s.Execute(fmt.Sprintf(`CREATE TABLE %s (i int, s text)`, table)); err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				stmts := []string{
					fmt.Sprintf(`INSERT INTO %s VALUES (%d, 'w%d-%d')`, table, i, w, i),
					fmt.Sprintf(`UPDATE %s SET s = 'u%d' WHERE i = %d`, table, i, i/2),
					fmt.Sprintf(`DELETE FROM %s WHERE i < %d`, table, i-40),
				}
				if i%25 == 24 {
					stmts = append(stmts,
						fmt.Sprintf(`CREATE VIEW vw%d_%d AS SELECT i FROM %s WHERE i > %d`, w, i, table, i/2),
						fmt.Sprintf(`DROP VIEW vw%d_%d`, w, i),
						`ANALYZE`)
				}
				for _, stmt := range stmts {
					if _, err := s.Execute(stmt); err != nil {
						t.Errorf("writer %d %q: %v", w, stmt, err)
						return
					}
				}
			}
		}(w)
	}

	// Let the writers get going, then attach the follower mid-stream.
	time.Sleep(20 * time.Millisecond)
	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addr))
	defer f.Stop()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	waitCaughtUp(t, primary, f)

	queries := []string{`SELECT mId FROM messages ORDER BY mId`}
	for w := 0; w < 3; w++ {
		queries = append(queries,
			fmt.Sprintf(`SELECT i, s FROM load%d`, w),
			fmt.Sprintf(`SELECT PROVENANCE count(*) FROM load%d`, w))
	}
	assertIdentical(t, primary, replica, queries)
}

// TestReplicaRestartResume saves a replica to a snapshot, "restarts" it into
// a fresh database, and verifies the new follower resumes from its restored
// LSN without a second bootstrap snapshot while the primary still retains
// the log tail.
func TestReplicaRestartResume(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addr))
	waitCaughtUp(t, primary, f)
	f.Stop()

	// The replica's state survives as a snapshot (permserver -save).
	var saved bytes.Buffer
	if err := replica.Store().Save(&saved); err != nil {
		t.Fatal(err)
	}
	restartLSN := replica.Store().Log().LastLSN()

	// The primary moves on while the replica is down.
	ps := primary.NewSession()
	defer ps.Close()
	for i := 0; i < 10; i++ {
		if _, err := ps.Execute(fmt.Sprintf(`INSERT INTO messages VALUES (%d, 'later', 1)`, 100+i)); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: restore the snapshot (permserver -open) and follow again.
	restarted := engine.NewDB()
	if err := restarted.Store().Restore(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := restarted.Store().Log().LastLSN(); got != restartLSN {
		t.Fatalf("restored log position %d, want %d", got, restartLSN)
	}
	f2 := StartFollower(restarted, fastFollower(addr))
	defer f2.Stop()
	waitCaughtUp(t, primary, f2)
	if f2.Snapshots() != 0 {
		t.Fatalf("resumed follower took %d snapshots, want 0 (incremental catch-up)", f2.Snapshots())
	}
	assertIdentical(t, primary, restarted, replicationSuite)
}

// TestReplicaResnapshotAfterLogTrim forces the primary to trim its change
// log past a stopped replica's position; on reconnect the follower must fall
// back to a fresh bootstrap snapshot and still converge.
func TestReplicaResnapshotAfterLogTrim(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	primary.Store().Log().SetRetention(8)
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addr))
	waitCaughtUp(t, primary, f)
	f.Stop()

	ps := primary.NewSession()
	defer ps.Close()
	for i := 0; i < 30; i++ { // far beyond the retained 8 records
		if _, err := ps.Execute(fmt.Sprintf(`INSERT INTO users VALUES (%d, 'u%d')`, 100+i, i)); err != nil {
			t.Fatal(err)
		}
	}

	f2 := StartFollower(replica, fastFollower(addr))
	defer f2.Stop()
	waitCaughtUp(t, primary, f2)
	if f2.Snapshots() != 1 {
		t.Fatalf("trim-lagged follower took %d snapshots, want 1", f2.Snapshots())
	}
	assertIdentical(t, primary, replica, replicationSuite)
}

// TestChainedReplication replicates a replica: LSNs are global, so a
// follower can subscribe to another follower's server.
func TestChainedReplication(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	mid := engine.NewDB()
	f1 := StartFollower(mid, fastFollower(addr))
	defer f1.Stop()
	midAddr, midShutdown := startServer(t, mid, replCfg())
	defer midShutdown()

	leaf := engine.NewDB()
	f2 := StartFollower(leaf, fastFollower(midAddr))
	defer f2.Stop()

	ps := primary.NewSession()
	defer ps.Close()
	if _, err := ps.Execute(`INSERT INTO messages VALUES (7, 'chained', 2)`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, f1)
	waitCaughtUp(t, primary, f2)
	assertIdentical(t, primary, leaf, replicationSuite)
}

// TestSnapshotLSNConsistency hammers a table while snapshots stream, and
// checks every snapshot's LSN agrees exactly with its data: restoring it and
// replaying the primary's log from that LSN reproduces the primary.
func TestSnapshotLSNConsistency(t *testing.T) {
	db := engine.NewDB()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Execute(`CREATE TABLE n (i int)`); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := db.NewSession()
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Execute(fmt.Sprintf(`INSERT INTO n VALUES (%d)`, i)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	for k := 0; k < 20; k++ {
		var buf bytes.Buffer
		lsn, err := db.Store().SaveLSN(&buf)
		if err != nil {
			t.Fatal(err)
		}
		restored := engine.NewDB()
		if err := restored.Store().Restore(&buf); err != nil {
			t.Fatal(err)
		}
		if got := restored.Store().Log().LastLSN(); got != lsn {
			t.Fatalf("snapshot %d: restored LSN %d, want %d", k, got, lsn)
		}
		// The snapshot at LSN n must contain exactly the inserts of records
		// 2..n (record 1 is CREATE TABLE): row count == n-1.
		rs := restored.NewSession()
		res, err := rs.Execute(`SELECT count(*) FROM n`)
		if err != nil {
			t.Fatal(err)
		}
		rs.Close()
		if got := res.Rows[0][0].Int(); got != int64(lsn)-1 {
			t.Fatalf("snapshot at LSN %d has %d rows, want %d", lsn, got, lsn-1)
		}
	}
	close(stop)
	wg.Wait()
}

func TestValueRowKeyRoundTrip(t *testing.T) {
	// Row-image matching on replicas depends on Row.Key being injective
	// across kinds and content; spot-check the shapes replication moves.
	a := value.Row{value.NewInt(1), value.NewString("x"), value.Null}
	b := value.Row{value.NewInt(1), value.NewString("x"), value.NewString("")}
	if a.Key() == b.Key() {
		t.Fatal("NULL and empty string collide in row keys")
	}
	// Numeric kinds normalize in value keys (SQL grouping equality); that
	// cannot confuse row-image matching because every stored column has a
	// fixed kind — checkRow coerces on the primary before the image is
	// logged, so a replica never compares an int against a float within one
	// column.
	c := value.Row{value.NewInt(2), value.NewString("x"), value.Null}
	if a.Key() == c.Key() {
		t.Fatal("distinct ints collide in row keys")
	}
}

// TestReplicaOriginMismatchForcesSnapshot: a replica of history A pointed at
// an unrelated primary B whose LSNs reach at least as far must NOT resume by
// LSN coincidence — the origin check forces a bootstrap from B's snapshot.
func TestReplicaOriginMismatchForcesSnapshot(t *testing.T) {
	primaryA := engine.NewDB()
	if err := workload.LoadPaperExample(primaryA); err != nil {
		t.Fatal(err)
	}
	addrA, shutdownA := startServer(t, primaryA, replCfg())

	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addrA))
	waitCaughtUp(t, primaryA, f)
	f.Stop()
	shutdownA()
	replicaLSN := replica.Store().Log().LastLSN()

	// An unrelated primary with a different history whose log happens to
	// reach past the replica's position.
	primaryB := engine.NewDB()
	sb := primaryB.NewSession()
	defer sb.Close()
	if _, err := sb.Execute(`CREATE TABLE other (i int)`); err != nil {
		t.Fatal(err)
	}
	for primaryB.Store().Log().LastLSN() < replicaLSN+5 {
		if _, err := sb.Execute(`INSERT INTO other VALUES (1)`); err != nil {
			t.Fatal(err)
		}
	}
	if primaryA.Store().Origin() == primaryB.Store().Origin() {
		t.Fatal("two fresh databases share an origin")
	}
	addrB, shutdownB := startServer(t, primaryB, replCfg())
	defer shutdownB()

	f2 := StartFollower(replica, fastFollower(addrB))
	defer f2.Stop()
	waitCaughtUp(t, primaryB, f2)
	if f2.Snapshots() != 1 {
		t.Fatalf("origin-mismatched follower took %d snapshots, want 1", f2.Snapshots())
	}
	if got, want := replica.Store().Origin(), primaryB.Store().Origin(); got != want {
		t.Fatalf("replica origin %x after re-bootstrap, want %x", got, want)
	}
	assertIdentical(t, primaryB, replica, []string{`SELECT count(*) FROM other`})
}

// TestFollowerAdoptsHeartbeatInterval: a primary heartbeating slower than
// the follower's configured read timeout must not flap the connection — the
// follower stretches its liveness deadline to the cadence MsgSubLive
// reports.
func TestFollowerAdoptsHeartbeatInterval(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	cfg := replCfg()
	cfg.HeartbeatInterval = 250 * time.Millisecond
	addr, shutdown := startServer(t, primary, cfg)
	defer shutdown()

	fcfg := fastFollower(addr)
	fcfg.ReadTimeout = 100 * time.Millisecond // shorter than one heartbeat
	replica := engine.NewDB()
	f := StartFollower(replica, fcfg)
	defer f.Stop()
	waitCaughtUp(t, primary, f)

	// Idle across several heartbeat periods: without the adopted interval
	// the 100ms deadline would disconnect (and surface a LastError) long
	// before the first 250ms heartbeat arrives.
	time.Sleep(800 * time.Millisecond)
	st := f.Status()
	if !st.Connected || st.LastError != "" {
		t.Fatalf("follower flapped on a slow-heartbeat primary: %+v", st)
	}
	if f.Snapshots() != 1 {
		t.Fatalf("follower re-bootstrapped %d times", f.Snapshots())
	}
}

// TestReplicaTimelineForkForcesSnapshot: a primary restarted from an OLDER
// snapshot keeps its origin but re-assigns LSNs to different changes; a
// replica that was ahead must detect the fork via the resume-record hash and
// re-bootstrap instead of silently resuming a divergent history.
func TestReplicaTimelineForkForcesSnapshot(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	// Snapshot the primary early (the "old backup").
	var backup bytes.Buffer
	if err := primary.Store().Save(&backup); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())

	// The follower attaches BEFORE the pre-fork writes: the fork check
	// fingerprints the last record the replica applied from the stream, so
	// it protects exactly the replicas that have streamed since their last
	// bootstrap (a replica bootstrapped at the fork point itself has an
	// empty log and resumes on the LSN/origin checks alone).
	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addr))
	waitCaughtUp(t, primary, f)

	ps := primary.NewSession()
	for i := 0; i < 10; i++ {
		if _, err := ps.Execute(fmt.Sprintf(`INSERT INTO users VALUES (%d, 'pre-fork')`, 200+i)); err != nil {
			t.Fatal(err)
		}
	}
	ps.Close()
	waitCaughtUp(t, primary, f)
	f.Stop()
	shutdown()
	replicaLSN := replica.Store().Log().LastLSN()
	if oldest := replica.Store().Log().OldestLSN(); oldest == 0 || oldest > replicaLSN {
		t.Fatalf("test setup: replica log must retain its streamed tail (oldest %d)", oldest)
	}

	// "Restart" the primary from the old backup — same origin, forked
	// timeline — and write insert-only changes past the replica's LSN.
	reborn := engine.NewDB()
	if err := reborn.Store().Restore(bytes.NewReader(backup.Bytes())); err != nil {
		t.Fatal(err)
	}
	if reborn.Store().Origin() != replica.Store().Origin() {
		t.Fatal("restore should preserve the origin")
	}
	rs := reborn.NewSession()
	defer rs.Close()
	for reborn.Store().Log().LastLSN() < replicaLSN+5 {
		if _, err := rs.Execute(`INSERT INTO users VALUES (999, 'post-fork')`); err != nil {
			t.Fatal(err)
		}
	}
	addr2, shutdown2 := startServer(t, reborn, replCfg())
	defer shutdown2()

	f2 := StartFollower(replica, fastFollower(addr2))
	defer f2.Stop()
	waitCaughtUp(t, reborn, f2)
	if f2.Snapshots() != 1 {
		t.Fatalf("forked-timeline follower took %d snapshots, want 1", f2.Snapshots())
	}
	assertIdentical(t, reborn, replica, append(replicationSuite,
		`SELECT count(*) FROM users WHERE name = 'post-fork'`,
		`SELECT count(*) FROM users WHERE name = 'pre-fork'`, // must be 0: old timeline discarded
	))
}

// TestReplicaStatsTrackDML: the replica's catalog row counts follow applied
// DML like the primary's engine does, without waiting for an ANALYZE — the
// cost-based planner must see the same cardinalities on both sides.
func TestReplicaStatsTrackDML(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()
	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(addr))
	defer f.Stop()
	waitCaughtUp(t, primary, f)

	ps := primary.NewSession()
	defer ps.Close()
	for i := 0; i < 20; i++ {
		if _, err := ps.Execute(fmt.Sprintf(`INSERT INTO approved VALUES (%d, %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ps.Execute(`DELETE FROM approved WHERE uId < 5`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, f)
	p := primary.Catalog().TableStats("approved").RowCount
	r := replica.Catalog().TableStats("approved").RowCount
	if p != r {
		t.Fatalf("row-count stats diverged without ANALYZE: primary %d, replica %d", p, r)
	}
	if live := replica.Store().Table("approved").RowCount(); live != r {
		t.Fatalf("replica stats %d don't match its heap %d", r, live)
	}
}
