// Package cluster_test exercises the availability layer end to end with real
// in-process members: engine + server + cluster harness per member, and the
// coordinator/router talking to them over loopback TCP exactly as
// cmd/permrouter would.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"perm/internal/cluster"
	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/value"
	"perm/internal/wire"
)

// member is one in-process cluster member.
type member struct {
	db   *engine.DB
	srv  *server.Server
	node *server.ClusterNode
	addr string
	stop func()
}

// startMember serves db on loopback with a cluster harness attached.
func startMember(t testing.TB, db *engine.DB, cfg server.Config) *member {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 20 * time.Millisecond
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(db, cfg)
	node, err := server.NewClusterNode(db, srv, server.ClusterNodeConfig{
		Follower: server.FollowerConfig{
			ReadTimeout: 2 * time.Second,
			RetryMin:    10 * time.Millisecond,
			RetryMax:    100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("cluster node: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	m := &member{db: db, srv: srv, node: node, addr: l.Addr().String()}
	var once sync.Once
	m.stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			node.Stop()
			<-done
		})
	}
	t.Cleanup(m.stop)
	return m
}

// exec runs one statement on db directly.
func mustExec(t testing.TB, db *engine.DB, sql string) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Execute(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// queryStrings collects the first column of a query through a wire client.
func queryStrings(t testing.TB, cli *wire.Client, sql string) []string {
	t.Helper()
	rows, err := cli.Execute("", sql, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var out []string
	for {
		row, err := rows.Next()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if row == nil {
			return out
		}
		out = append(out, row[0].SQLLiteral())
	}
}

// staticTopology is a fixed Topology for router tests.
type staticTopology struct {
	primary string
	epoch   uint64
	reads   []string
}

func (s staticTopology) Primary() (string, uint64, bool) { return s.primary, s.epoch, s.primary != "" }
func (s staticTopology) ReadOrder() []string             { return s.reads }
func (s staticTopology) Epoch() uint64                   { return s.epoch }

// startRouter serves a router over topo on loopback.
func startRouter(t testing.TB, topo cluster.Topology) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	r := cluster.NewRouter(cluster.RouterConfig{Topology: topo, DialTimeout: 2 * time.Second})
	go r.Serve(l)
	t.Cleanup(func() { r.Close() })
	return l.Addr().String()
}

// TestRouterReadWriteSplit proves the split with two deliberately divergent
// members: the same table holds a different marker row on each, so whichever
// member answers is visible in the result.
func TestRouterReadWriteSplit(t *testing.T) {
	writeDB, readDB := engine.NewDB(), engine.NewDB()
	for _, db := range []*engine.DB{writeDB, readDB} {
		mustExec(t, db, `CREATE TABLE t (v string)`)
	}
	mustExec(t, writeDB, `INSERT INTO t VALUES ('on-primary')`)
	mustExec(t, readDB, `INSERT INTO t VALUES ('on-replica')`)
	writeDB.SetEpoch(1)
	readDB.SetEpoch(1)
	primary := startMember(t, writeDB, server.Config{})
	replica := startMember(t, readDB, server.Config{})

	addr := startRouter(t, staticTopology{primary: primary.addr, epoch: 1, reads: []string{replica.addr}})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	defer cli.Close()

	if got := queryStrings(t, cli, `SELECT v FROM t`); len(got) != 1 || got[0] != `'on-replica'` {
		t.Fatalf("read routed to %v, want the replica's row", got)
	}
	if _, err := cli.ExecuteDrain("", `INSERT INTO t VALUES ('routed-write')`, nil); err != nil {
		t.Fatalf("routed write: %v", err)
	}
	// The write landed on the primary and only there.
	pc, err := wire.Dial(primary.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if got := queryStrings(t, pc, `SELECT v FROM t WHERE v = 'routed-write'`); len(got) != 1 {
		t.Fatalf("write did not land on the primary: %v", got)
	}
	if got := queryStrings(t, cli, `SELECT v FROM t WHERE v = 'routed-write'`); len(got) != 0 {
		t.Fatalf("write leaked to the replica: %v", got)
	}

	// Prepared statements route by class: a read statement prepared through
	// the router executes on the replica.
	if _, err := cli.Prepare("q1", `SELECT v FROM t WHERE v = ?`); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	cur, err := cli.Execute("q1", "", []value.Value{value.NewString("on-replica")}, 0)
	if err != nil {
		t.Fatalf("execute prepared: %v", err)
	}
	n := 0
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("prepared rows: %v", err)
		}
		if row == nil {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("prepared read returned %d rows from the wrong member", n)
	}
}

// TestRouterSessionSettingsFollow proves SET statements replay onto every
// backend the session touches. A SET is session state however it
// arrives — as an inline Execute (what permshell -connect sends) or through a
// prepared statement — so it must be in force on the write backend, which
// never saw it run, and on a read backend chosen after the first one died.
// Under 'copy' contribution a provenance attribute the query did not copy is
// NULL, which makes the setting visible in what the primary stored.
func TestRouterSessionSettingsFollow(t *testing.T) {
	const set = `SET provenance_contribution = 'copy'`
	for name, send := range map[string]func(*wire.Client) error{
		"inline": func(cli *wire.Client) error {
			_, err := cli.ExecuteDrain("", set, nil)
			return err
		},
		"prepared": func(cli *wire.Client) error {
			if _, err := cli.Prepare("s1", set); err != nil {
				return err
			}
			_, err := cli.ExecuteDrain("s1", "", nil)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			var members []*member
			for range 3 {
				db := engine.NewDB()
				mustExec(t, db, `CREATE TABLE t (v string, w string)`)
				mustExec(t, db, `INSERT INTO t VALUES ('copied', 'not copied')`)
				members = append(members, startMember(t, db, server.Config{}))
			}
			primary, first, second := members[0], members[1], members[2]
			addr := startRouter(t, staticTopology{primary: primary.addr, reads: []string{first.addr, second.addr}})
			cli, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			if err := send(cli); err != nil {
				t.Fatalf("SET through router: %v", err)
			}
			if _, err := cli.ExecuteDrain("", `CREATE TABLE p AS SELECT PROVENANCE v FROM t`, nil); err != nil {
				t.Fatalf("write after SET: %v", err)
			}
			sess := primary.db.NewSession()
			defer sess.Close()
			res, err := sess.Execute(`SELECT prov_public_t_v, prov_public_t_w FROM p`)
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("reading p on the primary: %v, %v", res, err)
			}
			if row := res.Rows[0]; row[0].IsNull() || !row[1].IsNull() {
				t.Fatalf("primary stored %v: the SET did not reach the write backend", row)
			}

			first.stop()
			if got := queryStrings(t, cli, `SHOW provenance_contribution`); len(got) != 1 || got[0] != `'copy'` {
				t.Fatalf("after read failover provenance_contribution = %v, want 'copy'", got)
			}
		})
	}
}

// TestRouterReadFailover: a dead member first in the read order is skipped
// transparently — the client sees only the successful response.
func TestRouterReadFailover(t *testing.T) {
	readDB := engine.NewDB()
	mustExec(t, readDB, `CREATE TABLE t (v string)`)
	mustExec(t, readDB, `INSERT INTO t VALUES ('alive')`)
	replica := startMember(t, readDB, server.Config{})

	// A listener that is closed immediately: connect refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	addr := startRouter(t, staticTopology{primary: replica.addr, epoch: 1, reads: []string{deadAddr, replica.addr}})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if got := queryStrings(t, cli, `SELECT v FROM t`); len(got) != 1 || got[0] != `'alive'` {
		t.Fatalf("read not retried past the dead member: %v", got)
	}
}

// TestRouterStaleEpochWriteAck: a write acknowledged by a backend at an epoch
// below the cluster's becomes a typed stale-epoch error, never a silent ack.
func TestRouterStaleEpochWriteAck(t *testing.T) {
	db := engine.NewDB()
	mustExec(t, db, `CREATE TABLE t (v string)`)
	db.SetEpoch(1) // the backend believes it is primary at epoch 1
	deposed := startMember(t, db, server.Config{})

	// The topology knows the cluster moved on to epoch 5.
	addr := startRouter(t, staticTopology{primary: deposed.addr, epoch: 5, reads: []string{deposed.addr}})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.ExecuteDrain("", `INSERT INTO t VALUES ('lost')`, nil)
	var serr *wire.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.ErrCodeStaleEpoch {
		t.Fatalf("write through a fenced primary returned %v, want stale-epoch code", err)
	}
	// Reads are unaffected: a stale replica can still serve them.
	if got := queryStrings(t, cli, `SELECT count(*) FROM t`); len(got) != 1 {
		t.Fatalf("read after fenced write: %v", got)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorFailover drives a full promotion with in-process members:
// primary dies, the coordinator promotes the most-caught-up replica at a
// bumped epoch, the other replica re-points at the new primary, and new
// writes flow.
func TestCoordinatorFailover(t *testing.T) {
	pdb := engine.NewDB()
	mustExec(t, pdb, `CREATE TABLE t (k int)`)
	mustExec(t, pdb, `INSERT INTO t VALUES (1)`)
	primary := startMember(t, pdb, server.Config{})
	if err := primary.node.EnsurePrimaryEpoch(); err != nil {
		t.Fatal(err)
	}

	r1 := startMember(t, engine.NewDB(), server.Config{})
	r2 := startMember(t, engine.NewDB(), server.Config{})
	r1.node.Follow(primary.addr)
	r2.node.Follow(primary.addr)
	for _, r := range []*member{r1, r2} {
		r := r
		waitFor(t, "replica catch-up", 10*time.Second, func() bool {
			f := r.node.Follower()
			return f != nil && f.Status().AppliedLSN >= pdb.Store().Log().LastLSN()
		})
	}

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Members:       []string{primary.addr, r1.addr, r2.addr},
		ProbeInterval: time.Hour, // stepped manually via Tick
		LeaseTimeout:  150 * time.Millisecond,
		DialTimeout:   time.Second,
		Logf:          t.Logf,
	})
	defer coord.Stop()
	coord.Tick()
	if addr, epoch, ok := coord.Primary(); !ok || addr != primary.addr || epoch != 1 {
		t.Fatalf("coordinator sees primary %q at epoch %d (ok=%v), want %q at 1", addr, epoch, ok, primary.addr)
	}

	// Kill the primary and let the lease expire.
	primary.stop()
	time.Sleep(200 * time.Millisecond)
	coord.Tick()

	newAddr, epoch, ok := coord.Primary()
	if !ok || epoch != 2 {
		t.Fatalf("no promotion: primary %q epoch %d ok=%v, want epoch 2", newAddr, epoch, ok)
	}
	promoted, other := r1, r2
	if newAddr == r2.addr {
		promoted, other = r2, r1
	} else if newAddr != r1.addr {
		t.Fatalf("promoted %q, want one of the replicas", newAddr)
	}
	if promoted.db.ReadOnly() || promoted.db.Epoch() != 2 {
		t.Fatalf("promoted member readonly=%v epoch=%d, want writable at epoch 2",
			promoted.db.ReadOnly(), promoted.db.Epoch())
	}

	// New writes land on the new primary and replicate to the survivor,
	// which now follows the new primary at the bumped epoch.
	cli, err := wire.Dial(newAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.ExecuteDrain("", `INSERT INTO t VALUES (2)`, nil); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	waitFor(t, "survivor re-pointed and caught up", 10*time.Second, func() bool {
		coord.Tick()
		st := other.db.ReplicationStatus()
		return st.Epoch == 2 && st.AppliedLSN >= promoted.db.Store().Log().LastLSN()
	})

	// Stability: further rounds keep the promoted primary at epoch 2.
	coord.Tick()
	if addr, epoch, _ := coord.Primary(); addr != newAddr || epoch != 2 {
		t.Fatalf("topology flapped to %q at epoch %d", addr, epoch)
	}
}

// TestClusterNodeFencing pins the promote/demote epoch rules: stale epochs
// are refused with the typed error and never roll the fence back.
func TestClusterNodeFencing(t *testing.T) {
	db := engine.NewDB()
	node, err := server.NewClusterNode(db, nil, server.ClusterNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	db.SetEpoch(5)
	for _, e := range []uint64{4, 5} {
		if err := node.Promote(e); !errors.Is(err, engine.ErrStaleEpoch) {
			t.Fatalf("Promote(%d) at epoch 5 = %v, want stale-epoch", e, err)
		}
	}
	if err := node.Demote(4, "127.0.0.1:1"); !errors.Is(err, engine.ErrStaleEpoch) {
		t.Fatalf("Demote(4) at epoch 5 = %v, want stale-epoch", err)
	}
	if db.Epoch() != 5 {
		t.Fatalf("fence rolled back to %d", db.Epoch())
	}
	if err := node.Promote(6); err != nil {
		t.Fatalf("Promote(6): %v", err)
	}
	if db.Epoch() != 6 || db.ReadOnly() {
		t.Fatalf("after promote: epoch %d readonly %v", db.Epoch(), db.ReadOnly())
	}
}

// TestEpochSurvivesRestart: a promotion's epoch is durably persisted in the
// data dir and restored by a fresh harness — a crashed node cannot forget it
// was fenced.
func TestEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db := engine.NewDB()
	node, err := server.NewClusterNode(db, nil, server.ClusterNodeConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Promote(3); err != nil {
		t.Fatal(err)
	}
	db2 := engine.NewDB()
	if _, err := server.NewClusterNode(db2, nil, server.ClusterNodeConfig{DataDir: dir}); err != nil {
		t.Fatal(err)
	}
	if db2.Epoch() != 3 {
		t.Fatalf("restarted node at epoch %d, want 3", db2.Epoch())
	}
}

// TestShowReplicationStatusStaleness: the SHOW surface reports lag in records
// and wall-clock staleness on a live replica.
func TestShowReplicationStatusStaleness(t *testing.T) {
	pdb := engine.NewDB()
	mustExec(t, pdb, `CREATE TABLE t (k int)`)
	mustExec(t, pdb, `INSERT INTO t VALUES (1)`)
	primary := startMember(t, pdb, server.Config{})
	replica := startMember(t, engine.NewDB(), server.Config{})
	replica.node.Follow(primary.addr)
	waitFor(t, "replica catch-up", 10*time.Second, func() bool {
		f := replica.node.Follower()
		return f != nil && f.Status().Connected && f.Status().AppliedLSN >= pdb.Store().Log().LastLSN()
	})

	s := replica.db.NewSession()
	defer s.Close()
	res, err := s.Execute(`SHOW replication_status`)
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, c := range res.Columns {
		col[c] = i
	}
	for _, want := range []string{"role", "epoch", "lag", "staleness_ms"} {
		if _, ok := col[want]; !ok {
			t.Fatalf("SHOW replication_status misses column %q: %v", want, res.Columns)
		}
	}
	row := res.Rows[0]
	if role := row[col["role"]].SQLLiteral(); role != `'replica'` {
		t.Fatalf("role = %s", role)
	}
	if lag := row[col["lag"]].Int(); lag != 0 {
		t.Fatalf("caught-up replica reports lag %d", lag)
	}
	// A caught-up replica's staleness is bounded by the heartbeat cadence; it
	// must be a sane small number, not an uninitialized epoch-sized value.
	if st := row[col["staleness_ms"]].Int(); st < 0 || st > 5000 {
		t.Fatalf("staleness_ms = %d, want within a few heartbeats", st)
	}
}

// BenchmarkRouterOverhead measures the routing tax: the same point query
// against a member directly vs through the router (which relays frames
// verbatim, so the expected overhead is one hop plus one copy per frame).
func BenchmarkRouterOverhead(b *testing.B) {
	db := engine.NewDB()
	mustExec(b, db, `CREATE TABLE t (k int, v string)`)
	for i := 0; i < 100; i++ {
		mustExec(b, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d')`, i, i))
	}
	db.SetEpoch(1)
	m := startMember(b, db, server.Config{})
	raddr := startRouter(b, staticTopology{primary: m.addr, epoch: 1, reads: []string{m.addr}})

	run := func(b *testing.B, addr string) {
		cli, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := cli.Execute("", `SELECT v FROM t WHERE k = 42`, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := rows.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("direct", func(b *testing.B) { run(b, m.addr) })
	b.Run("routed", func(b *testing.B) { run(b, raddr) })
}
