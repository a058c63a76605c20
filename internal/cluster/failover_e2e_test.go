package cluster_test

// The kill-primary failover e2e: a real permserver-shaped primary runs in a
// child PROCESS (this test binary re-exec'd) with a durable data directory
// and semi-synchronous replication, the parent runs two in-process replicas,
// the coordinator and the router, and a writer hammers unique keys through
// the router. The parent SIGKILLs the primary mid-load and holds the cluster
// to the contract:
//
//   - the coordinator promotes a replica at a bumped epoch within the lease
//     deadline,
//   - no write acknowledged to the client is lost (semi-sync: an ack implies
//     a replica durably applied it; promotion picks the most-caught-up one),
//   - the deposed primary, restarted from its data directory, is fenced: a
//     current-epoch subscriber is refused with the typed stale-epoch code,
//     and the coordinator demotes it back into the cluster as a follower,
//     re-seeded onto the new timeline.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"perm/internal/cluster"
	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/wal"
	"perm/internal/wire"
)

// TestFailoverChildPrimary is the harness child, inert unless driven by
// TestKillPrimaryFailover: it serves a WAL-backed primary with
// semi-synchronous replication until it is SIGKILLed.
func TestFailoverChildPrimary(t *testing.T) {
	dir := os.Getenv("PERM_FAILOVER_DIR")
	if dir == "" {
		t.Skip("failover-harness child; driven by TestKillPrimaryFailover")
	}
	store, mgr, _, err := wal.Open(dir, wal.Options{Sync: "always"})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	db := engine.NewDBFrom(store)
	db.SetWALController(server.WALController(mgr))
	srv := server.New(db, server.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SyncReplicas:      1,
		SyncTimeout:       5 * time.Second,
	})
	node, err := server.NewClusterNode(db, srv, server.ClusterNodeConfig{
		DataDir:  dir,
		Follower: server.FollowerConfig{PrepareStore: mgr.AdoptStore, RetryMin: 10 * time.Millisecond, RetryMax: 100 * time.Millisecond, ReadTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatalf("child cluster node: %v", err)
	}
	if err := node.EnsurePrimaryEpoch(); err != nil {
		t.Fatalf("child epoch: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	// Publish the address atomically: write-temp then rename, so the parent
	// never reads a half-written file.
	addrFile := os.Getenv("PERM_FAILOVER_ADDRFILE")
	if err := os.WriteFile(addrFile+".tmp", []byte(l.Addr().String()), 0o644); err != nil {
		t.Fatalf("child addr file: %v", err)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		t.Fatalf("child addr file: %v", err)
	}
	// Serve until killed. The parent always ends this process with SIGKILL —
	// a clean return here means the harness is broken.
	t.Fatalf("child serve returned: %v", srv.Serve(l))
}

// ackedKeys is the writer's record of client-acknowledged inserts.
type ackedKeys struct {
	mu   sync.Mutex
	keys []int
}

func (a *ackedKeys) add(k int) {
	a.mu.Lock()
	a.keys = append(a.keys, k)
	a.mu.Unlock()
}

func (a *ackedKeys) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.keys)
}

func (a *ackedKeys) snapshot() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.keys...)
}

// startChildPrimary launches (or relaunches) the child primary over dir and
// returns its address and a kill function that SIGKILLs and reaps it.
func startChildPrimary(t *testing.T, dir, tag string) (addr string, kill func()) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr-"+tag)
	cmd := exec.Command(exe, "-test.run=^TestFailoverChildPrimary$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"PERM_FAILOVER_DIR="+dir,
		"PERM_FAILOVER_ADDRFILE="+addrFile,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	reaped := make(chan struct{})
	go func() { cmd.Wait(); close(reaped) }()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			cmd.Process.Kill()
			<-reaped
		})
	}
	t.Cleanup(kill)

	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			return string(b), kill
		}
		select {
		case <-reaped:
			t.Fatalf("child %s exited before publishing its address", tag)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("child %s never published its address", tag)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestKillPrimaryFailover(t *testing.T) {
	if os.Getenv("PERM_FAILOVER_DIR") != "" {
		t.Skip("already inside the harness child")
	}
	if testing.Short() {
		t.Skip("multi-process failover e2e; skipped in -short")
	}
	dataDir := filepath.Join(t.TempDir(), "primary-data")
	primaryAddr, killPrimary := startChildPrimary(t, dataDir, "phase1")

	// Two in-process replicas follow the child primary. Both must be live
	// before the writer starts: the primary's sync-replica quorum is 1.
	r1 := startMember(t, engine.NewDB(), server.Config{})
	r2 := startMember(t, engine.NewDB(), server.Config{})
	r1.node.Follow(primaryAddr)
	r2.node.Follow(primaryAddr)
	for _, r := range []*member{r1, r2} {
		r := r
		waitFor(t, "replica connected", 30*time.Second, func() bool {
			f := r.node.Follower()
			return f != nil && f.Status().Connected
		})
	}

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Members:       []string{primaryAddr, r1.addr, r2.addr},
		ProbeInterval: 50 * time.Millisecond,
		LeaseTimeout:  400 * time.Millisecond,
		DialTimeout:   time.Second,
		Logf:          t.Logf,
	})
	go coord.Run()
	defer coord.Stop()
	routerAddr := startRouter(t, coord)
	waitFor(t, "coordinator finds the primary", 30*time.Second, func() bool {
		addr, _, ok := coord.Primary()
		return ok && addr == primaryAddr
	})

	setup, err := wire.DialTimeout(routerAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.ExecuteDrain("", `CREATE TABLE kv (k int)`, nil); err != nil {
		t.Fatalf("create through router: %v", err)
	}
	setup.Close()

	// The writer: unique key per attempt, recorded only when the router
	// acknowledged it. Failures during the failover window are expected and
	// handled by reconnecting; the key is never reused, so "acked ⊆ present"
	// is directly checkable.
	acked := &ackedKeys{}
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var cli *wire.Client
		defer func() {
			if cli != nil {
				cli.Close()
			}
		}()
		redial := func() bool {
			if cli != nil {
				cli.Close()
				cli = nil
			}
			for {
				select {
				case <-stopWriter:
					return false
				default:
				}
				c, err := wire.DialTimeout(routerAddr, 2*time.Second)
				if err == nil {
					cli = c
					return true
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		if !redial() {
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			default:
			}
			_, err := cli.ExecuteDrain("", fmt.Sprintf(`INSERT INTO kv VALUES (%d)`, i), nil)
			if err == nil {
				acked.add(i)
				continue
			}
			var serr *wire.ServerError
			if !errors.As(err, &serr) {
				// Transport-level failure: the routed session died with its
				// backend; reconnect and keep writing fresh keys.
				if !redial() {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	waitFor(t, "write load before the kill", 60*time.Second, func() bool { return acked.count() >= 30 })
	killedAt := time.Now()
	killPrimary()

	waitFor(t, "promotion at epoch 2", 30*time.Second, func() bool {
		_, epoch, ok := coord.Primary()
		return ok && epoch >= 2
	})
	failoverTime := time.Since(killedAt)
	newAddr, newEpoch, _ := coord.Primary()
	t.Logf("failover: promoted %s at epoch %d %.0fms after SIGKILL (lease 400ms)",
		newAddr, newEpoch, float64(failoverTime.Milliseconds()))
	if newAddr != r1.addr && newAddr != r2.addr {
		t.Fatalf("promoted %q, want one of the replicas", newAddr)
	}
	if failoverTime > 15*time.Second {
		t.Fatalf("promotion took %s, far beyond the lease deadline", failoverTime)
	}
	promoted, survivor := r1, r2
	if newAddr == r2.addr {
		promoted, survivor = r2, r1
	}

	// The cluster must take writes again through the same router.
	ackedAtPromotion := acked.count()
	waitFor(t, "post-failover writes", 60*time.Second, func() bool {
		return acked.count() >= ackedAtPromotion+30
	})
	close(stopWriter)
	<-writerDone

	// Zero acked writes lost: every key the router acknowledged is present on
	// the new primary.
	assertAckedPresent(t, promoted.db, acked.snapshot(), "promoted primary")
	waitFor(t, "survivor converged onto the new primary", 30*time.Second, func() bool {
		st := survivor.db.ReplicationStatus()
		return st.Epoch >= 2 && st.AppliedLSN >= promoted.db.Store().Log().LastLSN()
	})
	assertAckedPresent(t, survivor.db, acked.snapshot(), "surviving replica")

	// --- the deposed primary returns ------------------------------------------------
	deposedAddr, killDeposed := startChildPrimary(t, dataDir, "phase2")
	defer killDeposed()
	cli, err := wire.DialTimeout(deposedAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cli.Status()
	cli.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.Epoch != 1 {
		t.Fatalf("restarted deposed primary reports %s at epoch %d, want primary at its persisted epoch 1",
			st.Role, st.Epoch)
	}

	// Fencing: a subscriber at the cluster's current epoch must be refused by
	// the stale node with the typed code, never silently fed the old timeline.
	fdb := engine.NewDB()
	fdb.SetEpoch(newEpoch)
	fdb.SetReadOnly(true)
	f := server.StartFollower(fdb, server.FollowerConfig{
		PrimaryAddr: deposedAddr,
		ReadTimeout: 2 * time.Second,
		RetryMin:    10 * time.Millisecond,
		RetryMax:    100 * time.Millisecond,
	})
	waitFor(t, "stale-epoch subscription refusal", 30*time.Second, func() bool {
		return strings.Contains(f.Status().LastError, "fenced")
	})
	f.Stop()

	// The coordinator folds the deposed primary back in: demoted to follow
	// the new primary at the new epoch, re-seeded onto the new timeline.
	c2 := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Members:       []string{promoted.addr, survivor.addr, deposedAddr},
		ProbeInterval: 50 * time.Millisecond,
		LeaseTimeout:  time.Hour, // phase 2 must never fail over
		DialTimeout:   time.Second,
		Logf:          t.Logf,
	})
	go c2.Run()
	defer c2.Stop()
	waitFor(t, "deposed primary demoted and re-seeded", 60*time.Second, func() bool {
		cli, err := wire.DialTimeout(deposedAddr, time.Second)
		if err != nil {
			return false
		}
		defer cli.Close()
		st, err := cli.Status()
		return err == nil && st.Role == "replica" && st.Epoch >= newEpoch &&
			st.AppliedLSN >= promoted.db.Store().Log().LastLSN()
	})
	rejoined, err := wire.DialTimeout(deposedAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	present := map[string]bool{}
	for _, k := range queryStrings(t, rejoined, `SELECT k FROM kv`) {
		present[k] = true
	}
	for _, k := range acked.snapshot() {
		if !present[fmt.Sprint(k)] {
			t.Fatalf("acked key %d missing from the re-seeded deposed primary", k)
		}
	}
}

// assertAckedPresent checks every acknowledged key exists in db's kv table.
func assertAckedPresent(t *testing.T, db *engine.DB, acked []int, who string) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	res, err := s.Execute(`SELECT k FROM kv`)
	if err != nil {
		t.Fatalf("%s: %v", who, err)
	}
	present := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		present[row[0].Int()] = true
	}
	for _, k := range acked {
		if !present[int64(k)] {
			t.Fatalf("LOST ACKNOWLEDGED WRITE: key %d acked to the client but missing on the %s (%d acked, %d present)",
				k, who, len(acked), len(present))
		}
	}
	t.Logf("%s holds all %d acked keys (%d rows total)", who, len(acked), len(present))
}
