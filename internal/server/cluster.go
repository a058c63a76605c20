package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"perm/internal/cluster"
	"perm/internal/engine"
	"perm/internal/logx"
	"perm/internal/storage"
)

// ClusterControl is the server's handle on the node's promote/demote
// harness. The wire layer delegates coordinator-issued MsgPromote/MsgDemote
// frames to it; a server without one refuses them.
type ClusterControl interface {
	// Promote fences the node at epoch (strictly above its current one)
	// and opens it for writes.
	Promote(epoch uint64) error
	// Demote fences the node at epoch (at least its current one), makes it
	// read-only and points it at primaryAddr as a replication follower.
	Demote(epoch uint64, primaryAddr string) error
}

type clusterBox struct{ ctl ClusterControl }

// SetCluster installs (or, with nil, removes) the node's cluster harness.
func (s *Server) SetCluster(ctl ClusterControl) { s.cluster.Store(clusterBox{ctl: ctl}) }

// ClusterControl returns the installed cluster harness, if any.
func (s *Server) ClusterControl() ClusterControl {
	if box, ok := s.cluster.Load().(clusterBox); ok {
		return box.ctl
	}
	return nil
}

// --- semi-synchronous replication gate ------------------------------------------

// ErrSyncTimeout is the typed failure of a semi-synchronous write that could
// not gather its replica-acknowledgment quorum: the mutation is applied (and
// WAL-durable) locally but NOT confirmed replicated. Callers must treat it
// as "unacknowledged" — exactly the honesty failover relies on.
var ErrSyncTimeout = errors.New("write not acknowledged by the required replicas")

// ackTracker records, per live replication subscription, the highest LSN the
// follower has durably applied (its MsgSubAck frames). waitQuorum is the
// blocking half the syncGate uses.
type ackTracker struct {
	mu      sync.Mutex
	seq     int
	acks    map[int]uint64
	changed chan struct{}
}

func newAckTracker() *ackTracker {
	return &ackTracker{acks: make(map[int]uint64), changed: make(chan struct{})}
}

// bump wakes every waiter to re-evaluate; callers hold t.mu.
func (t *ackTracker) bump() {
	close(t.changed)
	t.changed = make(chan struct{})
}

func (t *ackTracker) register() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	id := t.seq
	t.acks[id] = 0
	return id
}

func (t *ackTracker) unregister(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.acks, id)
	// Waiters must re-count: a quorum can shrink when a follower drops.
	t.bump()
}

func (t *ackTracker) update(id int, lsn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.acks[id]; ok && lsn > cur {
		t.acks[id] = lsn
		t.bump()
	}
}

// count reports how many subscribers have acknowledged through lsn.
func (t *ackTracker) count(lsn uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, a := range t.acks {
		if a >= lsn {
			n++
		}
	}
	return n
}

// waitQuorum blocks until n subscribers have acknowledged lsn, the timeout
// expires, or cancel fires.
func (t *ackTracker) waitQuorum(lsn uint64, n int, timeout time.Duration, cancel <-chan struct{}) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		t.mu.Lock()
		got := 0
		for _, a := range t.acks {
			if a >= lsn {
				got++
			}
		}
		ch := t.changed
		t.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("%w: %d of %d acknowledgments for LSN %d within %s",
				ErrSyncTimeout, got, n, lsn, timeout)
		case <-cancel:
			return fmt.Errorf("%w: server shutting down", ErrSyncTimeout)
		}
	}
}

// syncGate composes the replica-acknowledgment quorum over the store's
// existing durability gate (the WAL): a write is acknowledged only when it
// is locally durable AND SyncReplicas followers have durably applied it. The
// role check is dynamic, so the same gate is harmless on a store that gets
// demoted — replicas never wait on their own (absent) subscribers.
type syncGate struct {
	inner storage.Durability
	s     *Server
}

func (g *syncGate) WaitDurable(lsn uint64) error {
	if g.inner != nil {
		if err := g.inner.WaitDurable(lsn); err != nil {
			return err
		}
	}
	if g.s.db.ReadOnly() {
		return nil
	}
	return g.s.acks.waitQuorum(lsn, g.s.cfg.SyncReplicas, g.s.cfg.syncTimeout(), g.s.done)
}

func (g *syncGate) Err() error {
	if g.inner != nil {
		return g.inner.Err()
	}
	return nil
}

// InstallSyncGate wraps the current store's durability gate with the
// replica-acknowledgment quorum when Config.SyncReplicas is positive. New
// calls it once; the cluster harness calls it again after a promotion,
// because a replica's bootstrap (wal.Manager.AdoptStore) re-attaches the
// plain WAL gate. Installing twice is a no-op.
func (s *Server) InstallSyncGate() {
	if s.cfg.SyncReplicas <= 0 {
		return
	}
	st := s.db.Store()
	cur := st.Durability()
	if _, ok := cur.(*syncGate); ok {
		return
	}
	st.SetDurability(&syncGate{inner: cur, s: s})
}

// --- the per-node cluster harness -----------------------------------------------

// ClusterNodeConfig configures a ClusterNode.
type ClusterNodeConfig struct {
	// DataDir, when set, is where the fencing epoch persists (beside the
	// WAL segments); "" keeps the epoch in memory only — test topologies.
	DataDir string
	// Follower is the template configuration for the follower the node runs
	// while demoted; PrimaryAddr is overwritten per demotion. PrepareStore
	// should be the WAL manager's AdoptStore on durable nodes.
	Follower FollowerConfig
	// Log receives role-transition records, and the follower's too when
	// Follower.Log is nil; nil logs nothing.
	Log *logx.Logger
}

// ClusterNode makes one server a managed cluster member: it owns the node's
// follower lifecycle and implements the coordinator's Promote/Demote orders
// with durable epoch fencing. It is the piece that turns `SetReadOnly(false)
// exists` into an actual failover: epoch bump (persisted first, so a crash
// cannot forget the fence), WAL tail flushed, writes opened.
type ClusterNode struct {
	db  *engine.DB
	srv *Server
	cfg ClusterNodeConfig

	mu       sync.Mutex
	follower *Follower
	upstream string

	// fileMu serializes epoch-file writes; persisted tracks the highest
	// epoch on disk so concurrent persists can never regress the file.
	fileMu    sync.Mutex
	persisted uint64
}

// NewClusterNode builds the harness, restores the persisted epoch, and
// installs itself on srv (when non-nil) as its ClusterControl.
func NewClusterNode(db *engine.DB, srv *Server, cfg ClusterNodeConfig) (*ClusterNode, error) {
	n := &ClusterNode{db: db, srv: srv, cfg: cfg}
	if cfg.DataDir != "" {
		e, err := cluster.LoadEpoch(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		n.persisted = e
		db.SetEpoch(e)
	}
	if srv != nil {
		srv.SetCluster(n)
	}
	return n, nil
}

// persistEpoch durably records e before it is exposed. The file content is
// monotonic even under concurrent persists (promote vs. stream-observed
// epochs): a lower epoch never overwrites a higher one.
func (n *ClusterNode) persistEpoch(e uint64) error {
	if n.cfg.DataDir == "" {
		return nil
	}
	n.fileMu.Lock()
	defer n.fileMu.Unlock()
	if e <= n.persisted {
		return nil
	}
	if err := cluster.SaveEpoch(n.cfg.DataDir, e); err != nil {
		return err
	}
	n.persisted = e
	return nil
}

// adoptEpoch persists then exposes e (monotonic; lower values are no-ops).
func (n *ClusterNode) adoptEpoch(e uint64) error {
	if err := n.persistEpoch(e); err != nil {
		return err
	}
	n.db.SetEpoch(e)
	return nil
}

// ObserveEpoch is the follower's hook for epochs learned from the upstream
// stream. It deliberately avoids n.mu: the follower goroutine calls it while
// Promote/Demote may be blocked stopping that same follower.
func (n *ClusterNode) ObserveEpoch(e uint64) {
	if e <= n.db.Epoch() {
		return
	}
	if err := n.adoptEpoch(e); err != nil {
		n.cfg.Log.Warn("cluster: persisting observed epoch failed", "epoch", e, "err", err)
	}
}

// EnsurePrimaryEpoch gives a never-clustered primary its first epoch (1), so
// handshakes and write acknowledgments are stamped from the start. No-op on
// replicas and on nodes that already carry an epoch.
func (n *ClusterNode) EnsurePrimaryEpoch() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.db.ReadOnly() || n.db.Epoch() != 0 {
		return nil
	}
	return n.adoptEpoch(1)
}

// Promote fences the node at epoch and opens it for writes: stop following,
// persist the new epoch (the fence must survive a crash BEFORE any write is
// accepted under it), flush the WAL tail, exit read-only. Epochs at or below
// the current one are refused with the typed stale-epoch error — a promote
// that lost the race must never roll the fence back.
func (n *ClusterNode) Promote(epoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur := n.db.Epoch(); epoch <= cur {
		return fmt.Errorf("promote to epoch %d refused, node already at epoch %d: %w",
			epoch, cur, engine.ErrStaleEpoch)
	}
	if n.follower != nil {
		n.follower.Stop()
		n.follower = nil
		n.upstream = ""
	}
	if err := n.adoptEpoch(epoch); err != nil {
		return err
	}
	n.db.SetReplStatusFunc(nil)
	// The replica's store already holds everything it ever applied (process
	// start replayed any WAL tail; streamed applies land synchronously), but
	// the tail must be durable before writes build on top of it.
	if err := n.db.Store().WaitDurable(); err != nil {
		return fmt.Errorf("promote: flushing WAL tail: %w", err)
	}
	n.db.SetReadOnly(false)
	if n.srv != nil {
		// A bootstrap may have swapped stores since New; re-wrap the current
		// store's WAL gate with the replica-acknowledgment quorum.
		n.srv.InstallSyncGate()
	}
	n.cfg.Log.Info("cluster: promoted to primary", "epoch", epoch)
	return nil
}

// Demote fences the node at epoch, makes it read-only and points it at
// primaryAddr as a follower. A deposed primary lands here when the
// coordinator finds it again: it adopts the new epoch, and PR 3's
// origin/resume-hash fork detection re-seeds it if its timeline diverged
// (unacknowledged writes it applied before dying). Re-demoting an already
// conforming follower is a no-op, so coordinators may demote liberally.
func (n *ClusterNode) Demote(epoch uint64, primaryAddr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.db.Epoch()
	if epoch < cur {
		return fmt.Errorf("demote to epoch %d refused, node already at epoch %d: %w",
			epoch, cur, engine.ErrStaleEpoch)
	}
	if epoch == cur && n.db.ReadOnly() && n.follower != nil && n.upstream == primaryAddr {
		return nil
	}
	if err := n.adoptEpoch(epoch); err != nil {
		return err
	}
	n.db.SetReadOnly(true)
	if n.follower != nil {
		n.follower.Stop()
		n.follower = nil
	}
	n.startFollowerLocked(primaryAddr)
	n.cfg.Log.Info("cluster: demoted to follower", "primary", primaryAddr, "epoch", epoch)
	return nil
}

// Follow starts the node as a read-only follower of addr under its current
// epoch — initial replica setup (permserver -replica-of).
func (n *ClusterNode) Follow(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.db.SetReadOnly(true)
	if n.follower != nil {
		n.follower.Stop()
	}
	n.startFollowerLocked(addr)
}

func (n *ClusterNode) startFollowerLocked(addr string) {
	fcfg := n.cfg.Follower
	fcfg.PrimaryAddr = addr
	if fcfg.Log == nil {
		fcfg.Log = n.cfg.Log
	}
	fcfg.ObserveEpoch = n.ObserveEpoch
	n.follower = StartFollower(n.db, fcfg)
	n.upstream = addr
}

// Follower returns the node's current follower, nil while primary.
func (n *ClusterNode) Follower() *Follower {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.follower
}

// Stop stops any running follower (process shutdown).
func (n *ClusterNode) Stop() {
	n.mu.Lock()
	f := n.follower
	n.follower = nil
	n.mu.Unlock()
	if f != nil {
		f.Stop()
	}
}
