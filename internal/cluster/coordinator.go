package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perm/internal/logx"
	"perm/internal/wire"
)

// CoordinatorConfig tunes the failure detector and promotion policy. Only
// Members is required.
type CoordinatorConfig struct {
	// Members is the fixed set of cluster member addresses (host:port).
	Members []string
	// ProbeInterval is how often every member is probed; default 500ms.
	ProbeInterval time.Duration
	// LeaseTimeout is how long the primary may go unseen before failover is
	// declared; default 3s. It should be a comfortable multiple of
	// ProbeInterval — a single dropped probe must not trigger a promotion.
	LeaseTimeout time.Duration
	// DialTimeout bounds each probe's connect + status round trip; default 1s.
	DialTimeout time.Duration
	// Log receives failover and role-transition records; nil logs nothing.
	Log *logx.Logger
}

func (c *CoordinatorConfig) fill() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 3 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
}

// Member is one member's last observed state, for \cluster displays and the
// router's backend selection.
type Member struct {
	Addr    string
	Healthy bool
	// LastSeen is when the member last answered a probe.
	LastSeen time.Time
	// Err is the last probe failure, empty while healthy.
	Err string
	// Status is the member's last successful probe answer (zero value until
	// the first success).
	Status wire.NodeStatus
}

// Coordinator is the cluster's failure detector and promotion authority: it
// probes every member on a fixed interval, tracks which member is primary
// under the highest fencing epoch, and — when the primary's lease expires —
// promotes the most-caught-up healthy replica at a freshly bumped epoch,
// then demotes every other member onto the new primary. A deposed primary
// that comes back is demoted the same way: it adopts the higher epoch and
// re-seeds from the new timeline if it diverged.
//
// The coordinator speaks pure wire protocol, so it runs anywhere: inside
// cmd/permrouter (the usual deployment), inside a test topology, or as a
// standalone process.
type Coordinator struct {
	cfg CoordinatorConfig

	mu          sync.Mutex
	clients     map[string]*wire.Client
	members     map[string]*Member
	epoch       uint64 // highest fencing epoch observed anywhere
	primary     string // member serving as primary under epoch; "" while unknown
	primarySeen time.Time
	// stranded: the primary's lease expired and no healthy replica could be
	// promoted. Logged once when it begins and once when it ends, not per
	// probe.
	stranded bool

	stop     chan struct{}
	stopOnce sync.Once
	running  atomic.Bool
	done     chan struct{}
}

// NewCoordinator builds a coordinator over the given member set. Call Run
// (usually in a goroutine) to start probing.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:     cfg,
		clients: make(map[string]*wire.Client),
		members: make(map[string]*Member),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, addr := range cfg.Members {
		c.members[addr] = &Member{Addr: addr}
	}
	// The lease starts now: a cluster that boots with its primary already
	// dead still fails over, but only after a full lease of evidence.
	c.primarySeen = time.Now()
	return c
}

// Run probes until Stop. It blocks; run it in a goroutine.
func (c *Coordinator) Run() {
	c.running.Store(true)
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		c.Tick()
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
	}
}

// Stop terminates Run and closes every member connection. It is safe on a
// coordinator whose Run was never started (tests stepping Tick directly) —
// it only waits for a loop that actually exists.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.running.Load() {
		<-c.done
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, cli := range c.clients {
		cli.Close()
		delete(c.clients, addr)
	}
}

// Tick runs one probe-and-evaluate round. Run calls it on the configured
// interval; tests call it directly for deterministic stepping.
func (c *Coordinator) Tick() {
	var wg sync.WaitGroup
	for _, addr := range c.cfg.Members {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			st, err := c.probe(addr)
			c.mu.Lock()
			m := c.members[addr]
			if err != nil {
				m.Healthy = false
				m.Err = err.Error()
			} else {
				m.Healthy = true
				m.Err = ""
				m.LastSeen = time.Now()
				m.Status = st
				if st.Epoch > c.epoch {
					c.epoch = st.Epoch
					mEpoch.Set(int64(c.epoch))
				}
			}
			c.mu.Unlock()
		}(addr)
	}
	wg.Wait()
	c.evaluate()
}

// probe issues one Status round trip on the member's persistent connection,
// dialing a fresh one when needed. Any failure retires the connection — the
// next round redials.
func (c *Coordinator) probe(addr string) (wire.NodeStatus, error) {
	cli, err := c.client(addr)
	if err != nil {
		return wire.NodeStatus{}, err
	}
	st, err := c.timed(cli, func() (wire.NodeStatus, error) { return cli.Status() })
	if err != nil {
		c.retire(addr, cli)
		return wire.NodeStatus{}, err
	}
	return st, nil
}

func (c *Coordinator) client(addr string) (*wire.Client, error) {
	c.mu.Lock()
	cli := c.clients[addr]
	c.mu.Unlock()
	if cli != nil {
		return cli, nil
	}
	cli, err := wire.DialTimeout(addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.clients[addr] = cli
	c.mu.Unlock()
	return cli, nil
}

func (c *Coordinator) retire(addr string, cli *wire.Client) {
	cli.Close()
	c.mu.Lock()
	if c.clients[addr] == cli {
		delete(c.clients, addr)
	}
	c.mu.Unlock()
}

// timed bounds one client round trip with the dial timeout, aborting the
// connection (which retires it) when the member hangs rather than refuses.
func (c *Coordinator) timed(cli *wire.Client, op func() (wire.NodeStatus, error)) (wire.NodeStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.DialTimeout)
	defer cancel()
	stop := wire.WatchCancel(ctx, cli.Abort)
	st, err := op()
	stop()
	if err == nil {
		if cerr := ctx.Err(); cerr != nil {
			return wire.NodeStatus{}, cerr
		}
		cli.ResetDeadline()
	}
	return st, err
}

// evaluate applies the role policy to the freshly probed state: track the
// live primary, fail over when its lease expires, and demote every member
// that is not the current-epoch primary onto it.
func (c *Coordinator) evaluate() {
	c.mu.Lock()
	// The authoritative primary is the healthy member claiming "primary"
	// under the highest epoch; ties (a transient split-brain the fencing
	// epochs are about to resolve) go to the higher epoch, which demotes
	// the rest below.
	best := ""
	var bestEpoch uint64
	for _, m := range c.members {
		if m.Healthy && m.Status.Role == "primary" && (best == "" || m.Status.Epoch > bestEpoch) {
			best, bestEpoch = m.Addr, m.Status.Epoch
		}
	}
	if best != "" && bestEpoch >= c.epoch {
		c.primary = best
		c.primarySeen = time.Now()
	}
	primary := c.primary
	expired := time.Since(c.primarySeen) > c.cfg.LeaseTimeout
	primaryHealthy := primary != "" && c.members[primary] != nil && c.members[primary].Healthy &&
		c.members[primary].Status.Role == "primary" && c.members[primary].Status.Epoch >= c.epoch
	recovered := c.stranded && (primaryHealthy || !expired)
	c.stranded = c.stranded && !recovered
	c.mu.Unlock()
	if recovered {
		c.cfg.Log.Info("cluster: primary serving again", "primary", primary)
	}

	if !primaryHealthy && expired {
		c.failover()
		return
	}
	if primaryHealthy {
		c.converge(primary)
	}
}

// failover promotes the most-caught-up healthy replica at a bumped epoch.
func (c *Coordinator) failover() {
	c.mu.Lock()
	var candidate *Member
	for _, addr := range c.cfg.Members {
		m := c.members[addr]
		if !m.Healthy || addr == c.primary {
			continue
		}
		// Most durably applied wins; ties break on applied position, then on
		// member order so the choice is deterministic.
		if candidate == nil ||
			m.Status.DurableLSN > candidate.Status.DurableLSN ||
			(m.Status.DurableLSN == candidate.Status.DurableLSN && m.Status.AppliedLSN > candidate.Status.AppliedLSN) {
			candidate = m
		}
	}
	if candidate == nil {
		began := !c.stranded
		c.stranded = true
		primary := c.primary
		c.mu.Unlock()
		if began {
			c.cfg.Log.Error("cluster: primary lease expired but no healthy replica to promote", "primary", primary)
		}
		return
	}
	newEpoch := c.epoch + 1
	addr := candidate.Addr
	c.stranded = false // what follows logs the promotion
	c.mu.Unlock()

	c.cfg.Log.Warn("cluster: primary lease expired; promoting", "primary", c.PrimaryAddr(), "candidate", addr, "epoch", newEpoch)
	cli, err := c.client(addr)
	if err != nil {
		c.cfg.Log.Error("cluster: promote failed", "candidate", addr, "err", err)
		return
	}
	st, err := c.timed(cli, func() (wire.NodeStatus, error) { return cli.Promote(newEpoch) })
	if err != nil {
		c.retire(addr, cli)
		c.cfg.Log.Error("cluster: promote failed", "candidate", addr, "epoch", newEpoch, "err", err)
		return
	}

	c.mu.Lock()
	c.epoch = newEpoch
	mEpoch.Set(int64(newEpoch))
	mPromotions.Inc()
	c.primary = addr
	c.primarySeen = time.Now()
	if m := c.members[addr]; m != nil {
		m.Status = st
		m.Healthy = true
		m.Err = ""
		m.LastSeen = time.Now()
	}
	c.mu.Unlock()
	c.cfg.Log.Info("cluster: new primary", "primary", addr, "epoch", newEpoch)
	c.converge(addr)
}

// converge demotes every healthy member that is not the primary onto it.
// Demote is idempotent on a conforming follower, so issuing it each round is
// cheap; what it actually catches is a returning deposed primary (fenced at
// a stale epoch) and followers still streaming from the old address.
func (c *Coordinator) converge(primary string) {
	c.mu.Lock()
	epoch := c.epoch
	var targets []string
	for _, addr := range c.cfg.Members {
		m := c.members[addr]
		if addr == primary || !m.Healthy {
			continue
		}
		targets = append(targets, addr)
	}
	c.mu.Unlock()
	for _, addr := range targets {
		cli, err := c.client(addr)
		if err != nil {
			continue
		}
		st, err := c.timed(cli, func() (wire.NodeStatus, error) { return cli.Demote(epoch, primary) })
		if err != nil {
			c.retire(addr, cli)
			c.cfg.Log.Warn("cluster: demote failed", "member", addr, "primary", primary, "epoch", epoch, "err", err)
			continue
		}
		c.mu.Lock()
		if m := c.members[addr]; m != nil {
			m.Status = st
		}
		c.mu.Unlock()
	}
}

// Epoch is the highest fencing epoch the coordinator has observed or minted.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// PrimaryAddr returns the current primary's address ("" while unknown).
func (c *Coordinator) PrimaryAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// Primary returns the current primary's address and epoch; ok is false while
// the cluster has no known live primary.
func (c *Coordinator) Primary() (addr string, epoch uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.primary == "" {
		return "", 0, false
	}
	m := c.members[c.primary]
	if m == nil || !m.Healthy {
		return "", 0, false
	}
	return c.primary, c.epoch, true
}

// ReadOrder returns the addresses a read should try, in preference order:
// healthy replicas least-lagged first, then the primary as the fallback that
// is always current.
func (c *Coordinator) ReadOrder() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var replicas []*Member
	for _, addr := range c.cfg.Members {
		m := c.members[addr]
		if m.Healthy && addr != c.primary && m.Status.Role == "replica" {
			replicas = append(replicas, m)
		}
	}
	sort.SliceStable(replicas, func(i, j int) bool {
		if li, lj := replicas[i].Status.LagRecords(), replicas[j].Status.LagRecords(); li != lj {
			return li < lj
		}
		return replicas[i].Status.StalenessMs < replicas[j].Status.StalenessMs
	})
	order := make([]string, 0, len(replicas)+1)
	for _, m := range replicas {
		order = append(order, m.Addr)
	}
	if c.primary != "" {
		if m := c.members[c.primary]; m != nil && m.Healthy {
			order = append(order, c.primary)
		}
	}
	return order
}

// View snapshots every member's last observed state, in configured order —
// what permshell's \cluster renders.
func (c *Coordinator) View() []Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Member, 0, len(c.cfg.Members))
	for _, addr := range c.cfg.Members {
		out = append(out, *c.members[addr])
	}
	return out
}

// String renders a one-line topology summary for logs.
func (c *Coordinator) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("cluster{epoch %d, primary %q, %d members}", c.epoch, c.primary, len(c.members))
}
