// Package server exposes a Perm database over TCP using the wire protocol
// of internal/wire. Every accepted connection gets its own engine.Session —
// per-session settings, plan cache and SQL-PLE provenance queries all work
// over the network exactly as they do embedded — while the storage engine
// and catalog are shared, so concurrent clients see one database.
//
// Operational behavior:
//
//   - Connection limits: at most Config.MaxConns sessions run at once;
//     excess connections are refused with a wire error at handshake.
//   - Per-query timeouts: Config.QueryTimeout arms the session's interrupt
//     channel for each statement; a query that overruns unwinds with
//     executor.ErrInterrupted, is reported as a wire error, and the
//     connection stays usable.
//   - Graceful shutdown: Shutdown stops accepting, closes idle connections
//     immediately, waits for in-flight requests to drain until the context
//     expires, then force-closes stragglers (interrupting their queries).
//   - Online backup: the Backup message streams a consistent storage
//     snapshot (storage.Store.Save) without blocking concurrent queries.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"perm/internal/engine"
	"perm/internal/executor"
	"perm/internal/logx"
	"perm/internal/repl"
	"perm/internal/value"
	"perm/internal/wire"
)

// Config tunes a Server. The zero value means no connection limit and no
// query timeout.
type Config struct {
	// MaxConns caps concurrently served connections; 0 means unlimited.
	MaxConns int
	// QueryTimeout bounds each statement's execution AND the writing of its
	// response, so a client that stops reading cannot pin a session (and a
	// MaxConns slot) forever; 0 means unlimited. For cursors the timeout
	// spans the portal's whole lifetime — a client that parks an open cursor
	// past it gets a typed timeout on its next Fetch — while the write
	// deadline is re-armed per fetch, so a long result is bounded by
	// per-batch delivery progress, not total duration.
	QueryTimeout time.Duration
	// CursorBatchRows caps the rows packed into one RowBatch frame (and is
	// the fetch size used when a client asks for 0); 0 means 256.
	CursorBatchRows int
	// CursorBatchBytes is the target encoded size of one RowBatch frame;
	// wide provenance rows flush early so a frame never dwarfs it. 0 means
	// 256 KiB.
	CursorBatchBytes int
	// HeartbeatInterval is how often a replication subscription sends a
	// heartbeat (carrying the primary's last LSN) while the change log is
	// idle; 0 means one second. Followers size their read timeouts to it.
	HeartbeatInterval time.Duration
	// WorkMem, when non-zero, is the per-session memory budget in bytes for
	// blocking operators (sorts, aggregation, set operations, DISTINCT):
	// each connection's session starts with SET work_mem = WorkMem and
	// spills to disk past it. 0 keeps the engine default; negative means
	// unlimited.
	WorkMem int64
	// Parallelism, when non-zero, is the default intra-query parallelism
	// degree for every connection's session (permserver -parallelism):
	// each session starts with SET parallelism = Parallelism and clients
	// may still override per session. 0 keeps the engine default (serial);
	// negative means "all cores" (SET parallelism = 0 semantics).
	Parallelism int
	// TempDir, when set, is where sessions create their spill files
	// (permserver -temp-dir); "" means the OS temp directory. Spill files
	// are removed when their query ends, and a session teardown — client
	// disconnect, timeout, shutdown — removes any it left behind.
	TempDir string
	// SyncReplicas, when positive, makes writes semi-synchronous: a
	// mutation is acknowledged only after that many replication
	// subscribers have confirmed durably applying it (MsgSubAck), on top
	// of the local WAL gate. A write that cannot gather its quorum within
	// SyncTimeout fails with a typed error — it is applied locally but NOT
	// confirmed replicated, the honest answer during a replica outage —
	// which is what lets failover promote a most-caught-up replica without
	// losing a single acknowledged write. 0 keeps replication async.
	SyncReplicas int
	// SyncTimeout bounds the wait for the SyncReplicas quorum; 0 means two
	// seconds.
	SyncTimeout time.Duration
	// SlowQueryMs, when positive, starts every connection's session with
	// SET slow_query_ms = SlowQueryMs (permserver -slow-query-ms): statements
	// at or over the threshold are logged through Log. 0 keeps the engine
	// default (off); sessions can still opt in per-connection with SET.
	SlowQueryMs int64
	// Log, when set, receives structured records (slow queries); nil means
	// the process-default logger.
	Log *logx.Logger
	// Logf, when set, receives connection lifecycle and error logs.
	Logf func(format string, args ...any)
}

func (c Config) slog() *logx.Logger {
	if c.Log != nil {
		return c.Log
	}
	return logx.Default
}

func (c Config) heartbeat() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return time.Second
	}
	return c.HeartbeatInterval
}

func (c Config) syncTimeout() time.Duration {
	if c.SyncTimeout <= 0 {
		return 2 * time.Second
	}
	return c.SyncTimeout
}

func (c Config) batchRows() int {
	if c.CursorBatchRows <= 0 {
		return 256
	}
	// The batch writer's fixed-width count header holds 28 bits; a frame of
	// two million rows is far past any sane batch anyway.
	if c.CursorBatchRows > 1<<21 {
		return 1 << 21
	}
	return c.CursorBatchRows
}

func (c Config) batchBytes() int {
	if c.CursorBatchBytes <= 0 {
		return 256 << 10
	}
	return c.CursorBatchBytes
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Server serves a Perm database over the wire protocol.
type Server struct {
	db  *engine.DB
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	// conns tracks each served connection: its kill channel (closing it
	// interrupts the connection's in-flight query, so force-closing a socket
	// also unwinds the session promptly) and whether a request is currently
	// being served — graceful shutdown closes idle connections immediately
	// (the norm with pooled database/sql clients) and lets in-flight requests
	// finish.
	conns map[net.Conn]*connState
	// refuseConns tracks connections currently being refused, so the forced
	// shutdown path can cut their 5-second courtesy window short.
	refuseConns map[net.Conn]struct{}
	active      int
	closing     bool
	wg          sync.WaitGroup
	// refuseWg tracks in-flight connection refusals; refusing counts how many
	// run right now, so a connection flood cannot grow refusal goroutines
	// (each with bufio buffers) without bound (see goRefuse).
	refuseWg sync.WaitGroup
	refusing int

	// done is closed when Shutdown begins: replication subscriptions wait on
	// the change log, not the socket, so closing their connection alone would
	// not wake them promptly.
	done     chan struct{}
	doneOnce sync.Once

	queries       atomic.Uint64
	subscriptions atomic.Int64
	portals       atomic.Int64

	// acks tracks each replication subscriber's durably-applied LSN (from
	// MsgSubAck frames); the semi-synchronous write gate waits on it.
	acks *ackTracker
	// cluster, when set, is the node's promote/demote harness (a clusterBox).
	cluster atomic.Value
}

// New creates a server over db.
func New(db *engine.DB, cfg Config) *Server {
	s := &Server{
		db:          db,
		cfg:         cfg,
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]*connState),
		refuseConns: make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
		acks:        newAckTracker(),
	}
	s.InstallSyncGate()
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// QueriesServed reports the total number of statements executed.
func (s *Server) QueriesServed() uint64 { return s.queries.Load() }

// ActiveSubscriptions reports how many replication followers are streaming.
func (s *Server) ActiveSubscriptions() int { return int(s.subscriptions.Load()) }

// ActivePortals reports how many cursors are currently open across all
// connections — a live portal pins an executor iterator tree, so this is
// the observable for leak tests and capacity monitoring.
func (s *Server) ActivePortals() int { return int(s.portals.Load()) }

// ActiveConns reports the number of connections currently served.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// ListenAndServe listens on addr ("host:port") and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the listener fails or the server
// shuts down. It may be called on several listeners concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	var acceptDelay time.Duration
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return ErrServerClosed
			}
			// Transient accept failures (EMFILE under fd pressure, ECONNABORTED)
			// must not take the whole server down; back off and retry the way
			// net/http does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				s.logf("accept: %v; retrying in %v", err, acceptDelay)
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		kill, ok := s.registerConn(nc)
		if !ok {
			// Over the connection limit (or shutting down): answer the
			// handshake with an error so clients fail fast and descriptively.
			s.goRefuse(nc)
			continue
		}
		go func() {
			defer s.wg.Done()
			defer s.unregisterConn(nc)
			s.serveConn(nc, kill)
		}()
	}
}

// registerConn admits nc under the connection limit. The WaitGroup increment
// happens under the same lock that Shutdown uses to set closing, so a
// connection is either refused or visible to Shutdown's wait — never
// admitted into a gap.
func (s *Server) registerConn(nc net.Conn) (chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, false
	}
	if s.cfg.MaxConns > 0 && s.active >= s.cfg.MaxConns {
		return nil, false
	}
	s.active++
	kill := make(chan struct{})
	s.conns[nc] = &connState{kill: kill}
	s.wg.Add(1)
	return kill, true
}

// connState is the per-connection bookkeeping shutdown needs.
type connState struct {
	kill     chan struct{}
	inFlight bool
	// portalOpen marks a suspended cursor: the connection is between
	// requests, but an executor tree is live. Graceful shutdown treats such
	// connections like in-flight ones — the client may keep fetching (or
	// close the portal) until the drain deadline kills stragglers.
	portalOpen bool
	// portalDeadline is the open portal's query deadline (zero when no
	// timeout is configured). Shutdown closes portal connections already
	// past it immediately: their next Fetch is guaranteed to fail with the
	// typed timeout, so there is nothing to drain.
	portalDeadline time.Time
}

// beginRequest marks the connection busy; it returns false when the server
// is shutting down and the request should be refused. draining requests
// (Fetch, ClosePortal) stay admissible during shutdown on a connection
// whose portal is open, so a client can finish reading its cursor.
func (s *Server) beginRequest(nc net.Conn, draining bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.conns[nc]
	if s.closing && !(draining && st != nil && st.portalOpen) {
		return false
	}
	if st != nil {
		st.inFlight = true
	}
	return true
}

// endRequest marks the connection idle again; it returns false when the
// server started shutting down mid-request, in which case the session
// should close now that its response is delivered — unless a portal is
// still open, which keeps the connection alive to drain it.
func (s *Server) endRequest(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.conns[nc]
	if st != nil {
		st.inFlight = false
	}
	if s.closing {
		return st != nil && st.portalOpen
	}
	return true
}

// setPortalOpen records whether nc has a live cursor (see connState).
func (s *Server) setPortalOpen(nc net.Conn, open bool, deadline time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.conns[nc]; st != nil {
		st.portalOpen = open
		st.portalDeadline = deadline
	}
}

func (s *Server) unregisterConn(nc net.Conn) {
	s.mu.Lock()
	s.active--
	delete(s.conns, nc)
	s.mu.Unlock()
}

// maxConcurrentRefusals caps the courtesy-error goroutines: past the cap a
// flood of over-limit connections is dropped with a bare close instead of a
// buffered handshake, so MaxConns really does bound server memory.
const maxConcurrentRefusals = 32

// serverReadLimit bounds client→server frames (1 MiB): ample for any SQL
// statement, small enough that a flood of hostile length prefixes cannot
// exhaust memory. Server→client frames keep the full wire.MaxFrameSize for
// wide provenance rows.
const serverReadLimit = 1 << 20

// goRefuse runs refuse on its own goroutine, tracked by refuseWg so Shutdown
// does not return (and permserver does not exit) while a refusal is still
// delivering its message. The Add happens under s.mu and only while not
// closing, which orders it strictly before Shutdown's Wait.
func (s *Server) goRefuse(nc net.Conn) {
	s.mu.Lock()
	if s.closing || s.refusing >= maxConcurrentRefusals {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.refusing++
	s.refuseConns[nc] = struct{}{}
	s.refuseWg.Add(1)
	s.mu.Unlock()
	go func() {
		defer func() {
			s.mu.Lock()
			s.refusing--
			delete(s.refuseConns, nc)
			s.mu.Unlock()
			s.refuseWg.Done()
		}()
		s.refuse(nc)
	}()
}

// refuse answers a rejected connection with a wire error naming the actual
// reason (shutdown vs. capacity).
func (s *Server) refuse(nc net.Conn) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	conn := wire.NewConn(nc)
	conn.SetReadLimit(serverReadLimit)
	// Consume the Hello so the client reads our error rather than a reset.
	if typ, _, err := conn.ReadMessage(); err != nil || typ != wire.MsgHello {
		return
	}
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	msg := "connection limit reached"
	if closing {
		msg = "server is shutting down"
	}
	conn.WriteMessage(wire.MsgError, wire.AppendError(nil, msg, wire.ErrCodeGeneric))
	conn.Flush()
}

// Shutdown stops accepting connections, closes idle connections immediately
// (pooled database/sql clients keep idle connections open indefinitely, so
// waiting for them would burn the whole drain deadline on every deploy), and
// waits for in-flight requests to finish. When ctx expires first, remaining
// connections — including any mid-refusal — are force-closed and their
// queries interrupted.
func (s *Server) Shutdown(ctx context.Context) error {
	s.doneOnce.Do(func() { close(s.done) })
	s.mu.Lock()
	s.closing = true
	for l := range s.listeners {
		l.Close()
	}
	now := time.Now()
	for nc, st := range s.conns {
		expired := st.portalOpen && !st.portalDeadline.IsZero() && now.After(st.portalDeadline)
		if !st.inFlight && (!st.portalOpen || expired) {
			nc.Close() // idle (or holding a dead cursor): unblocks the read loop
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.refuseWg.Wait() // refusals carry a 5s deadline, so this is bounded
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for nc, st := range s.conns {
			close(st.kill) // interrupt the in-flight query
			nc.Close()
		}
		s.conns = make(map[net.Conn]*connState)
		for nc := range s.refuseConns {
			nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-closes everything immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// serveConn runs one session's request/response loop. kill is closed when
// the server force-closes the connection, interrupting in-flight queries.
func (s *Server) serveConn(nc net.Conn, kill <-chan struct{}) {
	defer nc.Close()
	mConns.Inc()
	defer mConns.Dec()
	mConnsTotal.Inc()
	conn := wire.NewConn(countingConn{Conn: nc})
	// Clients only ever send small frames (handshake, SQL text, backup
	// request); capping reads stops a hostile length prefix from making each
	// connection allocate MaxFrameSize before sending a byte.
	conn.SetReadLimit(serverReadLimit)

	// Handshake, under a deadline so an idle TCP connection cannot hold a
	// MaxConns slot without ever speaking the protocol.
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	typ, body, err := conn.ReadMessage()
	if err != nil || typ != wire.MsgHello {
		return
	}
	hello, err := wire.DecodeHello(body)
	if err != nil {
		return
	}
	if hello.Version != wire.ProtocolVersion {
		conn.WriteMessage(wire.MsgError, wire.AppendError(nil,
			fmt.Sprintf("protocol version %d not supported (server speaks %d)",
				hello.Version, wire.ProtocolVersion), wire.ErrCodeGeneric))
		conn.Flush()
		return
	}
	ok := wire.HelloOK{Version: wire.ProtocolVersion, Server: "perm", Epoch: s.db.Epoch(), Role: s.role()}
	if err := conn.WriteMessage(wire.MsgHelloOK, ok.Encode(nil)); err != nil {
		return
	}
	if err := conn.Flush(); err != nil {
		return
	}
	nc.SetDeadline(time.Time{}) // handshake done; sessions may idle

	sess := s.db.NewSession()
	defer sess.Close()
	if s.cfg.WorkMem != 0 {
		n := s.cfg.WorkMem
		if n < 0 {
			n = 0 // negative config = unlimited (work_mem 0)
		}
		sess.SetWorkMem(n)
	}
	if s.cfg.TempDir != "" {
		sess.SetTempDir(s.cfg.TempDir)
	}
	if s.cfg.Parallelism != 0 {
		n := s.cfg.Parallelism
		if n < 0 {
			n = 0 // negative config = all cores (parallelism 0)
		}
		sess.SetParallelism(n)
	}
	if s.cfg.SlowQueryMs > 0 {
		sess.SetSlowQueryMs(s.cfg.SlowQueryMs)
	}
	// Slow-query records go through the server's structured logger with the
	// peer attached, whether the threshold came from config or from a
	// per-connection SET slow_query_ms.
	remote := nc.RemoteAddr().String()
	sess.SetSlowQueryLog(func(q engine.SlowQuery) {
		s.cfg.slog().Warn("slow query",
			"remote", remote,
			"duration", q.Duration,
			"rows", q.Rows,
			"cache_hit", q.CacheHit,
			"spill_bytes", q.SpillBytes,
			"params", q.Params,
			"sql", q.SQL,
		)
	})
	// The connection's kill channel is the session's standing interrupt, so a
	// forced shutdown unwinds an in-flight query promptly; per-query timeouts
	// ride on the session deadline (see execute).
	sess.SetInterrupt(kill)
	s.logf("session open from %s (client %q)", nc.RemoteAddr(), hello.Client)
	defer s.logf("session closed from %s", nc.RemoteAddr())

	// Per-connection protocol state: named prepared statements and the (at
	// most one) open portal. Both die with the connection: an abrupt client
	// disconnect mid-cursor unwinds here, closing the executor tree and
	// releasing the portal immediately.
	st := &connStreams{s: s, nc: nc}
	defer st.closePortal()

	for {
		typ, body, err := conn.ReadMessage()
		if err != nil {
			if err != io.EOF {
				s.logf("read from %s: %v", nc.RemoteAddr(), err)
			}
			return
		}
		if typ == wire.MsgTerminate {
			return
		}
		if typ == wire.MsgSubscribe {
			// Subscribe turns the connection into a one-way replication
			// stream; the request/response loop — and with it the in-flight
			// bookkeeping — ends here. The subscription counts as idle for
			// graceful shutdown (a follower reconnects on its own), and the
			// streaming loop watches s.done so shutdown wakes it even while
			// it waits on the change log.
			r := wire.NewReader(body)
			sub := subscribeRequest{after: r.Uvarint()}
			sub.force = r.Remaining() > 0 && r.Bool()
			if r.Remaining() > 0 {
				sub.origin = r.Uvarint()
			}
			if r.Remaining() > 0 {
				sub.resumeHash = r.Uvarint()
			}
			if r.Remaining() > 0 {
				sub.epoch = r.Uvarint()
			}
			if r.Err() != nil {
				s.writeError(conn, "malformed subscribe frame")
				return
			}
			if sub.epoch > s.db.Epoch() {
				// The subscriber has seen a newer fencing epoch than this
				// node serves under: this node is a deposed primary (or a
				// lagging member) and must not feed anyone its stale
				// timeline. The typed code tells the follower to go find
				// the real primary rather than re-bootstrap from us.
				s.writeErrorCode(conn, fmt.Sprintf(
					"subscriber is at cluster epoch %d but this node serves epoch %d: node is fenced",
					sub.epoch, s.db.Epoch()), wire.ErrCodeStaleEpoch)
				return
			}
			s.logf("replication subscription from %s (after LSN %d, origin %x, force-snapshot %v)",
				nc.RemoteAddr(), sub.after, sub.origin, sub.force)
			s.subscriptions.Add(1)
			defer s.subscriptions.Add(-1)
			if err := s.serveSubscription(conn, nc, sub, kill); err != nil {
				s.logf("replication stream to %s: %v", nc.RemoteAddr(), err)
			}
			return
		}
		draining := typ == wire.MsgFetch || typ == wire.MsgClosePortal
		if !s.beginRequest(nc, draining) {
			// Shutdown raced this request in: tell the client rather than
			// resetting it.
			s.writeError(conn, "server is shutting down")
			return
		}
		var fatal error
		switch typ {
		case wire.MsgParse:
			p, err := wire.DecodeParse(body)
			if err != nil {
				s.writeError(conn, "malformed parse frame")
				return
			}
			s.armWriteDeadline(nc)
			fatal = st.runParse(conn, sess, p)
		case wire.MsgExecute:
			req, err := wire.DecodeExecute(body)
			if err != nil {
				s.writeError(conn, "malformed execute frame")
				return
			}
			s.armWriteDeadline(nc)
			fatal = st.runExecute(conn, sess, req)
		case wire.MsgFetch:
			r := wire.NewReader(body)
			fetch := r.Uvarint()
			if r.Err() != nil {
				s.writeError(conn, "malformed fetch frame")
				return
			}
			s.armWriteDeadline(nc)
			fatal = st.runFetch(conn, fetch)
		case wire.MsgClosePortal:
			st.closePortal()
			s.armWriteDeadline(nc)
			fatal = s.writeMessageFlush(conn, wire.MsgCloseOK, nil)
		case wire.MsgCloseStmt:
			r := wire.NewReader(body)
			name := r.String()
			if r.Err() != nil {
				s.writeError(conn, "malformed close frame")
				return
			}
			delete(st.stmts, name)
			s.armWriteDeadline(nc)
			fatal = s.writeMessageFlush(conn, wire.MsgCloseOK, nil)
		case wire.MsgBackup:
			s.armWriteDeadline(nc)
			fatal = s.runBackup(conn, nc)
		case wire.MsgStatus:
			s.armWriteDeadline(nc)
			st.frame = s.nodeStatus().Encode(st.frame[:0])
			fatal = s.writeMessageFlush(conn, wire.MsgStatusOK, st.frame)
		case wire.MsgPromote:
			req, err := wire.DecodePromote(body)
			if err != nil {
				s.writeError(conn, "malformed promote frame")
				return
			}
			s.armWriteDeadline(nc)
			fatal = st.runClusterOp(conn, func(ctl ClusterControl) error { return ctl.Promote(req.Epoch) })
		case wire.MsgDemote:
			req, err := wire.DecodeDemote(body)
			if err != nil {
				s.writeError(conn, "malformed demote frame")
				return
			}
			s.armWriteDeadline(nc)
			fatal = st.runClusterOp(conn, func(ctl ClusterControl) error { return ctl.Demote(req.Epoch, req.PrimaryAddr) })
		default:
			s.writeError(conn, fmt.Sprintf("unexpected message type %q", typ))
			return
		}
		if fatal != nil {
			s.logf("write to %s: %v", nc.RemoteAddr(), fatal)
			return
		}
		nc.SetWriteDeadline(time.Time{})
		// Mirror the read path's buffer hygiene: one outlier result must
		// not pin huge encode buffers for the connection's lifetime.
		st.trim()
		// While a portal sits suspended, bound how long a silent client can
		// pin its executor tree: the next read is deadlined to the portal's
		// query deadline plus one grace timeout. A late Fetch inside the
		// grace still gets the clean typed timeout error; past it, the read
		// fails and the connection (and portal) is reaped.
		if st.port != nil && !st.port.deadline.IsZero() {
			nc.SetReadDeadline(st.port.deadline.Add(s.cfg.QueryTimeout))
		} else {
			nc.SetReadDeadline(time.Time{})
		}
		if !s.endRequest(nc) {
			// Shutdown began while this request ran; its response is
			// delivered and no cursor remains to drain, so close the
			// session instead of idling.
			return
		}
	}
}

// writeMessageFlush writes one frame and flushes it; errors are
// connection-fatal.
func (s *Server) writeMessageFlush(conn *wire.Conn, typ byte, payload []byte) error {
	if err := conn.WriteMessage(typ, payload); err != nil {
		return err
	}
	return conn.Flush()
}

// armWriteDeadline bounds the writing of one response by the query timeout:
// a client that sends a request and then stops reading would otherwise block
// the session goroutine in a deadline-less socket write once the TCP buffers
// fill, pinning a MaxConns slot forever.
func (s *Server) armWriteDeadline(nc net.Conn) {
	if s.cfg.QueryTimeout > 0 {
		nc.SetWriteDeadline(time.Now().Add(s.cfg.QueryTimeout))
	}
}

func (s *Server) writeError(conn *wire.Conn, msg string) error {
	return s.writeErrorCode(conn, msg, wire.ErrCodeGeneric)
}

func (s *Server) writeErrorCode(conn *wire.Conn, msg string, code uint64) error {
	if err := conn.WriteMessage(wire.MsgError, wire.AppendError(nil, msg, code)); err != nil {
		return err
	}
	return conn.Flush()
}

// errCodeOf classifies a statement error for the wire protocol, so typed
// engine errors stay typed on the far side of the connection.
func errCodeOf(err error) uint64 {
	if errors.Is(err, engine.ErrReadOnly) {
		return wire.ErrCodeReadOnly
	}
	if errors.Is(err, engine.ErrStaleEpoch) {
		return wire.ErrCodeStaleEpoch
	}
	if errors.Is(err, engine.ErrWriteConflict) {
		return wire.ErrCodeWriteConflict
	}
	return wire.ErrCodeGeneric
}

// role names the node's cluster role for handshakes and status probes.
func (s *Server) role() string {
	if s.db.ReadOnly() {
		return "replica"
	}
	return "primary"
}

// nodeStatus snapshots the member state a coordinator or router needs.
func (s *Server) nodeStatus() wire.NodeStatus {
	rs := s.db.ReplicationStatus()
	ws := s.db.WALStatus()
	durable := ws.DurableLSN
	if ws.Mode == "disabled" {
		// No WAL: applied is as durable as this node gets.
		durable = rs.AppliedLSN
	}
	return wire.NodeStatus{
		Role:        rs.Role,
		Epoch:       rs.Epoch,
		Origin:      s.db.Store().Origin(),
		AppliedLSN:  rs.AppliedLSN,
		DurableLSN:  durable,
		PrimaryLSN:  rs.PrimaryLSN,
		Connected:   rs.Connected,
		StalenessMs: rs.Staleness.Milliseconds(),
		LastError:   rs.LastError,
	}
}

// runClusterOp executes a coordinator-issued promote/demote against the
// node's cluster harness and answers with the post-transition status.
func (st *connStreams) runClusterOp(conn *wire.Conn, op func(ClusterControl) error) error {
	s := st.s
	ctl := s.ClusterControl()
	if ctl == nil {
		return s.writeError(conn, "this server is not cluster-managed (no cluster harness installed)")
	}
	if err := op(ctl); err != nil {
		return s.writeErrorCode(conn, err.Error(), errCodeOf(err))
	}
	st.frame = s.nodeStatus().Encode(st.frame[:0])
	return s.writeMessageFlush(conn, wire.MsgStatusOK, st.frame)
}

// connStreams is one connection's statement-serving state: its named
// prepared statements, its (at most one) open portal, and the reusable
// encode buffers row batches build in. It lives on the serveConn stack, so
// everything here — including the executor tree behind an open cursor —
// dies the moment the connection does.
type connStreams struct {
	s     *Server
	nc    net.Conn
	stmts map[string]*engine.Prepared
	port  *portal
	seg   []byte // encoded rows of the batch being built
	frame []byte // finished frame payload (count prefix + seg)
}

// portal is one open cursor: a live engine row stream plus the wall-clock
// deadline the whole cursor (across fetches) must finish by.
type portal struct {
	rows     *engine.Rows
	deadline time.Time
	descSent bool
}

// maxPreparedStmts caps the per-connection statement registry, so a client
// cannot grow server memory without bound by preparing forever.
const maxPreparedStmts = 256

// closePortal releases the connection's open cursor, if any: the executor
// tree closes immediately (a disconnected client frees its resources here)
// and the portal bookkeeping that shutdown draining relies on is cleared.
func (st *connStreams) closePortal() {
	if st.port == nil {
		return
	}
	st.port.rows.Close()
	st.port = nil
	st.s.portals.Add(-1)
	mOpenPortals.Dec()
	st.s.setPortalOpen(st.nc, false, time.Time{})
}

// trim drops outlier encode buffers so one huge batch cannot pin megabytes
// for the connection's lifetime.
func (st *connStreams) trim() {
	if cap(st.seg) > 1<<20 {
		st.seg = nil
	}
	if cap(st.frame) > 1<<20 {
		st.frame = nil
	}
}

// openRows opens a statement under the per-query timeout. The timeout is a
// session deadline polled by the executor alongside the standing
// kill-channel interrupt — no timer, goroutine, or channel is allocated per
// statement — and it is captured into the statement's execution context, so
// it keeps governing the stream across later fetches. The deadline is
// returned for the portal's own between-fetch checks.
func (s *Server) openRows(sess *engine.Session, open func() (*engine.Rows, error)) (*engine.Rows, time.Time, error) {
	if s.cfg.QueryTimeout <= 0 {
		rows, err := open()
		return rows, time.Time{}, err
	}
	deadline := time.Now().Add(s.cfg.QueryTimeout)
	sess.SetDeadline(deadline)
	defer sess.SetDeadline(time.Time{})
	rows, err := open()
	// Only a genuine interrupt unwind past the deadline is relabeled as a
	// timeout; a statement that failed for its own reasons keeps its error,
	// and a shutdown kill keeps the interrupt error (the connection is dying
	// anyway). DML executes eagerly inside open; SELECTs can also unwind
	// here when a blocking operator (sort, aggregate, set operation — now
	// including their spilling paths) drains its input during Open. The
	// relabeled error still unwraps to executor.ErrInterrupted, so the call
	// sites' timeoutCode classification keeps it typed on the wire.
	if errors.Is(err, executor.ErrInterrupted) && !time.Now().Before(deadline) {
		mQueryTimeouts.Inc()
		return nil, deadline, &timeoutError{msg: s.timeoutMessage()}
	}
	return rows, deadline, err
}

// timeoutError is the relabeled per-query-timeout unwind: the operator-level
// interrupt stays reachable through Unwrap so the error keeps its typed wire
// code (ErrCodeTimeout) at every reporting site.
type timeoutError struct{ msg string }

func (e *timeoutError) Error() string { return e.msg }
func (e *timeoutError) Unwrap() error { return executor.ErrInterrupted }

// timeoutMessage is the one wording of the typed per-query-timeout error,
// paired with wire.ErrCodeTimeout at every site that reports one.
func (s *Server) timeoutMessage() string {
	return fmt.Sprintf("query canceled: exceeded the %s per-query timeout", s.cfg.QueryTimeout)
}

// timeoutCode reports whether err should travel as a typed timeout: an
// interrupt unwind on a statement whose deadline has passed.
func timeoutCode(err error, deadline time.Time) bool {
	return errors.Is(err, executor.ErrInterrupted) &&
		!deadline.IsZero() && !time.Now().Before(deadline)
}

// runParse registers a server-side prepared statement on the session.
func (st *connStreams) runParse(conn *wire.Conn, sess *engine.Session, p wire.Parse) error {
	s := st.s
	if st.stmts == nil {
		st.stmts = make(map[string]*engine.Prepared)
	}
	if _, exists := st.stmts[p.Name]; !exists && len(st.stmts) >= maxPreparedStmts {
		return s.writeError(conn, fmt.Sprintf("too many prepared statements (limit %d per connection)", maxPreparedStmts))
	}
	prep, err := sess.Prepare(p.SQL)
	if err != nil {
		return s.writeErrorCode(conn, err.Error(), errCodeOf(err))
	}
	st.stmts[p.Name] = prep
	st.frame = binary.AppendUvarint(st.frame[:0], uint64(prep.NumParams()))
	return s.writeMessageFlush(conn, wire.MsgParseOK, st.frame)
}

// runExecute binds arguments to a prepared (or inline one-shot) statement,
// opens the connection's portal and streams the first batch. A FetchSize of
// 0 streams the whole result without suspending, in bounded row batches —
// the server never materializes it. Returned errors are connection-fatal I/O
// errors; statement errors travel to the client as wire errors (typed,
// including mid-stream).
func (st *connStreams) runExecute(conn *wire.Conn, sess *engine.Session, req wire.Execute) error {
	s := st.s
	s.queries.Add(1)
	mServerQueries.Inc()
	if st.port != nil {
		// One portal per connection, and a suspended cursor owns the
		// session's active statement (its executor tree is live): the
		// protocol is strictly request/response, so a second Execute is a
		// client bug. The open portal stays usable.
		return s.writeError(conn, "a cursor is already open on this connection")
	}
	var open func() (*engine.Rows, error)
	if req.Name == "" {
		// An inline statement opens through the session's plan cache: a
		// repeated one-shot statement parses only on a miss.
		open = func() (*engine.Rows, error) { return sess.Query(req.SQL, req.Args...) }
	} else if prep := st.stmts[req.Name]; prep != nil {
		open = func() (*engine.Rows, error) { return prep.Query(req.Args...) }
	} else {
		return s.writeError(conn, fmt.Sprintf("unknown prepared statement %q", req.Name))
	}
	rows, deadline, err := s.openRows(sess, open)
	if err != nil {
		code := errCodeOf(err)
		if timeoutCode(err, deadline) {
			code = wire.ErrCodeTimeout
		}
		// Open consumed compute budget (a timed-out Open consumed all of
		// it); the error frame gets its own delivery deadline.
		s.armWriteDeadline(st.nc)
		return s.writeErrorCode(conn, err.Error(), code)
	}
	port := &portal{rows: rows, deadline: deadline}
	finished, fatal := st.streamBatches(conn, port, req.FetchSize)
	if fatal != nil {
		rows.Close()
		return fatal
	}
	if finished {
		rows.Close()
		return conn.Flush()
	}
	// The limit suspended the result: the portal stays open for Fetch, and
	// the connection counts as draining-eligible for graceful shutdown.
	st.port = port
	s.portals.Add(1)
	mOpenPortals.Inc()
	s.setPortalOpen(st.nc, true, port.deadline)
	if err := conn.WriteMessage(wire.MsgSuspended, nil); err != nil {
		return err
	}
	return conn.Flush()
}

// runFetch continues the open portal by up to fetch rows (0 = to
// completion). The cursor's query deadline is enforced between fetches too,
// so a timeout firing while the portal sits idle surfaces as a typed error
// on the next fetch instead of an untyped stall.
func (st *connStreams) runFetch(conn *wire.Conn, fetch uint64) error {
	s := st.s
	if st.port == nil {
		return s.writeError(conn, "no cursor is open on this connection")
	}
	p := st.port
	if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
		st.closePortal()
		return s.writeErrorCode(conn, s.timeoutMessage(), wire.ErrCodeTimeout)
	}
	finished, fatal := st.streamBatches(conn, p, fetch)
	if fatal != nil {
		st.closePortal()
		return fatal
	}
	if finished {
		st.closePortal()
		return conn.Flush()
	}
	if err := conn.WriteMessage(wire.MsgSuspended, nil); err != nil {
		return err
	}
	return conn.Flush()
}

// streamBatches forwards up to limit rows (0 = all) from p.rows as RowBatch
// frames, each bounded by the configured row/byte caps and flushed
// individually so the write deadline measures per-batch delivery progress —
// server-side memory is bounded by one batch regardless of result size. It
// reports finished=true once the result ended (Complete or in-band Error
// written; the portal is dead), finished=false when the limit suspended it.
// The returned error is a connection-fatal I/O failure.
func (st *connStreams) streamBatches(conn *wire.Conn, p *portal, limit uint64) (bool, error) {
	s := st.s
	if !p.descSent {
		p.descSent = true
		if len(p.rows.Columns) > 0 {
			st.frame = rowDescOf(p.rows).Encode(st.frame[:0])
			if err := conn.WriteMessage(wire.MsgRowDesc, st.frame); err != nil {
				return false, err
			}
		}
	}
	maxRows, maxBytes := s.cfg.batchRows(), s.cfg.batchBytes()
	var sent uint64
	for {
		n := 0
		st.beginBatch()
		for n < maxRows && len(st.seg) < maxBytes && (limit == 0 || sent < limit) {
			row, err := p.rows.Next()
			if err != nil {
				// A mid-stream statement error (interrupt, timeout, runtime
				// failure): deliver the rows already batched, then report the
				// error in-band — the frame stream stays in sync and the
				// connection survives. The write deadline is re-armed first:
				// a query that timed out consumed its whole budget computing,
				// and the deadline bounds delivery, not compute — without a
				// fresh arm the error frame itself hits the expired deadline
				// and the client sees a reset instead of the typed error.
				s.armWriteDeadline(st.nc)
				if ferr := st.writeBatch(conn, n); ferr != nil {
					return false, ferr
				}
				msg, code := err.Error(), errCodeOf(err)
				if timeoutCode(err, p.deadline) {
					msg, code = s.timeoutMessage(), wire.ErrCodeTimeout
				}
				if werr := s.writeErrorCode(conn, msg, code); werr != nil {
					return false, werr
				}
				return true, nil
			}
			if row == nil {
				// Fresh delivery budget for the final batch + Complete: the
				// accumulation loop above is compute, bounded by the query
				// deadline, not by the write deadline armed at dispatch.
				s.armWriteDeadline(st.nc)
				if ferr := st.writeBatch(conn, n); ferr != nil {
					return false, ferr
				}
				t := p.rows.Timings()
				done := wire.Complete{
					Tag:      p.rows.Tag(),
					CacheHit: p.rows.CacheHit,
					Parse:    int64(t.Parse),
					Analyze:  int64(t.Analyze),
					Rewrite:  int64(t.Rewrite),
					Plan:     int64(t.Plan),
					Execute:  int64(t.Execute),
					Epoch:    s.db.Epoch(),
				}
				st.frame = done.Encode(st.frame[:0])
				if err := conn.WriteMessage(wire.MsgComplete, st.frame); err != nil {
					return false, err
				}
				return true, nil
			}
			st.seg = wire.AppendRow(st.seg, row)
			n++
			sent++
		}
		s.armWriteDeadline(st.nc)
		if err := st.writeBatch(conn, n); err != nil {
			// An oversize row is rejected before any of its bytes hit the
			// wire, so the stream is still in sync: report it in-band and
			// keep the connection.
			if errors.Is(err, wire.ErrFrameTooLarge) {
				if werr := s.writeError(conn, fmt.Sprintf("result row too large for the wire protocol: %v", err)); werr != nil {
					return false, werr
				}
				return true, nil
			}
			return false, err
		}
		if limit > 0 && sent >= limit {
			return false, nil
		}
		// Flush per batch (the deadline armed above bounds it), so delivery
		// is bounded per batch, not per result.
		if err := conn.Flush(); err != nil {
			return false, err
		}
	}
}

// beginBatch resets st.seg to a fixed-width row-count header (a padded but
// valid uvarint, patched by writeBatch once the count is known), so the
// encoded row bytes are written exactly once — no second buffer, no memcpy
// of the whole batch just to prepend a count.
func (st *connStreams) beginBatch() {
	st.seg = append(st.seg[:0], 0x80, 0x80, 0x80, 0x00)
}

// writeBatch frames the n rows built up in st.seg; n == 0 writes nothing.
// n is bounded by batchRows (≤ 2^21), so it always fits the four 7-bit
// groups reserved by beginBatch.
func (st *connStreams) writeBatch(conn *wire.Conn, n int) error {
	if n == 0 {
		return nil
	}
	st.seg[0] = 0x80 | byte(n&0x7f)
	st.seg[1] = 0x80 | byte(n>>7&0x7f)
	st.seg[2] = 0x80 | byte(n>>14&0x7f)
	st.seg[3] = byte(n >> 21 & 0x7f)
	return conn.WriteMessage(wire.MsgRowBatch, st.seg)
}

// rowDescOf builds the wire column description from an engine row stream.
// The schema carries the column types and provenance flags; columns that
// lack a schema entry (purely defensive) fall back to untyped.
func rowDescOf(rows *engine.Rows) wire.RowDesc {
	n := len(rows.Columns)
	desc := wire.RowDesc{
		Names:  rows.Columns,
		Kinds:  make([]value.Kind, n),
		IsProv: make([]bool, n),
	}
	for i := 0; i < n && i < len(rows.Schema); i++ {
		desc.Kinds[i] = rows.Schema[i].Type
		desc.IsProv[i] = rows.Schema[i].IsProv
	}
	return desc
}

// runBackup streams a consistent snapshot without blocking queries: the
// storage layer captures a point-in-time image in microseconds and the gob
// encode happens against copy-on-write row snapshots.
func (s *Server) runBackup(conn *wire.Conn, nc net.Conn) error {
	w := &chunkWriter{conn: conn, refresh: func() { s.armWriteDeadline(nc) }}
	if err := s.db.Store().Save(w); err != nil {
		if w.writeErr != nil {
			return w.writeErr // connection gone
		}
		return s.writeError(conn, fmt.Sprintf("backup failed: %v", err))
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	if err := conn.WriteMessage(wire.MsgBackupDone, nil); err != nil {
		return err
	}
	return conn.Flush()
}

// chunkWriter frames an io.Writer stream into BackupChunk messages. refresh
// re-arms the write deadline before each chunk, so a backup is bounded by
// per-chunk progress rather than total duration — a large database streams
// for as long as the client keeps reading, while a stalled client still
// times out within one QueryTimeout.
type chunkWriter struct {
	conn     *wire.Conn
	refresh  func()
	buf      []byte
	writeErr error
}

const backupChunkSize = 256 << 10

// Write streams full chunks straight out of p (WriteMessage copies into the
// connection's buffer, so aliasing is safe) and only retains the sub-chunk
// remainder — constant extra memory and linear work however large the
// encoder's writes are.
func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.writeErr != nil {
		return 0, w.writeErr
	}
	total := len(p)
	// Top up a buffered partial chunk first.
	if len(w.buf) > 0 {
		need := backupChunkSize - len(w.buf)
		if need > len(p) {
			need = len(p)
		}
		w.buf = append(w.buf, p[:need]...)
		p = p[need:]
		if len(w.buf) == backupChunkSize {
			if err := w.send(w.buf); err != nil {
				return 0, err
			}
			w.buf = w.buf[:0]
		}
	}
	for len(p) >= backupChunkSize {
		if err := w.send(p[:backupChunkSize]); err != nil {
			return 0, err
		}
		p = p[backupChunkSize:]
	}
	w.buf = append(w.buf, p...)
	return total, nil
}

func (w *chunkWriter) flushChunk() error {
	if w.writeErr != nil {
		return w.writeErr
	}
	if len(w.buf) == 0 {
		return nil
	}
	err := w.send(w.buf)
	w.buf = w.buf[:0]
	return err
}

func (w *chunkWriter) send(chunk []byte) error {
	w.refresh()
	if err := w.conn.WriteMessage(wire.MsgBackupChunk, chunk); err != nil {
		w.writeErr = err
		return err
	}
	// Flush per chunk so the deadline measures delivery progress, not just
	// filling the 32 KiB write buffer.
	if err := w.conn.Flush(); err != nil {
		w.writeErr = err
		return err
	}
	return nil
}

// --- replication subscriptions --------------------------------------------------

// Change batches stop accumulating past either bound, so one frame stays far
// below the wire size limit and a follower applies (and acknowledges via its
// next read) in small steps.
const (
	changeBatchMaxRecords  = 512
	changeBatchTargetBytes = 256 << 10
)

// subscribeRequest is a parsed MsgSubscribe payload.
type subscribeRequest struct {
	// after is the follower's applied LSN; the stream resumes past it.
	after uint64
	// force requests a bootstrap snapshot regardless of resumability.
	force bool
	// origin is the follower's history id (0 from followers predating it).
	origin uint64
	// resumeHash fingerprints the follower's record at `after` (0 when
	// unavailable — empty log, or restored from a snapshot file).
	resumeHash uint64
	// epoch is the newest cluster fencing epoch the follower has seen; a
	// node serving under an older epoch refuses the subscription (it is a
	// deposed primary).
	epoch uint64
}

// serveSubscription streams this database's change feed: an optional
// bootstrap snapshot (when the follower's position precedes the retained log
// tail, or it asked to be re-seeded), then MsgSubLive, then change batches as
// mutations commit, with heartbeats carrying the current last LSN while the
// log is idle. The loop runs until the connection dies, the kill channel
// fires (forced shutdown) or the server begins shutting down — followers are
// expected to reconnect and resume from their applied LSN.
func (s *Server) serveSubscription(conn *wire.Conn, nc net.Conn, sub subscribeRequest, kill <-chan struct{}) error {
	// The store (and its log) are pinned for the stream's lifetime — the
	// snapshot, the origin check and the change stream must all describe one
	// store. If this server is itself a replica and re-bootstraps, the
	// database swaps in a new store and this log stops growing — detected
	// below so chained followers reconnect against the new history instead
	// of idling forever.
	store := s.db.Store()
	log := store.Log()
	after, force := sub.after, sub.force
	// A follower from a different history (it never restored one of OUR
	// snapshots — a rebuilt primary, a repointed -replica-of) must not
	// resume by LSN coincidence: its numbers count someone else's past.
	// Bootstrap it instead; Restore adopts this store's origin.
	if sub.origin != 0 && sub.origin != store.Origin() {
		force = true
	}
	needSnapshot := force || after > log.LastLSN()
	if !needSnapshot {
		if _, ok := log.Since(after, 1); !ok {
			needSnapshot = true // trimmed past the follower's position
		}
	}
	if !needSnapshot && sub.resumeHash != 0 && after > 0 {
		// Same-origin fork check: the follower's last applied record must BE
		// our record at that LSN. A primary restarted from an older snapshot
		// shares the origin but may have re-assigned these LSNs to different
		// changes; resuming would silently diverge (insert-only feeds never
		// trip the row-image match). Unverifiable positions (our record at
		// `after` already trimmed) resume on the LSN/origin checks alone.
		if recs, ok := log.Since(after-1, 1); ok && len(recs) == 1 && recs[0].LSN == after {
			if repl.RecordHash(recs[0]) != sub.resumeHash {
				s.logf("subscription resume hash mismatch at LSN %d: follower is on a forked timeline, re-seeding", after)
				needSnapshot = true
			}
		}
	}
	if needSnapshot {
		s.armWriteDeadline(nc)
		if err := conn.WriteMessage(wire.MsgSubSnapshot, nil); err != nil {
			return err
		}
		w := &chunkWriter{conn: conn, refresh: func() { s.armWriteDeadline(nc) }}
		lsn, err := store.SaveLSN(w)
		if err != nil {
			if w.writeErr != nil {
				return w.writeErr
			}
			return s.writeError(conn, fmt.Sprintf("bootstrap snapshot failed: %v", err))
		}
		if err := w.flushChunk(); err != nil {
			return err
		}
		after = lsn
	}
	s.armWriteDeadline(nc)
	// SubLive carries the stream's start LSN, this server's heartbeat
	// interval (so the follower can size its liveness read deadline to the
	// cadence it will actually observe instead of guessing), and the fencing
	// epoch the stream is served under.
	live := binary.AppendUvarint(nil, after)
	live = binary.AppendUvarint(live, uint64(s.cfg.heartbeat()))
	live = binary.AppendUvarint(live, s.db.Epoch())
	if err := conn.WriteMessage(wire.MsgSubLive, live); err != nil {
		return err
	}
	if err := conn.Flush(); err != nil {
		return err
	}
	nc.SetWriteDeadline(time.Time{})

	// The subscription writes one-way, which frees the read side for the
	// follower's apply acknowledgments: a dedicated reader feeds MsgSubAck
	// LSNs into the tracker the semi-synchronous write gate waits on. The
	// reader doubles as prompt disconnect detection — a dead follower wakes
	// the idle select below instead of lingering until a heartbeat write
	// fails (and until then would count toward the sync quorum).
	ackID := s.acks.register()
	defer s.acks.unregister(ackID)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			typ, body, err := conn.ReadMessage()
			if err != nil {
				return
			}
			switch typ {
			case wire.MsgSubAck:
				r := wire.NewReader(body)
				lsn := r.Uvarint()
				if r.Err() != nil {
					return
				}
				s.acks.update(ackID, lsn)
			case wire.MsgTerminate:
				return
			default:
				return // protocol violation; the write loop will notice the close
			}
		}
	}()

	hb := time.NewTicker(s.cfg.heartbeat())
	defer hb.Stop()
	var frame, seg []byte
	for {
		if s.db.Store() != store {
			// The database re-bootstrapped under this stream (it is a
			// replica that took a fresh snapshot); the pinned log is dead.
			// Waits below always wake within a heartbeat, so this is seen
			// promptly.
			s.armWriteDeadline(nc)
			s.writeErrorCode(conn, "database was re-bootstrapped; re-subscribe", wire.ErrCodeLogTrimmed)
			return nil
		}
		// Take the growth signal BEFORE reading the tail, so an append that
		// lands between the two cannot be missed.
		grown := log.WaitCh()
		recs, ok := log.Since(after, changeBatchMaxRecords)
		if !ok {
			// The log outpaced this stream and trimmed past its position.
			// Say so with the typed code; the follower reconnects and
			// bootstraps from a fresh snapshot.
			s.armWriteDeadline(nc)
			s.writeErrorCode(conn,
				fmt.Sprintf("change log trimmed past LSN %d; re-subscribe for a snapshot", after),
				wire.ErrCodeLogTrimmed)
			return nil
		}
		if len(recs) == 0 {
			select {
			case <-grown:
			case <-hb.C:
				s.armWriteDeadline(nc)
				frame = binary.AppendUvarint(frame[:0], log.LastLSN())
				frame = binary.AppendUvarint(frame, s.db.Epoch())
				if err := conn.WriteMessage(wire.MsgHeartbeat, frame); err != nil {
					return err
				}
				if err := conn.Flush(); err != nil {
					return err
				}
				nc.SetWriteDeadline(time.Time{})
			case <-readerDone:
				return nil // follower disconnected (or spoke out of turn)
			case <-kill:
				return nil
			case <-s.done:
				return nil
			}
			continue
		}
		for i := 0; i < len(recs); {
			n := 0
			seg = seg[:0]
			for i+n < len(recs) && n < changeBatchMaxRecords && len(seg) < changeBatchTargetBytes {
				seg = repl.AppendRecord(seg, recs[i+n])
				n++
			}
			frame = binary.AppendUvarint(frame[:0], uint64(n))
			frame = append(frame, seg...)
			s.armWriteDeadline(nc)
			if err := conn.WriteMessage(wire.MsgChanges, frame); err != nil {
				return err
			}
			i += n
		}
		if err := conn.Flush(); err != nil {
			return err
		}
		nc.SetWriteDeadline(time.Time{})
		after = recs[len(recs)-1].LSN
		// One outlier batch must not pin megabytes for the stream's lifetime.
		if cap(seg) > 1<<20 {
			seg, frame = nil, nil
		}
	}
}
