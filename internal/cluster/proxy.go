package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"perm/internal/logx"
	"perm/internal/wire"
)

// Topology is the router's view of the member set: who takes writes, in what
// order to try reads, and the cluster's current fencing epoch. *Coordinator
// implements it; tests substitute fixed topologies.
type Topology interface {
	// Primary returns the current primary's address and fencing epoch; ok is
	// false while the cluster has no known live primary.
	Primary() (addr string, epoch uint64, ok bool)
	// ReadOrder returns the addresses a read should try, best first.
	ReadOrder() []string
	// Epoch is the highest fencing epoch known to the cluster.
	Epoch() uint64
}

// RouterConfig tunes the routing proxy. Topology is required.
type RouterConfig struct {
	Topology Topology
	// DialTimeout bounds each backend connect + handshake; default 2s.
	DialTimeout time.Duration
	// Log receives routing error records; nil logs nothing.
	Log *logx.Logger
}

func (c *RouterConfig) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 2 * time.Second
}

// Router is the cluster's front end: clients connect to it as if it were a
// single permserver, and it relays each statement to the right member —
// writes to the current-epoch primary, reads to the healthiest least-lagged
// replica (falling back to the primary). Frames are relayed verbatim, never
// re-encoded, so a routed row stream costs one extra copy per frame.
//
// Reads are idempotent and are transparently retried on another member when
// a backend dies before the first response frame was forwarded; writes are
// never retried (an unknown outcome is reported, not repeated). A write
// acknowledged under a fencing epoch older than the cluster's current one is
// converted into a typed stale-epoch error: a deposed primary's ack must
// surface as a failure, never as silent split-brain.
//
// Session state is preserved across members: SET statements are recorded and
// replayed onto every backend the session touches, and prepared statements
// are re-parsed on whichever backend a later execute lands on.
type Router struct {
	cfg RouterConfig

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[net.Conn]struct{}
	closing   bool
	wg        sync.WaitGroup
}

// ErrRouterClosed is returned by Serve after Close.
var ErrRouterClosed = errors.New("cluster: router closed")

// NewRouter builds a router over the given topology.
func NewRouter(cfg RouterConfig) *Router {
	return &Router{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[net.Conn]struct{}),
	}
}

// ListenAndServe listens on addr and serves until Close.
func (r *Router) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.Serve(l)
}

// Serve accepts client connections on l until the listener fails or the
// router closes.
func (r *Router) Serve(l net.Listener) error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		l.Close()
		return ErrRouterClosed
	}
	r.listeners[l] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.listeners, l)
		r.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			r.mu.Lock()
			closing := r.closing
			r.mu.Unlock()
			if closing {
				return ErrRouterClosed
			}
			return err
		}
		r.mu.Lock()
		if r.closing {
			r.mu.Unlock()
			nc.Close()
			return ErrRouterClosed
		}
		r.sessions[nc] = struct{}{}
		r.wg.Add(1)
		r.mu.Unlock()
		go func() {
			defer r.wg.Done()
			s := &routerSession{r: r, nc: nc, conn: wire.NewConn(nc)}
			s.serve()
			s.closeBackends()
			nc.Close()
			r.mu.Lock()
			delete(r.sessions, nc)
			r.mu.Unlock()
		}()
	}
}

// Close stops accepting, disconnects every session and waits for them.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closing = true
	for l := range r.listeners {
		l.Close()
	}
	for nc := range r.sessions {
		nc.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return nil
}

// backend is one upstream member connection owned by a session.
type backend struct {
	addr string
	nc   net.Conn
	conn *wire.Conn
	// applied counts the session SET statements already replayed here.
	applied int
	// prepared tracks which session statement names are parsed here.
	prepared map[string]bool
}

func (b *backend) markPrepared(name string) {
	if b.prepared == nil {
		b.prepared = make(map[string]bool)
	}
	b.prepared[name] = true
}

func (b *backend) close() {
	if b != nil {
		b.nc.Close()
	}
}

// roundTrip issues one request on the backend and discards the response
// (settings replay, re-parse, statement close). A server-reported error
// comes back as serr with the connection still usable; err is transport
// failure.
func (b *backend) roundTrip(typ byte, payload []byte) (serr *wire.ServerError, err error) {
	if err := b.conn.WriteMessage(typ, payload); err != nil {
		return nil, err
	}
	if err := b.conn.Flush(); err != nil {
		return nil, err
	}
	for {
		rtyp, body, err := b.conn.ReadMessage()
		if err != nil {
			return nil, err
		}
		if rtyp == wire.MsgError {
			return wire.DecodeServerError(body), nil
		}
		if isTerminal(rtyp) {
			return nil, nil
		}
	}
}

// routerSession serves one client connection.
type routerSession struct {
	r    *Router
	nc   net.Conn
	conn *wire.Conn

	settings []string // successful SETs, replayed per backend
	// stmts holds the SQL of every prepared statement the session registered,
	// by name: it decides where an Execute of the name routes, and lets the
	// statement be re-parsed on whichever backend that is.
	stmts  map[string]string
	read   *backend
	write  *backend
	portal *backend // backend holding the open portal, if any
}

// clientError marks a failure on the client side of the relay: the session
// is over (backend errors, by contrast, are routed around or reported).
type clientError struct{ err error }

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

func (s *routerSession) serve() {
	if err := s.handshake(); err != nil {
		return
	}
	for {
		typ, body, err := s.conn.ReadMessage()
		if err != nil {
			return
		}
		if err := s.dispatch(typ, body); err != nil {
			var ce clientError
			if errors.As(err, &ce) {
				return
			}
			// Backend-side failure already reported in-band; session lives on.
			s.r.cfg.Log.Warn("router: backend failed", "err", err)
		}
		if typ == wire.MsgTerminate {
			return
		}
	}
}

func (s *routerSession) handshake() error {
	s.nc.SetDeadline(time.Now().Add(s.r.cfg.dialTimeout()))
	defer s.nc.SetDeadline(time.Time{})
	typ, body, err := s.conn.ReadMessage()
	if err != nil {
		return err
	}
	if typ != wire.MsgHello {
		return s.writeError(fmt.Sprintf("expected Hello, got %q", typ), wire.ErrCodeGeneric)
	}
	if _, err := wire.DecodeHello(body); err != nil {
		return s.writeError("malformed Hello", wire.ErrCodeGeneric)
	}
	ok := wire.HelloOK{
		Version: wire.ProtocolVersion,
		Server:  "perm-router",
		Epoch:   s.r.cfg.Topology.Epoch(),
		// The router fronts the whole cluster: it accepts writes (relayed to
		// the primary), so it presents as one.
		Role: "primary",
	}
	return s.send(wire.MsgHelloOK, ok.Encode(nil))
}

func (s *routerSession) send(typ byte, payload []byte) error {
	if err := s.conn.WriteMessage(typ, payload); err != nil {
		return clientError{err}
	}
	if err := s.conn.Flush(); err != nil {
		return clientError{err}
	}
	return nil
}

func (s *routerSession) writeError(msg string, code uint64) error {
	return s.send(wire.MsgError, wire.AppendError(nil, msg, code))
}

func (s *routerSession) dispatch(typ byte, body []byte) error {
	switch typ {
	case wire.MsgExecute:
		m, err := wire.DecodeExecute(body)
		if err != nil {
			return s.writeError("malformed execute frame", wire.ErrCodeGeneric)
		}
		sql := m.SQL
		if m.Name != "" {
			var ok bool
			if sql, ok = s.stmts[m.Name]; !ok {
				return s.writeError(fmt.Sprintf("unknown prepared statement %q", m.Name), wire.ErrCodeGeneric)
			}
		}
		class := Classify(sql)
		return s.route(class == ClassWrite, typ, body, m.Name, func(b *backend, rtyp byte) {
			s.trackPortal(rtyp, b)
			if class == ClassSession && rtyp == wire.MsgComplete {
				// A SET that succeeded: replayed onto every backend the
				// session touches later (b has it already).
				s.settings = append(s.settings, sql)
				b.applied = len(s.settings)
			}
		})
	case wire.MsgParse:
		m, err := wire.DecodeParse(body)
		if err != nil {
			return s.writeError("malformed parse frame", wire.ErrCodeGeneric)
		}
		// The Parse goes to the backend the statement's class routes to, and
		// the SQL is remembered so other backends can catch up on demand.
		return s.route(Classify(m.SQL) == ClassWrite, typ, body, "", func(b *backend, rtyp byte) {
			if rtyp != wire.MsgParseOK {
				return
			}
			if s.stmts == nil {
				s.stmts = make(map[string]string)
			}
			s.stmts[m.Name] = m.SQL
			b.markPrepared(m.Name)
		})
	case wire.MsgFetch, wire.MsgClosePortal:
		return s.relayPortal(typ, body)
	case wire.MsgCloseStmt:
		return s.handleCloseStmt(body)
	case wire.MsgStatus:
		return s.relayRead(typ, body, "", nil)
	case wire.MsgTerminate:
		return nil
	case wire.MsgBackup, wire.MsgSubscribe, wire.MsgPromote, wire.MsgDemote:
		return s.writeError(fmt.Sprintf("request %q is not routable; connect to a cluster member directly", typ), wire.ErrCodeGeneric)
	}
	return s.writeError(fmt.Sprintf("unexpected frame %q", typ), wire.ErrCodeGeneric)
}

// isTerminal reports whether rtyp ends one server response.
func isTerminal(rtyp byte) bool {
	switch rtyp {
	case wire.MsgComplete, wire.MsgError, wire.MsgParseOK, wire.MsgSuspended,
		wire.MsgCloseOK, wire.MsgStatusOK, wire.MsgBackupDone:
		return true
	}
	return false
}

// relay forwards one request to b and streams the response back verbatim.
// It returns the terminal frame type, whether any frame reached the client,
// and the backend transport error if the stream broke.
func (s *routerSession) relay(b *backend, typ byte, payload []byte, checkEpoch bool) (rtyp byte, forwarded bool, err error) {
	if err := b.conn.WriteMessage(typ, payload); err != nil {
		return 0, false, err
	}
	if err := b.conn.Flush(); err != nil {
		return 0, false, err
	}
	for {
		rtyp, body, err := b.conn.ReadMessage()
		if err != nil {
			return 0, forwarded, err
		}
		if rtyp == wire.MsgComplete && checkEpoch {
			if done, derr := wire.DecodeComplete(body); derr == nil && done.Epoch > 0 {
				if cur := s.r.cfg.Topology.Epoch(); done.Epoch < cur {
					// The ack came from a primary the cluster has since
					// fenced: the write may not survive the failover. Typed
					// failure, not a silent ack.
					return rtyp, true, s.writeError(fmt.Sprintf(
						"write acknowledged at stale cluster epoch %d (cluster is at %d); outcome unknown after failover",
						done.Epoch, cur), wire.ErrCodeStaleEpoch)
				}
			}
		}
		if werr := s.conn.WriteMessage(rtyp, body); werr != nil {
			return rtyp, forwarded, clientError{werr}
		}
		forwarded = true
		if isTerminal(rtyp) {
			if werr := s.conn.Flush(); werr != nil {
				return rtyp, forwarded, clientError{werr}
			}
			return rtyp, forwarded, nil
		}
	}
}

// trackPortal records which backend holds the open portal after an
// Execute/Fetch response ended with rtyp.
func (s *routerSession) trackPortal(rtyp byte, b *backend) {
	if rtyp == wire.MsgSuspended {
		s.portal = b
	} else {
		s.portal = nil
	}
}

// route relays one statement-bearing request where its class says: a write
// to the primary, anything else across the read order. stmt, when not empty,
// names a prepared statement the chosen backend must have; done, when set,
// sees the backend that answered and the frame its response ended with.
func (s *routerSession) route(write bool, typ byte, body []byte, stmt string, done func(*backend, byte)) error {
	if write {
		return s.relayWrite(typ, body, stmt, done)
	}
	return s.relayRead(typ, body, stmt, done)
}

// exchange brings b up to date with the session and relays one request
// there. A nil error means the client has its answer; a clientError ends the
// session; any other error is the backend's transport failure — b is dropped,
// and forwarded reports whether part of a response had already reached the
// client.
func (s *routerSession) exchange(b *backend, typ byte, body []byte, stmt string, checkEpoch bool, done func(*backend, byte)) (forwarded bool, err error) {
	err = s.prepareBackend(b, stmt)
	var se *wire.ServerError
	if errors.As(err, &se) {
		// The statement itself is bad; no other member will do better.
		return true, s.send(wire.MsgError, wire.AppendError(nil, se.Message, se.Code))
	}
	var rtyp byte
	if err == nil {
		rtyp, forwarded, err = s.relay(b, typ, body, checkEpoch)
	}
	if err == nil {
		if done != nil {
			done(b, rtyp)
		}
		return true, nil
	}
	var ce clientError
	if !errors.As(err, &ce) {
		s.dropBackend(b)
	}
	return forwarded, err
}

// relayWrite routes one request to the current-epoch primary. Writes are
// never retried: a transport failure mid-request has an unknown outcome and
// is reported as such.
func (s *routerSession) relayWrite(typ byte, body []byte, stmt string, done func(*backend, byte)) error {
	mRouteWrites.Inc()
	b, err := s.writeBackend()
	if err != nil {
		return s.writeError("cluster has no writable primary: "+err.Error(), wire.ErrCodeGeneric)
	}
	forwarded, err := s.exchange(b, typ, body, stmt, true, done)
	var ce clientError
	if err == nil || errors.As(err, &ce) {
		return err
	}
	if forwarded {
		return s.writeError("primary connection failed mid-response: "+err.Error(), wire.ErrCodeGeneric)
	}
	return s.writeError("primary connection failed; write outcome unknown: "+err.Error(), wire.ErrCodeGeneric)
}

// relayRead routes one idempotent request across the topology's read order,
// transparently retrying on the next candidate while nothing has been
// forwarded to the client yet. It is the one failover loop: reads, SET and
// the Parse of a read statement differ only in their done hook.
func (s *routerSession) relayRead(typ byte, body []byte, stmt string, done func(*backend, byte)) error {
	mRouteReads.Inc()
	var lastErr error
	for i, addr := range s.r.cfg.Topology.ReadOrder() {
		if i > 0 {
			mReadRetries.Inc()
		}
		b, err := s.readBackend(addr)
		if err == nil {
			var forwarded bool
			forwarded, err = s.exchange(b, typ, body, stmt, false, done)
			var ce clientError
			if err == nil || errors.As(err, &ce) {
				return err
			}
			if forwarded {
				// The client already saw part of this response; a retry would
				// corrupt the stream. End the statement with an in-band error —
				// the protocol allows a mid-stream error and the session
				// survives.
				return s.writeError("backend failed mid-response: "+err.Error(), wire.ErrCodeGeneric)
			}
		}
		lastErr = err
	}
	msg := "no healthy cluster member to serve the request"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	return s.writeError(msg, wire.ErrCodeGeneric)
}

// relayPortal relays Fetch/ClosePortal to whichever backend holds the open
// portal.
func (s *routerSession) relayPortal(typ byte, body []byte) error {
	b := s.portal
	if b == nil {
		return s.writeError("no open portal on this connection", wire.ErrCodeGeneric)
	}
	rtyp, forwarded, err := s.relay(b, typ, body, false)
	if err != nil {
		var ce clientError
		if errors.As(err, &ce) {
			return err
		}
		s.dropBackend(b)
		if !forwarded {
			return s.writeError("backend holding the portal failed: "+err.Error(), wire.ErrCodeGeneric)
		}
		return s.writeError("backend failed mid-response: "+err.Error(), wire.ErrCodeGeneric)
	}
	if typ == wire.MsgClosePortal {
		s.portal = nil
	} else {
		s.trackPortal(rtyp, b)
	}
	return nil
}

// handleCloseStmt deallocates a routed prepared statement everywhere it was
// parsed, then acknowledges once. Deallocation is idempotent, so backend
// errors here only drop the backend.
func (s *routerSession) handleCloseStmt(body []byte) error {
	r := wire.NewReader(body)
	name := r.String()
	if r.Err() != nil {
		return s.writeError("malformed close frame", wire.ErrCodeGeneric)
	}
	delete(s.stmts, name)
	for _, b := range []*backend{s.read, s.write} {
		if b == nil || !b.prepared[name] {
			continue
		}
		delete(b.prepared, name)
		if _, err := b.roundTrip(wire.MsgCloseStmt, body); err != nil {
			s.dropBackend(b)
		}
	}
	return s.send(wire.MsgCloseOK, nil)
}

// writeBackend returns the session's connection to the current-epoch
// primary, (re)connecting when the primary moved.
func (s *routerSession) writeBackend() (*backend, error) {
	addr, _, ok := s.r.cfg.Topology.Primary()
	if !ok {
		return nil, errors.New("no live primary")
	}
	if s.write != nil && s.write.addr == addr {
		return s.write, nil
	}
	if s.write != nil {
		s.write.close()
		s.write = nil
	}
	b, err := s.r.dialBackend(addr)
	if err != nil {
		return nil, err
	}
	s.write = b
	return b, nil
}

// readBackend returns the session's read connection, pinned while healthy:
// reads load-balance across sessions, not across statements, so prepared
// statements and session settings need replaying at most once per failover.
func (s *routerSession) readBackend(addr string) (*backend, error) {
	if s.read != nil && s.read.addr == addr {
		return s.read, nil
	}
	if s.read != nil {
		s.read.close()
		s.read = nil
	}
	b, err := s.r.dialBackend(addr)
	if err != nil {
		return nil, err
	}
	s.read = b
	return b, nil
}

func (s *routerSession) dropBackend(b *backend) {
	b.close()
	if s.read == b {
		s.read = nil
	}
	if s.write == b {
		s.write = nil
	}
	if s.portal == b {
		s.portal = nil
	}
}

func (s *routerSession) closeBackends() {
	s.read.close()
	s.write.close()
}

// prepareBackend brings b up to date with the session's recorded state
// before a request is relayed there: pending SET statements are replayed,
// and stmt, when not empty, is parsed there unless it already was. A
// statement the server refuses to parse comes back as *wire.ServerError.
func (s *routerSession) prepareBackend(b *backend, stmt string) error {
	for b.applied < len(s.settings) {
		sql := s.settings[b.applied]
		serr, err := b.roundTrip(wire.MsgExecute, wire.Execute{SQL: sql}.Encode(nil))
		if err != nil {
			return err
		}
		if serr != nil {
			// The member rejected a setting the session carries (version
			// skew). Keep going: the setting applied where it was issued, and
			// refusing all routing over it would take the session down.
			s.r.cfg.Log.Warn("router: replaying a setting failed", "sql", sql, "member", b.addr, "err", serr)
		}
		b.applied++
	}
	if stmt == "" || b.prepared[stmt] {
		return nil
	}
	serr, err := b.roundTrip(wire.MsgParse, wire.Parse{Name: stmt, SQL: s.stmts[stmt]}.Encode(nil))
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	b.markPrepared(stmt)
	return nil
}

// dialBackend opens one member connection with the handshake done.
func (r *Router) dialBackend(addr string) (*backend, error) {
	nc, err := net.DialTimeout("tcp", addr, r.cfg.dialTimeout())
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(nc)
	nc.SetDeadline(time.Now().Add(r.cfg.dialTimeout()))
	if _, err := wire.Handshake(conn, "perm-router"); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return &backend{addr: addr, nc: nc, conn: conn}, nil
}
