package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"perm/internal/value"
)

// Client is the client side of the Perm wire protocol: one TCP connection,
// one server session, strict request/response. It is not safe for concurrent
// use — database/sql serializes access per connection, which is exactly the
// discipline the protocol expects.
type Client struct {
	nc     net.Conn
	conn   *Conn
	server HelloOK
	// cursor is the open result, if any; it must be exhausted or closed
	// before the next request.
	cursor *Cursor
	broken error
}

// Dial connects, performs the handshake, and returns a ready client.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a timeout covering both the TCP connect and the
// protocol handshake, so a peer that accepts but never answers cannot hang
// the caller.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// WatchCancel arms abort to run once when ctx ends. The returned stop
// function disarms the watcher and JOINS it before returning, so after stop
// no late abort can fire — the invariant both connection-abort call sites
// (DialContext and the driver's per-request watcher) depend on: an abort
// that poisons the connection deadline must never land after the caller has
// moved on and cleared it.
func WatchCancel(ctx context.Context, abort func()) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		select {
		case <-ctx.Done():
			abort()
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		<-parked
	}
}

// DialContext is Dial under a caller-controlled context: both the TCP
// connect and the handshake observe its deadline and cancellation (the
// database/sql pool dials new connections through here, so a query context
// bounds connection establishment too). A context without a deadline still
// gets a 10-second handshake cap.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, conn: NewConn(nc)}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(10 * time.Second)
	}
	nc.SetDeadline(deadline)
	stop := WatchCancel(ctx, c.Abort)
	err = c.handshake()
	stop()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		nc.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

func (c *Client) handshake() error {
	server, err := Handshake(c.conn, "perm-go")
	if err != nil {
		return err
	}
	c.server = server
	return nil
}

// Handshake performs the client side of the protocol handshake on conn:
// Hello out, HelloOK (or a server error) back. Callers that drive a raw Conn
// — the replication follower subscribes and then reads a one-way stream that
// doesn't fit the Client's request/response discipline — use this directly.
func Handshake(conn *Conn, client string) (HelloOK, error) {
	payload := Hello{Version: ProtocolVersion, Client: client}.Encode(nil)
	if err := conn.WriteMessage(MsgHello, payload); err != nil {
		return HelloOK{}, err
	}
	if err := conn.Flush(); err != nil {
		return HelloOK{}, err
	}
	typ, body, err := conn.ReadMessage()
	if err != nil {
		return HelloOK{}, fmt.Errorf("wire: handshake failed: %w", err)
	}
	switch typ {
	case MsgHelloOK:
		return DecodeHelloOK(body)
	case MsgError:
		return HelloOK{}, DecodeServerError(body)
	}
	return HelloOK{}, fmt.Errorf("wire: unexpected handshake response %q", typ)
}

// Server returns the server's handshake information.
func (c *Client) Server() HelloOK { return c.server }

// fail marks the connection unusable (protocol state lost).
func (c *Client) fail(err error) error {
	if c.broken == nil {
		c.broken = err
	}
	return err
}

// Broken reports the sticky connection error, if any. A client with a broken
// connection must be discarded; database/sql uses this to retire pooled
// connections.
func (c *Client) Broken() error { return c.broken }

// Abort unblocks any in-flight network read or write by expiring the
// connection's deadline. It is the one Client method safe to call from
// another goroutine: the perm driver uses it to honor context cancellation
// while a request is blocked on the server. The protocol state is lost, so
// the aborted operation fails and the connection becomes Broken. A caller
// that stops an armed Abort watcher without the abort having mattered must
// call ResetDeadline (after the watcher has fully exited) so a late Abort
// cannot leak into the next request.
func (c *Client) Abort() {
	c.nc.SetDeadline(time.Unix(1, 0))
}

// ResetDeadline clears any deadline Abort installed. Only call it when no
// Abort can fire concurrently anymore — clearing while a cancellation is
// still in flight would lose it.
func (c *Client) ResetDeadline() {
	c.nc.SetDeadline(time.Time{})
}

func (c *Client) ready() error {
	if c.broken != nil {
		return c.broken
	}
	if c.cursor != nil {
		return fmt.Errorf("wire: previous cursor not closed")
	}
	return nil
}

// Backup streams a consistent snapshot of the server's database into w (the
// remote analog of perm.DB.Save).
func (c *Client) Backup(w io.Writer) error {
	if err := c.ready(); err != nil {
		return err
	}
	if err := c.conn.WriteMessage(MsgBackup, nil); err != nil {
		return c.fail(err)
	}
	if err := c.conn.Flush(); err != nil {
		return c.fail(err)
	}
	for {
		typ, body, err := c.conn.ReadMessage()
		if err != nil {
			return c.fail(err)
		}
		switch typ {
		case MsgBackupChunk:
			if _, err := w.Write(body); err != nil {
				// The stream must still be drained to keep the protocol in
				// sync, but the caller's error wins.
				c.drainBackup()
				return err
			}
		case MsgBackupDone:
			return nil
		case MsgError:
			return DecodeServerError(body)
		default:
			return c.fail(fmt.Errorf("wire: unexpected response %q to backup", typ))
		}
	}
}

func (c *Client) drainBackup() {
	for {
		typ, _, err := c.conn.ReadMessage()
		if err != nil {
			c.fail(err)
			return
		}
		if typ == MsgBackupDone || typ == MsgError {
			return
		}
	}
}

// Status probes the server's cluster status: role, fencing epoch, timeline
// origin and replication positions. It is the coordinator's failure-detector
// probe and the router's membership refresh — one tiny round trip, no SQL.
func (c *Client) Status() (NodeStatus, error) {
	return c.statusRequest(MsgStatus, nil)
}

// Promote orders the server to fence itself at epoch and start accepting
// writes, returning its post-promotion status.
func (c *Client) Promote(epoch uint64) (NodeStatus, error) {
	return c.statusRequest(MsgPromote, Promote{Epoch: epoch}.Encode(nil))
}

// Demote orders the server to fence itself at epoch, enter read-only mode
// and follow primaryAddr, returning its post-demotion status.
func (c *Client) Demote(epoch uint64, primaryAddr string) (NodeStatus, error) {
	return c.statusRequest(MsgDemote, Demote{Epoch: epoch, PrimaryAddr: primaryAddr}.Encode(nil))
}

func (c *Client) statusRequest(typ byte, payload []byte) (NodeStatus, error) {
	if err := c.ready(); err != nil {
		return NodeStatus{}, err
	}
	if err := c.request(typ, payload); err != nil {
		return NodeStatus{}, err
	}
	rtyp, body, err := c.conn.ReadMessage()
	if err != nil {
		return NodeStatus{}, c.fail(err)
	}
	switch rtyp {
	case MsgStatusOK:
		st, err := DecodeNodeStatus(body)
		if err != nil {
			return NodeStatus{}, c.fail(err)
		}
		return st, nil
	case MsgError:
		return NodeStatus{}, DecodeServerError(body)
	}
	return NodeStatus{}, c.fail(fmt.Errorf("wire: unexpected response %q to status request", rtyp))
}

// Close terminates the session and closes the connection.
func (c *Client) Close() error {
	if c.broken == nil {
		// Best effort: the server treats an abrupt close identically.
		c.conn.WriteMessage(MsgTerminate, nil)
		c.conn.Flush()
	}
	return c.conn.Close()
}

// Prepare registers sqlText as a server-side prepared statement under name,
// returning the number of `?` parameters it binds. Statements live for the
// connection's lifetime (or until CloseStmt) and execute with true typed
// binds — argument values never travel as SQL text.
func (c *Client) Prepare(name, sqlText string) (int, error) {
	if err := c.ready(); err != nil {
		return 0, err
	}
	if err := c.request(MsgParse, Parse{Name: name, SQL: sqlText}.Encode(nil)); err != nil {
		return 0, err
	}
	typ, body, err := c.conn.ReadMessage()
	if err != nil {
		return 0, c.fail(err)
	}
	switch typ {
	case MsgParseOK:
		r := NewReader(body)
		n := r.Uvarint()
		if r.Err() != nil {
			return 0, c.fail(r.Err())
		}
		return int(n), nil
	case MsgError:
		return 0, DecodeServerError(body)
	}
	return 0, c.fail(fmt.Errorf("wire: unexpected response %q to parse", typ))
}

// CloseStmt deallocates a prepared statement. Unknown names close cleanly
// (deallocation is idempotent).
func (c *Client) CloseStmt(name string) error {
	if err := c.ready(); err != nil {
		return err
	}
	if err := c.request(MsgCloseStmt, AppendString(nil, name)); err != nil {
		return err
	}
	return c.awaitCloseOK()
}

// request writes one frame and flushes it.
func (c *Client) request(typ byte, payload []byte) error {
	if err := c.conn.WriteMessage(typ, payload); err != nil {
		return c.fail(err)
	}
	if err := c.conn.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

func (c *Client) awaitCloseOK() error {
	typ, body, err := c.conn.ReadMessage()
	if err != nil {
		return c.fail(err)
	}
	switch typ {
	case MsgCloseOK:
		return nil
	case MsgError:
		return DecodeServerError(body)
	}
	return c.fail(fmt.Errorf("wire: unexpected response %q to close", typ))
}

// Execute binds args to the named prepared statement (or, with name empty,
// to the one-shot statement sqlText) and opens a cursor over its result. It
// returns once the first batch of rows (or the end of the result) has
// arrived, so Desc is valid and a statement that failed before producing
// anything is the call's error. fetchSize is the batch the server returns
// per round trip — the executor produces at most that many rows ahead of
// the client. fetchSize <= 0 streams the whole result without suspending:
// the cursor still holds one batch at a time, and a client that stops
// reading pushes back through TCP until the server's write deadline.
func (c *Client) Execute(name, sqlText string, args []value.Value, fetchSize int) (*Cursor, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	req := Execute{Name: name, SQL: sqlText, Args: args}
	if fetchSize > 0 {
		req.FetchSize = uint64(fetchSize)
	}
	if err := c.request(MsgExecute, req.Encode(nil)); err != nil {
		return nil, err
	}
	cur := &Cursor{c: c, fetchSize: req.FetchSize}
	c.cursor = cur
	for cur.state == cursorReading && len(cur.pending) == 0 {
		cur.readFrame()
	}
	if cur.err != nil && len(cur.pending) == 0 {
		// Mid-stream failures after rows were delivered stay on the cursor
		// so the caller can read the prefix.
		return nil, cur.err
	}
	return cur, nil
}

// ExecuteDrain executes a named prepared statement (or, with name empty,
// the one-shot sqlText) with args bound and discards its rows a frame at a
// time, returning the completion — what the driver's ExecContext runs.
func (c *Client) ExecuteDrain(name, sqlText string, args []value.Value) (Complete, error) {
	cur, err := c.Execute(name, sqlText, args, 0)
	if err != nil {
		return Complete{}, err
	}
	if err := cur.Close(); err != nil {
		return Complete{}, err
	}
	return cur.Complete, nil
}

// Cursor is a statement's result, read one frame at a time. Desc is valid
// after Execute; Complete once the cursor finishes.
type Cursor struct {
	c         *Client
	Desc      RowDesc
	Complete  Complete
	fetchSize uint64
	// pending holds the rows of the last RowBatch frame not yet handed out.
	pending []value.Row
	pos     int
	state   cursorState
	err     error
}

type cursorState uint8

const (
	cursorReading   cursorState = iota // the response in flight has frames left
	cursorSuspended                    // the server holds the portal open for a Fetch
	cursorDone                         // Complete or Error read, or the connection failed
)

// readFrame consumes one frame of the response in flight: an optional
// leading RowDesc, RowBatch frames, then Suspended, Complete or Error.
func (cur *Cursor) readFrame() {
	typ, body, err := cur.c.conn.ReadMessage()
	if err == nil {
		switch typ {
		case MsgRowDesc:
			cur.Desc, err = DecodeRowDesc(body)
		case MsgRowBatch:
			cur.pending, err = DecodeRowBatch(body)
			cur.pos = 0
		case MsgSuspended:
			cur.state = cursorSuspended
		case MsgComplete:
			if cur.Complete, err = DecodeComplete(body); err == nil {
				cur.finish(nil)
			}
		case MsgError:
			// A statement error, possibly mid-stream: the server closed the
			// portal, rows already handed out stay valid, and the connection
			// itself is still in sync.
			cur.finish(DecodeServerError(body))
		default:
			err = fmt.Errorf("wire: unexpected frame %q in cursor stream", typ)
		}
	}
	if err != nil {
		cur.finish(cur.c.fail(err))
	}
}

func (cur *Cursor) finish(err error) {
	cur.state = cursorDone
	if cur.err == nil {
		cur.err = err
	}
	if cur.c.cursor == cur {
		cur.c.cursor = nil
	}
}

// Next returns the next row, reading the next frame — and, once the server
// suspended the portal, asking for the next batch — as the rows in hand run
// out; (nil, nil) means end of result.
func (cur *Cursor) Next() (value.Row, error) {
	for {
		if cur.pos < len(cur.pending) {
			row := cur.pending[cur.pos]
			cur.pos++
			return row, nil
		}
		switch cur.state {
		case cursorDone:
			return nil, cur.err
		case cursorSuspended:
			if err := cur.c.request(MsgFetch, binary.AppendUvarint(nil, cur.fetchSize)); err != nil {
				cur.finish(err)
				return nil, err
			}
			cur.state = cursorReading
		}
		cur.readFrame()
	}
}

// Close releases the cursor: unread rows are dropped, a response still in
// flight is read through to its last frame, and a portal the server holds
// open is closed with one round trip. After Close the connection is ready
// for the next request.
func (cur *Cursor) Close() error {
	for cur.state == cursorReading {
		cur.readFrame()
	}
	cur.pending, cur.pos = nil, 0
	if cur.state == cursorSuspended {
		cur.finish(nil)
		if err := cur.c.request(MsgClosePortal, nil); err != nil {
			cur.err = err
		} else if err := cur.c.awaitCloseOK(); err != nil {
			cur.err = err
		}
	}
	return cur.err
}
