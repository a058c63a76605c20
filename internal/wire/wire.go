// Package wire implements the Perm client/server wire protocol: a compact,
// length-prefixed binary framing with typed messages for the handshake,
// statement execution, row streaming, command completion, errors, online
// backup, replication and cluster management. Both sides of the connection
// — internal/server and the public perm/driver — share the encode/decode
// routines in this package, so the protocol has exactly one definition.
//
// # Framing
//
// Every message is one frame:
//
//	[1 byte type][4 bytes big-endian payload length][payload]
//
// Payload integers use unsigned varints (encoding/binary), strings are
// varint-length-prefixed UTF-8, and SQL values and rows travel in
// internal/value's exact row codec (value.AppendRow), so a provenance tuple
// streams without loss and in the bytes the WAL and snapshots hold it in.
//
// # Conversation
//
// The client opens with Hello and the server answers HelloOK (or Error, and
// closes). After that the client drives a strict request/response loop, and
// there is one way to run a statement in it: Execute, carrying either the
// name of a statement registered by an earlier Parse or the SQL of a
// one-shot statement, the typed bind arguments (none for a statement
// without placeholders) and a fetch size. The answer is Error, or an
// optional RowDesc and RowBatch frames ended by Complete, by Suspended (the
// fetch size was reached; Fetch continues the portal, ClosePortal abandons
// it) or by a typed Error mid-stream. A fetch size of 0 streams to
// Complete: every batch is flushed on its own, the client holds one batch
// at a time, and a client that stops reading blocks the server's write
// until its write deadline. Backup is answered by BackupChunk frames then
// BackupDone. Terminate ends the conversation. The strict alternation means
// neither side ever needs to demultiplex.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"perm/internal/value"
)

// ProtocolVersion is bumped on any incompatible framing or message change.
// Version 2 added replication (Subscribe and the server→client snapshot /
// change-batch / heartbeat stream) and the error-code suffix on Error frames.
// Version 3 added cursors and server-side prepared statements
// (Parse/Execute/Fetch/ClosePortal, batched row frames, typed parameters)
// and switched row streaming from one frame per row to RowBatch frames.
// Version 4 added the cluster layer: fencing epochs in the handshake,
// Subscribe, the replication stream and Complete frames; node status probes
// (Status/StatusOK); coordinator-driven Promote/Demote; and follower apply
// acknowledgments (SubAck) for semi-synchronous replication.
// Version 5 retired Query ('Q': SQL text in, a row stream out — now an
// Execute with no name, no arguments and fetch size 0) and the reserved Row
// ('r') type; the handshake refuses older peers.
// Version 6 made the change feed the log: a Changes payload is a run of WAL
// record frames (internal/repl), checksummed like a WAL segment. Since the
// handshake refuses any other version, no field is optional any more: every
// decoder reads every field and refuses a payload with bytes missing or left
// over.
const ProtocolVersion = 6

// MaxFrameSize bounds a single frame (64 MiB): a defense against corrupt or
// malicious length prefixes allocating unbounded memory.
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge is returned by WriteMessage for payloads over
// MaxFrameSize, before anything is written — the connection stays in sync,
// so the sender may report the condition in-band instead of dying.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// Message types. Client→server types are uppercase, server→client lowercase.
const (
	MsgHello       byte = 'H' // client: protocol version + client name
	MsgBackup      byte = 'B' // client: request a consistent snapshot stream
	MsgSubscribe   byte = 'S' // client: become a replication follower from an LSN
	MsgTerminate   byte = 'X' // client: goodbye
	MsgHelloOK     byte = 'h' // server: handshake accepted
	MsgRowDesc     byte = 'd' // server: result-set column descriptions
	MsgComplete    byte = 'c' // server: statement finished (tag, timings)
	MsgError       byte = 'e' // server: statement or protocol error
	MsgBackupChunk byte = 'b' // server: snapshot bytes
	MsgBackupDone  byte = 'k' // server: snapshot complete

	// Replication stream (server→client, after MsgSubscribe). The follower
	// asks to resume after an LSN; the primary answers either MsgSubLive
	// (the log still holds everything past that LSN) or MsgSubSnapshot +
	// BackupChunk frames + MsgSubLive (bootstrap: the stream Backup gets,
	// read by SnapshotReader), then pushes MsgChanges batches — the WAL's
	// checksummed record frames — as mutations commit and MsgHeartbeat while
	// idle. Subscribe turns the connection into a one-way stream: the client
	// sends nothing further and the request/response alternation ends.
	MsgSubSnapshot byte = 'n' // server: bootstrap snapshot stream follows
	MsgSubLive     byte = 'l' // server: snapshot done / resume accepted (SubLive)
	MsgChanges     byte = 'g' // server: change records as WAL frames (repl.ReadRecordFrames)
	MsgHeartbeat   byte = 't' // server: liveness + the primary's current last LSN

	// Statements. Parse registers a named statement on the connection's
	// session; Execute binds typed arguments to a named (or inline one-shot)
	// statement and opens the connection's portal, streaming the first batch
	// of rows (fetch size 0: all of them); Fetch continues the portal under
	// client-driven backpressure — the executor produces nothing between
	// fetches — and ClosePortal abandons it. Each Execute/Fetch is answered
	// by RowBatch frames followed by Suspended (more rows remain; portal
	// stays open) or Complete (done), or by a typed Error mid-stream, which
	// also closes the portal.
	MsgParse       byte = 'P' // client: register a prepared statement (name + SQL)
	MsgExecute     byte = 'E' // client: bind args + open the portal, fetch first batch
	MsgFetch       byte = 'F' // client: next batch from the open portal
	MsgClosePortal byte = 'C' // client: abandon the open portal
	MsgCloseStmt   byte = 'D' // client: deallocate a prepared statement
	MsgParseOK     byte = 'p' // server: statement registered; payload = parameter count
	MsgRowBatch    byte = 'w' // server: a batch of data rows in one frame
	MsgSuspended   byte = 's' // server: batch done, portal open — Fetch for more
	MsgCloseOK     byte = 'o' // server: portal/statement closed

	// Cluster management (protocol v4). Status is a cheap point-in-time probe
	// of a member's role, fencing epoch and replication position — the
	// coordinator's failure detector and permshell's \cluster both live on
	// it. Promote and Demote are coordinator→member role changes: Promote
	// fences the member at a new (higher) epoch and opens it for writes;
	// Demote fences it at the coordinator's epoch and points it at the new
	// primary as a follower. Both answer with MsgStatusOK on success so the
	// coordinator sees the post-transition state in one round trip. SubAck is
	// the one exception to the one-way replication stream: a follower sends
	// it upstream on the subscription connection after durably applying a
	// change batch, which is what primaries running with sync_replicas > 0
	// wait on before acknowledging writes.
	MsgStatus   byte = 'U' // client: probe node status
	MsgPromote  byte = 'R' // coordinator: raise epoch, exit read-only, serve writes
	MsgDemote   byte = 'M' // coordinator: adopt epoch, follow the new primary
	MsgSubAck   byte = 'A' // follower: durably applied through LSN (on the subscription conn)
	MsgStatusOK byte = 'u' // server: NodeStatus payload
)

// Error codes carried by Error frames, so clients can surface typed errors
// across the wire (database/sql callers match them with errors.Is).
const (
	// ErrCodeGeneric is an ordinary statement or protocol error.
	ErrCodeGeneric uint64 = 0
	// ErrCodeReadOnly reports a write rejected by a read-only replica.
	ErrCodeReadOnly uint64 = 1
	// ErrCodeLogTrimmed reports a Subscribe position older than the
	// primary's retained change log; the follower must re-bootstrap.
	ErrCodeLogTrimmed uint64 = 2
	// ErrCodeTimeout reports a query canceled by the server's per-query
	// timeout — including a cursor whose client fetched past the deadline,
	// so timeouts stay typed across Fetch boundaries.
	ErrCodeTimeout uint64 = 3
	// ErrCodeStaleEpoch reports a request carrying (or served under) a
	// fencing epoch older than the cluster's current one: a deposed
	// primary's subscription stream, a promote/demote that lost the race,
	// or a write acknowledged by a primary that has since been fenced. The
	// typed code is what turns split-brain into a visible, retryable error.
	ErrCodeStaleEpoch uint64 = 4
	// ErrCodeWriteConflict reports a COMMIT aborted by first-committer-wins
	// validation: a concurrent transaction changed a row this one also
	// wrote. The transaction is already rolled back server-side; the typed
	// code lets clients retry the whole transaction automatically.
	ErrCodeWriteConflict uint64 = 5
)

// Hello is the client's opening message.
type Hello struct {
	Version uint32
	Client  string
}

// HelloOK is the server's handshake acceptance. Epoch and Role (v4) expose
// the member's cluster position right in the handshake, so routers and
// multi-host drivers can classify a member without issuing a single query.
type HelloOK struct {
	Version uint32
	Server  string
	Epoch   uint64 // fencing epoch the member currently serves under
	Role    string // "primary" or "replica"
}

// RowDesc describes the columns of a result set, including which columns are
// provenance attributes (the prov_… columns SELECT PROVENANCE appends).
type RowDesc struct {
	Names  []string
	Kinds  []value.Kind
	IsProv []bool
}

// Complete finishes a statement: the command tag, whether the session plan
// cache served it, and the per-stage pipeline timings in nanoseconds. Epoch
// (v4) stamps the acknowledgment with the fencing epoch the statement ran
// under, so a router can detect a write acked by a since-deposed primary.
type Complete struct {
	Tag      string
	CacheHit bool
	Parse    int64
	Analyze  int64
	Rewrite  int64
	Plan     int64
	Execute  int64
	Epoch    uint64
}

// ServerError is an error reported by the remote server. Code carries the
// machine-readable classification (ErrCode…); consumers that need a typed
// error (the perm driver's read-only mapping) switch on it.
type ServerError struct {
	Message string
	Code    uint64
}

func (e *ServerError) Error() string { return "perm server: " + e.Message }

// AppendError encodes an Error frame payload: the message followed by the
// error code.
func AppendError(dst []byte, msg string, code uint64) []byte {
	dst = AppendString(dst, msg)
	return binary.AppendUvarint(dst, code)
}

// DecodeServerError parses an Error frame payload. For robustness against a
// bare-string payload (a refusal written before the handshake negotiated
// anything) a missing code decodes as ErrCodeGeneric.
func DecodeServerError(payload []byte) *ServerError {
	r := NewReader(payload)
	msg := r.String()
	if r.Err() != nil {
		return &ServerError{Message: string(payload)}
	}
	e := &ServerError{Message: msg}
	if r.Remaining() > 0 {
		e.Code = r.Uvarint()
	}
	return e
}

// Conn wraps a byte stream with buffered frame I/O. It is not safe for
// concurrent use; the protocol is strictly request/response.
type Conn struct {
	raw       io.Closer
	r         *bufio.Reader
	w         *bufio.Writer
	payload   []byte // reused frame read buffer
	readLimit int
}

// NewConn wraps a network connection (or any read-write-closer).
func NewConn(c net.Conn) *Conn {
	return &Conn{
		raw:       c,
		r:         bufio.NewReaderSize(c, 32<<10),
		w:         bufio.NewWriterSize(c, 32<<10),
		readLimit: MaxFrameSize,
	}
}

// SetReadLimit caps the frames this side will accept, below MaxFrameSize.
// The server uses it to bound what a client can make it allocate: everything
// a client legitimately sends (handshake, SQL text, backup request) is tiny,
// whereas the length prefix is attacker-controlled and ReadMessage allocates
// it before a single payload byte arrives.
func (c *Conn) SetReadLimit(n int) {
	if n > 0 && n <= MaxFrameSize {
		c.readLimit = n
	}
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.raw.Close() }

// WriteMessage writes one frame. The payload is not retained. Frames are
// buffered; call Flush when a logical response is complete.
func (c *Conn) WriteMessage(typ byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, len(payload))
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(payload)
	return err
}

// Flush pushes buffered frames to the peer.
func (c *Conn) Flush() error { return c.w.Flush() }

// ReadMessage reads one frame. The returned payload aliases an internal
// buffer valid only until the next ReadMessage call.
func (c *Conn) ReadMessage() (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > uint32(c.readLimit) {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte read limit", n, c.readLimit)
	}
	// Grow the reusable buffer on demand, but do not let one outlier frame
	// pin megabytes for the connection's lifetime: once the retained capacity
	// dwarfs the need, reallocate back down (never below shrinkThreshold, so
	// ordinary traffic cannot thrash between sizes).
	const shrinkThreshold = 64 << 10
	if cap(c.payload) < int(n) {
		c.payload = make([]byte, n)
	} else if cap(c.payload) > shrinkThreshold && int(n) < cap(c.payload)/8 {
		c.payload = make([]byte, max(int(n), shrinkThreshold))
	}
	buf := c.payload[:n]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// --- payload encoding ---------------------------------------------------------

// AppendString appends a varint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends a boolean byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendRow appends a column-count-prefixed tuple: value.AppendRow.
func AppendRow(dst []byte, row value.Row) []byte { return value.AppendRow(dst, row) }

// Reader decodes a frame payload sequentially. Decoding errors stick: after
// the first failure every subsequent read returns the zero value, and Err
// reports what went wrong, so message decoders can run unchecked and validate
// once at the end.
type Reader struct {
	buf []byte
	pos int
	err error
	// alloc makes the rows Row returns: one payload's rows share chunks.
	alloc value.RowAlloc
}

// NewReader wraps a payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many payload bytes are left to decode.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Done is a message decoder's last call: Err, or an error when payload bytes
// are left over, so a frame with bytes missing or added is refused whole.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.buf) {
		r.fail("payload: trailing bytes")
	}
	return r.err
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or corrupt %s at offset %d", what, r.pos)
	}
}

// Fail marks the reader corrupt from the outside: message decoders layered
// on this package (repl records) use it when a count or bound they validate
// themselves is impossible, so the payload is rejected as a whole rather
// than decoded misaligned.
func (r *Reader) Fail(what string) { r.fail(what) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.pos += n
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("byte")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// String reads a varint-length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// Value reads one kind-tagged SQL value (value.DecodeValue).
func (r *Reader) Value() value.Value {
	if r.err != nil {
		return value.Null
	}
	v, rest, err := value.DecodeValue(r.buf[r.pos:])
	if err != nil {
		r.fail("value")
		return value.Null
	}
	r.pos = len(r.buf) - len(rest)
	return v
}

// Row reads a column-count-prefixed tuple (value.DecodeRow) into a fresh row.
func (r *Reader) Row() value.Row { return r.RowFrom(&r.alloc) }

// RowFrom is Row with the row's memory from src.
func (r *Reader) RowFrom(src value.RowSource) value.Row {
	if r.err != nil {
		return nil
	}
	row, rest, err := value.DecodeRow(src, r.buf[r.pos:])
	if err != nil {
		r.fail("row")
		return nil
	}
	r.pos = len(r.buf) - len(rest)
	return row
}

// --- message encode/decode ----------------------------------------------------

// Encode appends the Hello payload.
func (m Hello) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	return AppendString(dst, m.Client)
}

// DecodeHello parses a Hello payload. It alone lets bytes follow its
// fields: a peer of any version must get as far as the refusal that names
// its version.
func DecodeHello(payload []byte) (Hello, error) {
	r := NewReader(payload)
	m := Hello{Version: uint32(r.Uvarint()), Client: r.String()}
	return m, r.Err()
}

// Encode appends the HelloOK payload.
func (m HelloOK) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	dst = AppendString(dst, m.Server)
	dst = binary.AppendUvarint(dst, m.Epoch)
	return AppendString(dst, m.Role)
}

// DecodeHelloOK parses a HelloOK payload.
func DecodeHelloOK(payload []byte) (HelloOK, error) {
	r := NewReader(payload)
	m := HelloOK{Version: uint32(r.Uvarint()), Server: r.String(), Epoch: r.Uvarint(), Role: r.String()}
	return m, r.Done()
}

// Encode appends the RowDesc payload.
func (m RowDesc) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Names)))
	for i, name := range m.Names {
		dst = AppendString(dst, name)
		dst = append(dst, byte(m.Kinds[i]))
		dst = AppendBool(dst, m.IsProv[i])
	}
	return dst
}

// DecodeRowDesc parses a RowDesc payload.
func DecodeRowDesc(payload []byte) (RowDesc, error) {
	r := NewReader(payload)
	n := r.Uvarint()
	// Each column costs at least 3 payload bytes (name length, kind, prov
	// flag), so bound the count before allocating the slices.
	if n > uint64(len(payload))/3 {
		return RowDesc{}, fmt.Errorf("wire: row description with impossible column count %d", n)
	}
	m := RowDesc{
		Names:  make([]string, n),
		Kinds:  make([]value.Kind, n),
		IsProv: make([]bool, n),
	}
	for i := 0; i < int(n); i++ {
		m.Names[i] = r.String()
		m.Kinds[i] = value.Kind(r.Byte())
		m.IsProv[i] = r.Bool()
	}
	return m, r.Done()
}

// Encode appends the Complete payload.
func (m Complete) Encode(dst []byte) []byte {
	dst = AppendString(dst, m.Tag)
	dst = AppendBool(dst, m.CacheHit)
	for _, d := range [5]int64{m.Parse, m.Analyze, m.Rewrite, m.Plan, m.Execute} {
		dst = binary.AppendVarint(dst, d)
	}
	return binary.AppendUvarint(dst, m.Epoch)
}

// DecodeComplete parses a Complete payload.
func DecodeComplete(payload []byte) (Complete, error) {
	r := NewReader(payload)
	m := Complete{Tag: r.String(), CacheHit: r.Bool()}
	m.Parse, m.Analyze, m.Rewrite, m.Plan, m.Execute =
		r.Varint(), r.Varint(), r.Varint(), r.Varint(), r.Varint()
	m.Epoch = r.Uvarint()
	return m, r.Done()
}

// Parse registers a prepared statement under Name on the server session.
type Parse struct {
	Name string
	SQL  string
}

// Encode appends the Parse payload.
func (m Parse) Encode(dst []byte) []byte {
	dst = AppendString(dst, m.Name)
	return AppendString(dst, m.SQL)
}

// DecodeParse parses a Parse payload.
func DecodeParse(payload []byte) (Parse, error) {
	r := NewReader(payload)
	m := Parse{Name: r.String(), SQL: r.String()}
	return m, r.Done()
}

// Execute binds Args to a statement and opens the connection's portal. With
// Name set, the statement was registered by an earlier Parse; with Name
// empty, SQL carries a one-shot statement (parse + bind + execute in one
// round trip — what ad-hoc parameterized queries use). FetchSize caps the
// rows returned before the portal suspends; 0 streams to completion.
type Execute struct {
	Name      string
	SQL       string
	Args      []value.Value
	FetchSize uint64
}

// Encode appends the Execute payload.
func (m Execute) Encode(dst []byte) []byte {
	dst = AppendString(dst, m.Name)
	dst = AppendString(dst, m.SQL)
	dst = binary.AppendUvarint(dst, uint64(len(m.Args)))
	for _, a := range m.Args {
		dst = value.AppendValue(dst, a)
	}
	return binary.AppendUvarint(dst, m.FetchSize)
}

// DecodeExecute parses an Execute payload.
func DecodeExecute(payload []byte) (Execute, error) {
	r := NewReader(payload)
	m := Execute{Name: r.String(), SQL: r.String()}
	n := r.Uvarint()
	// Each value costs at least one payload byte; reject impossible counts
	// before allocating.
	if r.Err() == nil && n > uint64(r.Remaining()) {
		r.Fail("argument count")
	}
	if r.Err() != nil {
		return Execute{}, r.Err()
	}
	if n > 0 {
		m.Args = make([]value.Value, n)
		for i := range m.Args {
			m.Args[i] = r.Value()
		}
	}
	m.FetchSize = r.Uvarint()
	return m, r.Done()
}

// AppendRowBatch encodes a RowBatch payload: a row count followed by the
// rows. The server builds batches incrementally with AppendRow instead; this
// helper exists for tests and simple clients.
func AppendRowBatch(dst []byte, rows []value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = AppendRow(dst, row)
	}
	return dst
}

// DecodeRowBatch parses a RowBatch payload. Row memory is freshly allocated
// (strings copy out of the frame buffer), so the rows outlive the next read.
func DecodeRowBatch(payload []byte) ([]value.Row, error) {
	return decodeRowBatch(payload, nil, nil)
}

// decodeRowBatch is the one row-batch decode loop: it appends the payload's
// rows to rows, their memory from src (nil: fresh rows, as DecodeRowBatch
// returns). Nothing is returned until the whole payload has decoded: a
// damaged batch yields an error and no rows.
func decodeRowBatch(payload []byte, src value.RowSource, rows []value.Row) ([]value.Row, error) {
	r := NewReader(payload)
	if src == nil {
		src = &r.alloc
	}
	n := r.Uvarint()
	// Each row costs at least one payload byte (its arity prefix).
	if r.Err() == nil && n > uint64(r.Remaining()) {
		r.Fail("row batch count")
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	rows = slices.Grow(rows, int(n))
	for i := uint64(0); i < n; i++ {
		rows = append(rows, r.RowFrom(src))
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rows, nil
}

// Subscribe turns the connection into a replication stream of the server's
// change feed past After, the follower's applied LSN. Force asks for a
// bootstrap snapshot regardless; Origin is the follower's history id and
// ResumeHash fingerprints its record at After (0 when its log does not
// reach back that far); Epoch is the newest fencing epoch it has seen, so a
// deposed primary refuses it.
type Subscribe struct {
	After      uint64
	Force      bool
	Origin     uint64
	ResumeHash uint64
	Epoch      uint64
}

// Encode appends the Subscribe payload.
func (m Subscribe) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.After)
	dst = AppendBool(dst, m.Force)
	dst = binary.AppendUvarint(dst, m.Origin)
	dst = binary.AppendUvarint(dst, m.ResumeHash)
	return binary.AppendUvarint(dst, m.Epoch)
}

// DecodeSubscribe parses a Subscribe payload.
func DecodeSubscribe(payload []byte) (Subscribe, error) {
	r := NewReader(payload)
	m := Subscribe{After: r.Uvarint(), Force: r.Bool(), Origin: r.Uvarint(), ResumeHash: r.Uvarint(), Epoch: r.Uvarint()}
	return m, r.Done()
}

// SubLive starts the live change feed at LSN, after a bootstrap snapshot or
// on resume. Heartbeat is the primary's heartbeat interval, so the follower
// can size its liveness deadline to it; Epoch is the fencing epoch the
// stream is served under.
type SubLive struct {
	LSN       uint64
	Heartbeat time.Duration
	Epoch     uint64
}

// Encode appends the SubLive payload.
func (m SubLive) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.LSN)
	dst = binary.AppendUvarint(dst, uint64(m.Heartbeat))
	return binary.AppendUvarint(dst, m.Epoch)
}

// DecodeSubLive parses a SubLive payload.
func DecodeSubLive(payload []byte) (SubLive, error) {
	r := NewReader(payload)
	m := SubLive{LSN: r.Uvarint(), Heartbeat: time.Duration(r.Uvarint()), Epoch: r.Uvarint()}
	return m, r.Done()
}

// Heartbeat is sent while the change log is idle: the primary's last LSN
// and the fencing epoch it serves under.
type Heartbeat struct {
	LSN   uint64
	Epoch uint64
}

// Encode appends the Heartbeat payload.
func (m Heartbeat) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.LSN)
	return binary.AppendUvarint(dst, m.Epoch)
}

// DecodeHeartbeat parses a Heartbeat payload.
func DecodeHeartbeat(payload []byte) (Heartbeat, error) {
	r := NewReader(payload)
	m := Heartbeat{LSN: r.Uvarint(), Epoch: r.Uvarint()}
	return m, r.Done()
}
