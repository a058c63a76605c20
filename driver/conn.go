package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"perm/internal/cluster"
	"perm/internal/engine"
	"perm/internal/value"
	"perm/internal/wire"
)

// connector dials (or embeds) one database; the sql.DB pool calls Connect
// for every pooled connection.
type connector struct {
	drv      *Driver
	addr     string     // remote mode when non-empty
	hosts    []string   // perm:// multi-host mode when non-empty
	readPref string     // perm:// role preference: "" ("primary"), "replica", "any"
	mem      *engine.DB // in-process mode otherwise
	readOnly bool       // `?readonly` DSN option: reject writes client-side
}

// Connect implements driver.Connector. Dialing and the wire handshake both
// observe ctx, so a short query deadline also bounds establishing the pooled
// connection it needs.
func (c *connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(c.hosts) > 0 {
		return c.connectMulti(ctx)
	}
	if c.addr != "" {
		client, err := wire.DialContext(ctx, c.addr)
		if err != nil {
			return nil, err
		}
		return &conn{remote: client, readOnly: c.readOnly}, nil
	}
	return &conn{local: c.mem.NewSession(), readOnly: c.readOnly}, nil
}

// connectMulti dials a perm:// member set: each candidate's handshake
// reports its role and fencing epoch, so the connector classifies members
// without issuing a single query. readpref=primary (the default) demands the
// writable primary; readpref=replica prefers a replica but falls back to the
// primary (a degraded cluster still answers reads); readpref=any takes the
// first member that answers. Hosts are tried in random order so a pool's
// replica connections spread across the member set.
func (c *connector) connectMulti(ctx context.Context) (sqldriver.Conn, error) {
	hosts := c.hosts
	if len(hosts) > 1 {
		hosts = append([]string(nil), hosts...)
		rand.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	}
	var fallback *wire.Client
	var attempts []string
	for _, h := range hosts {
		client, err := wire.DialContext(ctx, h)
		if err != nil {
			attempts = append(attempts, fmt.Sprintf("%s: %v", h, err))
			continue
		}
		role := client.Server().Role
		switch c.readPref {
		case "any":
			return &conn{remote: client, readOnly: c.readOnly}, nil
		case "replica":
			if role == "replica" {
				return &conn{remote: client, readOnly: c.readOnly}, nil
			}
			// Remember one non-replica as the fallback; keep probing for a
			// real replica.
			if fallback == nil {
				fallback = client
			} else {
				client.Close()
			}
			attempts = append(attempts, h+": role "+role)
		default: // "primary"
			// Pre-cluster servers report no role; treat them as writable
			// rather than unusable.
			if role != "replica" {
				return &conn{remote: client, readOnly: c.readOnly}, nil
			}
			client.Close()
			attempts = append(attempts, h+": role replica")
		}
	}
	if fallback != nil {
		return &conn{remote: fallback, readOnly: c.readOnly}, nil
	}
	pref := c.readPref
	if pref == "" {
		pref = "primary"
	}
	return nil, fmt.Errorf("perm driver: no member matched readpref=%s (%s)",
		pref, strings.Join(attempts, "; "))
}

func (c *connector) connect() (sqldriver.Conn, error) {
	return c.Connect(context.Background())
}

// Driver implements driver.Connector.
func (c *connector) Driver() sqldriver.Driver { return c.drv }

// conn is one pooled connection: a wire client (remote) or an engine session
// (in-process). Exactly one of the two is set.
type conn struct {
	remote   *wire.Client
	local    *engine.Session
	readOnly bool
	// stmtSeq names this connection's server-side prepared statements.
	stmtSeq int
}

var _ sqldriver.Conn = (*conn)(nil)
var _ sqldriver.ConnPrepareContext = (*conn)(nil)
var _ sqldriver.QueryerContext = (*conn)(nil)
var _ sqldriver.ExecerContext = (*conn)(nil)
var _ sqldriver.Pinger = (*conn)(nil)
var _ sqldriver.Validator = (*conn)(nil)
var _ sqldriver.ConnBeginTx = (*conn)(nil)

// defaultFetchSize is the cursor batch the driver requests per round trip
// when streaming a query result: large enough to amortize the request
// latency, small enough that client and server memory stay bounded on huge
// provenance results.
const defaultFetchSize = 512

// Prepare implements driver.Conn: statements prepare server-side (an engine
// prepared statement for embedded connections, a wire Parse for remote
// ones), and `?` placeholders bind as typed parameters at execution —
// argument values never travel as interpolated SQL text.
func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *conn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.remote != nil {
		c.stmtSeq++
		name := "s" + strconv.Itoa(c.stmtSeq)
		stop := c.watchContext(ctx)
		n, err := c.remote.Prepare(name, query)
		stop()
		if err != nil {
			return nil, ctxOr(ctx, remoteErr(err))
		}
		return &stmt{c: c, query: query, name: name, numInput: n}, nil
	}
	prep, err := c.local.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, query: query, prepared: prep, numInput: prep.NumParams()}, nil
}

// Close implements driver.Conn.
func (c *conn) Close() error {
	if c.remote != nil {
		return c.remote.Close()
	}
	return c.local.Close()
}

// Begin implements driver.Conn.
func (c *conn) Begin() (sqldriver.Tx, error) {
	return c.BeginTx(context.Background(), sqldriver.TxOptions{})
}

// BeginTx implements driver.ConnBeginTx: BEGIN opens a snapshot-isolation
// transaction on this connection's session; Commit/Rollback send COMMIT and
// ROLLBACK through the same path as any statement. Snapshot isolation covers
// every isolation level up to repeatable read (each is weaker); SERIALIZABLE
// would over-promise — first-committer-wins admits write skew — so it is
// refused rather than silently downgraded.
func (c *conn) BeginTx(ctx context.Context, opts sqldriver.TxOptions) (sqldriver.Tx, error) {
	switch sql.IsolationLevel(opts.Isolation) {
	case sql.LevelDefault, sql.LevelReadUncommitted, sql.LevelReadCommitted,
		sql.LevelRepeatableRead, sql.LevelSnapshot:
	default:
		return nil, fmt.Errorf("perm driver: isolation level %s is not supported (snapshot isolation is the strongest offered)",
			sql.IsolationLevel(opts.Isolation))
	}
	if _, err := c.exec(ctx, "BEGIN", nil, nil); err != nil {
		return nil, err
	}
	return &tx{c: c}, nil
}

// tx finishes an open transaction. database/sql serializes it against the
// connection's statements, exactly like the engine's session contract wants.
type tx struct{ c *conn }

func (t *tx) Commit() error {
	_, err := t.c.exec(context.Background(), "COMMIT", nil, nil)
	return err
}

func (t *tx) Rollback() error {
	_, err := t.c.exec(context.Background(), "ROLLBACK", nil, nil)
	return err
}

// IsValid implements driver.Validator, so the pool retires connections whose
// wire protocol state broke.
func (c *conn) IsValid() bool {
	return c.remote == nil || c.remote.Broken() == nil
}

// Ping implements driver.Pinger.
func (c *conn) Ping(ctx context.Context) error {
	rows, err := c.QueryContext(ctx, "SELECT 1", nil)
	if err != nil {
		return err
	}
	return rows.Close()
}

// QueryContext implements driver.QueryerContext: the statement travels as
// one Execute with its `?` arguments (if any) as typed parameters — parse +
// bind + execute in one round trip, never interpolated SQL text — and
// results stream: a cursor with batched fetches remotely, the live executor
// iterator tree embedded.
func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	return c.query(ctx, query, nil, args)
}

// ExecContext implements driver.ExecerContext; arguments bind server-side
// exactly as in QueryContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	return c.exec(ctx, query, nil, args)
}

// bind runs the checks every statement passes before it is sent and
// converts its arguments. st is the prepared statement being run, nil for a
// statement run by text.
func (c *conn) bind(ctx context.Context, sqlText string, st *stmt, args []sqldriver.NamedValue) ([]value.Value, error) {
	if st == nil {
		if err := c.bindCheck(sqlText, args); err != nil {
			return nil, err
		}
	}
	if err := c.checkReadOnly(sqlText); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return toEngineValues(args)
}

// openLocal opens a statement on the embedded session.
func (c *conn) openLocal(sqlText string, st *stmt, vals []value.Value) (*engine.Rows, error) {
	if st != nil {
		return st.prepared.Query(vals...)
	}
	return c.local.Query(sqlText, vals...)
}

// query opens a statement's result stream. Cancellation stays armed for the
// whole stream; rows.Close disarms it (database/sql always calls it).
func (c *conn) query(ctx context.Context, sqlText string, st *stmt, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := c.bind(ctx, sqlText, st, args)
	if err != nil {
		return nil, err
	}
	r := &rows{ctx: ctx, disarm: c.watchContext(ctx)}
	if c.remote != nil {
		var cur *wire.Cursor
		if cur, err = c.remote.Execute(st.wireName(), sqlText, vals, defaultFetchSize); err == nil {
			r.src, r.names, r.kinds = cur, cur.Desc.Names, cur.Desc.Kinds
		}
	} else {
		var er *engine.Rows
		if er, err = c.openLocal(sqlText, st, vals); err == nil {
			r.src, r.names, r.kinds = er, er.Columns, make([]value.Kind, len(er.Columns))
			for i := 0; i < len(r.kinds) && i < len(er.Schema); i++ {
				r.kinds[i] = er.Schema[i].Type
			}
		}
	}
	if err != nil {
		r.disarm()
		return nil, ctxOr(ctx, remoteErr(err))
	}
	return r, nil
}

// exec runs a statement to completion and reports its command tag.
func (c *conn) exec(ctx context.Context, sqlText string, st *stmt, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	vals, err := c.bind(ctx, sqlText, st, args)
	if err != nil {
		return nil, err
	}
	disarm := c.watchContext(ctx)
	defer disarm()
	var tag string
	if c.remote != nil {
		var done wire.Complete
		done, err = c.remote.ExecuteDrain(st.wireName(), sqlText, vals)
		tag = done.Tag
	} else {
		var er *engine.Rows
		if er, err = c.openLocal(sqlText, st, vals); err == nil {
			var res *engine.Result
			if res, err = er.DrainResult(); err == nil {
				tag = res.Tag
			}
		}
	}
	if err != nil {
		return nil, ctxOr(ctx, remoteErr(err))
	}
	return result{tag: tag}, nil
}

// bindCheck verifies the argument count against the driver's placeholder
// scanner before anything hits the wire — the server re-checks
// authoritatively with its parser; the differential and fuzz suites pin the
// two scanners to agree.
func (c *conn) bindCheck(query string, args []sqldriver.NamedValue) error {
	if n := countPlaceholders(query); n != len(args) {
		return fmt.Errorf("perm driver: %d arguments for %d placeholders", len(args), n)
	}
	return nil
}

// watchContext arms context cancellation for one request and returns the
// func that disarms it, to be called exactly once. Embedded, ctx's Done
// channel becomes the engine interrupt. Remote, a watcher Aborts the wire
// client if ctx ends while it is blocked on the server (the connection is
// sacrificed — the wire protocol has no cancel message — and the pool
// retires it through IsValid); wire.WatchCancel joins the watcher goroutine,
// after which the deadline is cleared so a fired (or too-late) Abort cannot
// bleed into the connection's next request. An abort that already broke this
// request keeps its effect — the failed read marked the client Broken before
// the disarm runs.
func (c *conn) watchContext(ctx context.Context) func() {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	if c.remote == nil {
		c.local.SetInterrupt(done)
		return func() { c.local.SetInterrupt(nil) }
	}
	stop := wire.WatchCancel(ctx, c.remote.Abort)
	return func() {
		stop()
		c.remote.ResetDeadline()
	}
}

// ctxOr prefers the context's error over the transport error it caused.
func ctxOr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// remoteErr maps typed wire error codes back onto the driver's sentinel
// errors, so errors.Is(err, ErrReadOnly) and errors.Is(err, ErrStaleEpoch)
// work identically for remote and embedded connections.
func remoteErr(err error) error {
	var serr *wire.ServerError
	if errors.As(err, &serr) {
		switch serr.Code {
		case wire.ErrCodeReadOnly:
			return fmt.Errorf("%w (%s)", ErrReadOnly, serr.Message)
		case wire.ErrCodeStaleEpoch:
			return fmt.Errorf("%w (%s)", ErrStaleEpoch, serr.Message)
		case wire.ErrCodeWriteConflict:
			return fmt.Errorf("%w (%s)", ErrWriteConflict, serr.Message)
		}
	}
	return err
}

// checkReadOnly enforces the `?readonly` DSN option client-side: write
// statements fail with ErrReadOnly before anything is sent.
func (c *conn) checkReadOnly(sqlText string) error {
	if !c.readOnly {
		return nil
	}
	switch firstKeyword(sqlText) {
	case "select", "values", "explain", "show", "set", "(", "":
		// Reads and session-local statements. SET stays allowed: session
		// settings (contribution semantics, rewrite strategies) shape how
		// reads are answered and mutate nothing.
		return nil
	case "begin", "start", "commit", "end", "rollback", "abort":
		// Transaction control is allowed: a read-only snapshot transaction is
		// perfectly useful on a replica, and any write inside it is rejected
		// statement by statement anyway.
		return nil
	}
	return fmt.Errorf("%w (readonly connection)", ErrReadOnly)
}

// firstKeyword returns the statement's leading keyword, lowercased, skipping
// whitespace, comments and empty statements. The implementation lives in
// internal/cluster (the routing proxy classifies statements with the same
// scanner, and the two must never disagree on what counts as a read).
func firstKeyword(s string) string { return cluster.FirstKeyword(s) }

// --- statements ----------------------------------------------------------------

// stmt is a prepared statement: a server-side named statement on remote
// connections (name set), an engine prepared statement embedded (prepared
// set). Execution always binds arguments as typed parameters.
type stmt struct {
	c        *conn
	query    string
	numInput int
	name     string           // remote: wire statement name
	prepared *engine.Prepared // embedded: engine prepared statement
	closed   bool
}

// Close deallocates the server-side statement.
func (s *stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.c.remote != nil && s.c.remote.Broken() == nil {
		if err := s.c.remote.CloseStmt(s.name); err != nil {
			return remoteErr(err)
		}
	}
	return nil
}

func (s *stmt) NumInput() int { return s.numInput }
func (s *stmt) namedValues(args []sqldriver.Value) []sqldriver.NamedValue {
	out := make([]sqldriver.NamedValue, len(args))
	for i, a := range args {
		out[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), s.namedValues(args))
}

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), s.namedValues(args))
}

// wireName is the name an Execute carries: empty (an inline statement) when
// no statement was prepared.
func (s *stmt) wireName() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ExecContext implements driver.StmtExecContext, so prepared statements get
// the same cancellation behavior as conn-level Exec.
func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	return s.c.exec(ctx, s.query, s, args)
}

// QueryContext implements driver.StmtQueryContext.
func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	return s.c.query(ctx, s.query, s, args)
}

// --- results -------------------------------------------------------------------

// result derives RowsAffected from the command tag ("INSERT 2", "DELETE 1").
type result struct{ tag string }

func (result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("perm driver: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) {
	fields := strings.Fields(r.tag)
	if len(fields) == 0 {
		return 0, nil
	}
	n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		return 0, nil // DDL tags ("CREATE TABLE") affect no rows
	}
	return n, nil
}

// --- rows ----------------------------------------------------------------------

// rows streams a result one row per Next, so neither side materializes it:
// src is a wire cursor (rows arrive in batches, fetched on demand) or the
// embedded engine's live iterator tree. Cancellation stays armed until Close.
type rows struct {
	src interface {
		Next() (value.Row, error)
		Close() error
	}
	names  []string
	kinds  []value.Kind
	ctx    context.Context
	disarm func()
}

func (r *rows) Columns() []string { return r.names }

func (r *rows) Close() error {
	err := r.src.Close()
	if r.disarm != nil {
		r.disarm()
		r.disarm = nil
	}
	if err != nil {
		return ctxOr(r.ctx, remoteErr(err))
	}
	return nil
}

func (r *rows) Next(dest []sqldriver.Value) error {
	row, err := r.src.Next()
	if err != nil {
		return ctxOr(r.ctx, remoteErr(err))
	}
	if row == nil {
		return io.EOF
	}
	for i := range dest {
		if i < len(row) {
			dest[i] = toDriverValue(row[i])
		} else {
			dest[i] = nil
		}
	}
	return nil
}

// ColumnTypeDatabaseTypeName reports the engine type name ("INTEGER",
// "TEXT", …) for database/sql's ColumnTypes.
func (r *rows) ColumnTypeDatabaseTypeName(index int) string {
	return typeNameOf(r.kinds[index])
}

func typeNameOf(k value.Kind) string {
	switch k {
	case value.KindBool:
		return "BOOLEAN"
	case value.KindInt:
		return "INTEGER"
	case value.KindFloat:
		return "FLOAT"
	case value.KindString:
		return "TEXT"
	}
	return ""
}

// toEngineValues converts bound database/sql arguments into engine values —
// the typed-bind analog of the literal renderer: same supported types, same
// text forms for []byte and time.Time, but no SQL-text round trip.
func toEngineValues(args []sqldriver.NamedValue) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		v, err := toEngineValue(a.Value)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func toEngineValue(v sqldriver.Value) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.NewBool(x), nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		// The engine's value domain has no non-finite floats (comparisons,
		// keys and literals all assume finiteness), so binds reject them
		// exactly as the literal renderer always has.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return value.Value{}, fmt.Errorf("perm driver: cannot bind non-finite float %v", x)
		}
		return value.NewFloat(x), nil
	case string:
		return value.NewString(x), nil
	case []byte:
		if x == nil {
			return value.Null, nil // database/sql convention: nil []byte is NULL
		}
		return value.NewString(string(x)), nil
	case time.Time:
		return value.NewString(x.Format(time.RFC3339Nano)), nil
	}
	return value.Value{}, fmt.Errorf("perm driver: unsupported argument type %T", v)
}

func toDriverValue(v value.Value) sqldriver.Value {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		return v.Bool()
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	}
	return nil
}

// --- placeholders --------------------------------------------------------------

// placeholderPositions returns the byte offsets of `?` markers that are
// outside single-quoted string literals, double-quoted identifiers, and
// `--` / `/* */` comments — the lexical contexts of the SQL dialect in
// which a ? is not a placeholder.
func placeholderPositions(query string) []int {
	var pos []int
	for i := 0; i < len(query); i++ {
		switch query[i] {
		case '\'':
			i = skipQuoted(query, i, '\'')
		case '"':
			i = skipQuoted(query, i, '"')
		case '-':
			if i+1 < len(query) && query[i+1] == '-' {
				for i < len(query) && query[i] != '\n' {
					i++
				}
			}
		case '/':
			if i+1 < len(query) && query[i+1] == '*' {
				// Block comments nest, matching the SQL lexer.
				depth := 1
				i += 2
				for i < len(query) && depth > 0 {
					switch {
					case i+1 < len(query) && query[i] == '/' && query[i+1] == '*':
						depth++
						i += 2
					case i+1 < len(query) && query[i] == '*' && query[i+1] == '/':
						depth--
						i += 2
					default:
						i++
					}
				}
				i-- // outer loop increments past the comment's last byte
			}
		case '?':
			pos = append(pos, i)
		}
	}
	return pos
}

// skipQuoted returns the index of the closing quote of the quoted region
// starting at start (a doubled quote escapes itself), or the end of the
// string when unterminated.
func skipQuoted(s string, start int, q byte) int {
	for i := start + 1; i < len(s); i++ {
		if s[i] == q {
			if i+1 < len(s) && s[i+1] == q {
				i++ // escaped quote, stay inside
				continue
			}
			return i
		}
	}
	return len(s)
}

// countPlaceholders reports how many `?` placeholders a statement binds.
// The count is the driver's fast pre-flight check (and the fuzz target
// pinning this scanner to the engine lexer); the server's parser is the
// authority at execution time.
func countPlaceholders(query string) int { return len(placeholderPositions(query)) }
