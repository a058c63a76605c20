package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/value"
	"perm/internal/wal"
	"perm/internal/wire"
	forumdata "perm/internal/workload"

	_ "perm/driver"
)

// runner executes ops on one of the three paths a statement can take:
// embedded session, wire.Client, database/sql. run reports the rows
// delivered (reads) or affected (writes); when sink is non-nil every result
// row is appended to it, for the checks.
type runner interface {
	run(o *op, sink *[]value.Row) (int, error)
	close() error
}

// intValues converts an op's arguments into dst, which it reuses.
func intValues(dst []value.Value, args []int64) []value.Value {
	dst = dst[:0]
	for _, a := range args {
		dst = append(dst, value.NewInt(a))
	}
	return dst
}

func tagCount(tag string) int {
	n, _ := strconv.Atoi(tag[strings.LastIndexByte(tag, ' ')+1:])
	return n
}

// sessRunner is the embedded path: Session.Execute for statements without
// parameters, a prepared statement otherwise.
type sessRunner struct {
	s    *engine.Session
	prep map[*stmt]*engine.Prepared
	args []value.Value
}

func newSessRunner(s *engine.Session) *sessRunner {
	return &sessRunner{s: s, prep: map[*stmt]*engine.Prepared{}}
}

func (r *sessRunner) exec(o *op) (*engine.Result, error) {
	if len(o.args) == 0 {
		return r.s.Execute(o.st.sql)
	}
	p := r.prep[o.st]
	if p == nil {
		var err error
		if p, err = r.s.Prepare(o.st.sql); err != nil {
			return nil, err
		}
		r.prep[o.st] = p
	}
	r.args = intValues(r.args, o.args)
	return p.Exec(r.args...)
}

func (r *sessRunner) run(o *op, sink *[]value.Row) (int, error) {
	res, err := r.exec(o)
	if err != nil {
		return 0, err
	}
	if o.st.write {
		return tagCount(res.Tag), nil
	}
	if sink != nil {
		*sink = append(*sink, res.Rows...)
	}
	return len(res.Rows), nil
}

func (r *sessRunner) close() error { return r.s.Close() }

// wireRunner is the wire.Client path: server-side prepared statements and a
// cursor with the driver's fetch size.
type wireRunner struct {
	c     *wire.Client
	names map[*stmt]string
	args  []value.Value
}

const fetchSize = 512

func newWireRunner(addr string) (*wireRunner, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &wireRunner{c: c, names: map[*stmt]string{}}, nil
}

func (r *wireRunner) run(o *op, sink *[]value.Row) (int, error) {
	name := r.names[o.st]
	if name == "" {
		name = "p" + strconv.Itoa(len(r.names))
		if _, err := r.c.Prepare(name, o.st.sql); err != nil {
			return 0, err
		}
		r.names[o.st] = name
	}
	r.args = intValues(r.args, o.args)
	if o.st.write {
		done, err := r.c.ExecuteDrain(name, "", r.args)
		return tagCount(done.Tag), err
	}
	cur, err := r.c.Execute(name, "", r.args, fetchSize)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		row, err := cur.Next()
		if err != nil {
			cur.Close()
			return n, err
		}
		if row == nil {
			return n, cur.Close()
		}
		n++
		if sink != nil {
			*sink = append(*sink, row)
		}
	}
}

func (r *wireRunner) close() error { return r.c.Close() }

// sqlRunner is the database/sql path: one pinned *sql.Conn with prepared
// statements, rows scanned into reused destinations as a caller would.
type sqlRunner struct {
	conn  *sql.Conn
	stmts map[*stmt]*sqlStmt
	args  []any
}

type sqlStmt struct {
	st   *sql.Stmt
	dest []any // *any per column, sized on first use
	vals []any
}

func newSQLRunner(db *sql.DB) (*sqlRunner, error) {
	conn, err := db.Conn(context.Background())
	if err != nil {
		return nil, err
	}
	return &sqlRunner{conn: conn, stmts: map[*stmt]*sqlStmt{}}, nil
}

func (r *sqlRunner) run(o *op, sink *[]value.Row) (int, error) {
	ctx := context.Background()
	ps := r.stmts[o.st]
	if ps == nil {
		st, err := r.conn.PrepareContext(ctx, o.st.sql)
		if err != nil {
			return 0, err
		}
		ps = &sqlStmt{st: st}
		r.stmts[o.st] = ps
	}
	r.args = r.args[:0]
	for _, a := range o.args {
		r.args = append(r.args, a)
	}
	if o.st.write {
		res, err := ps.st.ExecContext(ctx, r.args...)
		if err != nil {
			return 0, err
		}
		n, err := res.RowsAffected()
		return int(n), err
	}
	rows, err := ps.st.QueryContext(ctx, r.args...)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	if ps.dest == nil {
		cols, err := rows.Columns()
		if err != nil {
			return 0, err
		}
		ps.vals = make([]any, len(cols))
		ps.dest = make([]any, len(cols))
		for i := range ps.vals {
			ps.dest[i] = &ps.vals[i]
		}
	}
	n := 0
	for rows.Next() {
		if err := rows.Scan(ps.dest...); err != nil {
			return n, err
		}
		n++
		if sink != nil {
			row := make(value.Row, len(ps.vals))
			for i, v := range ps.vals {
				row[i] = fromDriverValue(v)
			}
			*sink = append(*sink, row)
		}
	}
	return n, rows.Err()
}

// fromDriverValue inverts the driver's value mapping.
func fromDriverValue(v any) value.Value {
	switch x := v.(type) {
	case bool:
		return value.NewBool(x)
	case int64:
		return value.NewInt(x)
	case float64:
		return value.NewFloat(x)
	case string:
		return value.NewString(x)
	case []byte:
		return value.NewString(string(x))
	}
	return value.Value{}
}

func (r *sqlRunner) close() error {
	var err error
	for _, ps := range r.stmts {
		err = errors.Join(err, ps.st.Close())
	}
	return errors.Join(err, r.conn.Close())
}

// client is one closed-loop caller: it runs the ops of its next cycle one
// after the other and only then asks for the cycle after.
type client struct {
	run  runner
	next func() []op
}

// env is one set-up of a workload: the database, its clients, and for
// wire_oltp the in-process server, WAL manager and vacuum.
type env struct {
	w    *workload
	seed int64
	dir  string // this env's private directory: spill files, WAL
	// scale is the window's length over the 25 s of BENCHMARK.json: the
	// probes of the traced run size their fixed work by it, so that the
	// smoke test's short windows come with short probes.
	scale   float64
	db      *engine.DB
	clients []*client
	// fixed is the statement list of the embedded workloads, shared by
	// every cycle; the checks fill in its expected row counts.
	fixed []op

	// wire_oltp only.
	srv        *loopbackServer
	mgr        *wal.Manager
	stopVacuum func()
	sqlDB      *sql.DB
	gens       []*oltpGen
	initBal    int64
}

// pinSession applies the pinned conditions of the issue to a session:
// serial execution (the engine's default degree is host-dependent), the
// workload's plan-cache and work_mem settings, and the env's spill dir.
func (e *env) pinSession(s *engine.Session) error {
	s.SetParallelism(1)
	s.SetTempDir(e.dir)
	if e.w.workMem > 0 {
		s.SetWorkMem(e.w.workMem)
	}
	if !e.w.planCache {
		if _, err := s.Execute("SET plan_cache = 'off'"); err != nil {
			return err
		}
	}
	return nil
}

// refSession opens a session with default settings (serial, plan cache on,
// 64 MiB work_mem) on the env's database: the reference the checks compare
// the workload's own session against, and what the trace probes run on.
func (e *env) refSession() *engine.Session {
	s := e.db.NewSession()
	s.SetParallelism(1)
	s.SetTempDir(e.dir)
	return s
}

// setup builds a workload's environment from the seed, inside cfg.tmp.
func setup(w *workload, cfg config) (e *env, err error) {
	dir, err := os.MkdirTemp(cfg.tmp, "permperf-")
	if err != nil {
		return nil, err
	}
	e = &env{w: w, seed: cfg.seed, dir: dir, scale: float64(cfg.window) / float64(25*time.Second)}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
			e = nil
		}
	}()
	if w.dataset == "oltp" {
		return e, e.setupOLTP()
	}
	e.db = engine.NewDB()
	if w.dataset == "paper" {
		err = forumdata.LoadPaperExample(e.db)
	} else {
		fc := forumdata.DefaultForum(cfg.forum)
		fc.Seed = cfg.seed
		err = forumdata.LoadForum(e.db, fc)
	}
	if err != nil {
		return e, err
	}
	for _, s := range w.stmts {
		e.fixed = append(e.fixed, op{st: s, want: -1})
	}
	for i := 0; i < w.clients; i++ {
		s := e.db.NewSession()
		if err := e.pinSession(s); err != nil {
			return e, err
		}
		e.clients = append(e.clients, &client{run: newSessRunner(s), next: func() []op { return e.fixed }})
	}
	return e, nil
}

// setupOLTP opens a WAL store in the env's directory, loads acct, starts the
// server on a loopback port and connects the database/sql clients.
func (e *env) setupOLTP() error {
	store, mgr, _, err := wal.Open(filepath.Join(e.dir, "data"), wal.Options{Sync: "always"})
	if err != nil {
		return err
	}
	e.mgr = mgr
	e.db = engine.NewDBFrom(store)
	e.db.SetWALController(server.WALController(mgr))
	if _, err := e.db.NewSession().ExecuteScript(`
		CREATE TABLE acct (id int, owner text, bal int, grp int);
		CREATE TABLE ev (id int, acct int, amt int);`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	rows := make([]value.Row, acctRows)
	for i := range rows {
		bal := rng.Int63n(10000)
		e.initBal += bal
		rows[i] = value.Row{value.NewInt(int64(i + 1)), value.NewString(fmt.Sprintf("owner%d", rng.Intn(500))),
			value.NewInt(bal), value.NewInt(int64(i % acctGroups))}
	}
	if _, err := store.Table("acct").InsertBatch(rows); err != nil {
		return err
	}
	if err := store.Analyze(""); err != nil {
		return err
	}
	e.stopVacuum = e.db.StartVacuum(time.Second)

	if e.srv, err = e.startServer(); err != nil {
		return err
	}
	if e.sqlDB, err = sql.Open("perm", "tcp://"+e.srv.addr); err != nil {
		return err
	}
	for i := 0; i < e.w.clients; i++ {
		r, err := newSQLRunner(e.sqlDB)
		if err != nil {
			return err
		}
		g := newOLTPGen(e.w.stmts, e.seed, i, e.w.clients)
		e.gens = append(e.gens, g)
		e.clients = append(e.clients, &client{run: r, next: g.next})
	}
	return nil
}

// loopbackServer is an in-process server on a loopback port of the kernel's
// choosing, serving the env's database with the pinned session settings.
type loopbackServer struct {
	srv    *server.Server
	addr   string
	served chan error
}

func (e *env) startServer() (*loopbackServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopbackServer{srv: server.New(e.db, server.Config{Parallelism: 1, TempDir: e.dir}),
		addr: l.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(l) }()
	return s, nil
}

// shutdown drains the server, waits for Serve to return and reports
// connections that survive it.
func (s *loopbackServer) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	if n := s.srv.ActiveConns(); n != 0 {
		err = errors.Join(err, fmt.Errorf("server still has %d connections after shutdown", n))
	}
	return err
}

// close stops the environment and removes its directory.
func (e *env) close() error { return errors.Join(e.stop(), e.remove()) }

// stop shuts the environment down in the order the issue fixes: clients,
// server shutdown, WAL manager, vacuum. It reports server connections that
// survive the shutdown. The directory stays, so that wire_oltp can recover
// from it once more before remove.
func (e *env) stop() error {
	var errs []error
	for _, c := range e.clients {
		errs = append(errs, c.run.close())
	}
	e.clients = nil
	if e.sqlDB != nil {
		errs = append(errs, e.sqlDB.Close())
		e.sqlDB = nil
	}
	if e.srv != nil {
		errs = append(errs, e.srv.shutdown())
		e.srv = nil
	}
	if e.mgr != nil {
		errs = append(errs, e.mgr.Close())
		e.mgr = nil
	}
	if e.stopVacuum != nil {
		e.stopVacuum()
		e.stopVacuum = nil
	}
	return errors.Join(errs...)
}

// remove deletes the env's directory, and reports spill files that outlived
// their statements.
func (e *env) remove() error {
	return errors.Join(leftBehind(e.dir, "data"), os.RemoveAll(e.dir))
}

// leftBehind reports files in dir other than the named entry.
func leftBehind(dir, except string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, ent := range ents {
		if ent.Name() != except {
			names = append(names, ent.Name())
		}
	}
	if len(names) > 0 {
		return fmt.Errorf("spill dir %s not empty: %v", dir, names)
	}
	return nil
}
