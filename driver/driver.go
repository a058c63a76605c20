// Package driver registers a database/sql driver named "perm", so any Go
// program can talk to a Perm provenance database through the standard
// library's connection pool:
//
//	import (
//		"database/sql"
//
//		_ "perm/driver"
//	)
//
//	db, err := sql.Open("perm", "tcp://127.0.0.1:5433")
//	rows, err := db.Query(`SELECT PROVENANCE text FROM messages`)
//
// Provenance is plain relational data (the thesis of Glavic & Alonso, SIGMOD
// 2009), so it needs no special client support: SELECT PROVENANCE results
// come back as ordinary rows whose extra prov_<schema>_<relation>_<attr>
// columns scan like any other column.
//
// # Data source names
//
//	tcp://host:port — connect to a cmd/permserver instance over the wire
//	                  protocol; each pooled connection is its own server
//	                  session (settings, plan cache).
//	host:port       — shorthand for tcp://.
//	mem://          — an in-process private database: every sql.DB opened
//	                  with this DSN owns a fresh empty engine; its pooled
//	                  connections share that engine as concurrent sessions.
//	mem://name      — an in-process database shared by every sql.DB in the
//	                  process that opens the same name (cross-package tests,
//	                  embedded tools).
//	perm://h1,h2,h3 — a cluster member set: each pooled connection dials the
//	                  members (in random order) and picks one by role, read
//	                  from the wire handshake. `?readpref=primary` (default)
//	                  demands the writable primary, `?readpref=replica`
//	                  prefers a replica and falls back to the primary,
//	                  `?readpref=any` takes the first member that answers. A
//	                  trailing "/" before options is tolerated:
//	                  perm://h1,h2,h3/?readpref=replica.
//
// Any DSN may carry a `?readonly` suffix (also `?readonly=1|true`), the
// option for pools pointed at replicas: the driver rejects INSERT, UPDATE,
// DELETE, DDL and ANALYZE client-side with ErrReadOnly before anything hits
// the wire, so misdirected writes fail fast instead of costing a round trip.
// Replica servers enforce the same rule server-side either way — writes
// against a replica fail with an error that matches ErrReadOnly under
// errors.Is even without the DSN option.
//
// # Placeholders and prepared statements
//
// `?` placeholders bind as typed parameters server-side: db.Prepare
// registers a real prepared statement on the connection's session (parsed
// once, planned per distinct argument-type vector through the session plan
// cache), and ad-hoc queries with arguments parse + bind + execute in one
// round trip. Argument values never travel as interpolated SQL text. The
// argument count is checked where the statement is parsed (the engine
// embedded, the server remotely): a mismatch fails with the engine's
// bind-count error before anything runs. Supported argument types are the driver.Value set: nil, bool, int64,
// float64, string, []byte (bound as text) and time.Time (RFC 3339 text).
//
// # Streaming results
//
// Query results stream end-to-end: remote rows arrive through a server-side
// cursor fetched in bounded batches (the server never materializes the
// result either), embedded rows come straight off the engine's executor
// iterators. rows.Next therefore has constant memory cost however large the
// provenance result — drain or close every *sql.Rows promptly, since an
// open result set pins its connection's server portal.
//
// # Transactions
//
// db.Begin / db.BeginTx open a real server-side transaction (BEGIN on the
// connection's session): statements inside it read one MVCC snapshot, buffer
// their writes, and Commit publishes them atomically under first-committer-
// wins validation — a losing Commit fails with ErrWriteConflict and the
// transaction is already rolled back, so retry from Begin. Snapshot isolation
// is the strongest level offered; BeginTx refuses sql.LevelSerializable and
// above rather than silently weakening it. Statements outside a transaction
// execute with autocommit.
//
// # Semantics and limits
//
//   - Result.LastInsertId is not supported; RowsAffected comes from the
//     command tag.
//   - Session settings (SET provenance_contribution = 'copy', …) work per
//     connection; use a single-connection pool (db.SetMaxOpenConns(1)) or
//     conn-pinned sql.Conn when you depend on them.
package driver

import (
	"database/sql"
	sqldriver "database/sql/driver"
	"fmt"
	"strings"
	"sync"

	"perm/internal/engine"
)

func init() {
	sql.Register("perm", &Driver{})
}

// ErrReadOnly is the typed error writes fail with on a read-only replica —
// whether rejected client-side (a `?readonly` DSN) or by the replica server
// (the wire error carries a read-only code the driver maps back). Match it
// with errors.Is.
var ErrReadOnly = engine.ErrReadOnly

// ErrStaleEpoch is the typed error a clustered server answers with when a
// request ran under a fencing epoch older than the cluster's current one — a
// write acknowledged by a since-deposed primary, or any statement routed to
// a fenced member mid-failover. It is retryable: reconnecting (or the next
// statement through a perm:// multi-host pool) lands on the current primary.
// Match it with errors.Is.
var ErrStaleEpoch = engine.ErrStaleEpoch

// ErrWriteConflict is the typed error a transaction's Commit fails with when
// first-committer-wins validation found a concurrent committed writer on a
// row this transaction also wrote. The transaction is already rolled back;
// retry it from Begin. Match it with errors.Is — it works identically for
// embedded and remote connections (the wire error carries a typed code).
var ErrWriteConflict = engine.ErrWriteConflict

// Driver is the database/sql driver for Perm.
type Driver struct{}

// Open implements driver.Driver.
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.(*connector).connect()
}

// OpenConnector implements driver.DriverContext: the DSN is parsed once and
// each pool connection reuses the result.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	target, opts, err := splitOptions(dsn)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasPrefix(target, "mem://"):
		name := strings.TrimPrefix(target, "mem://")
		return &connector{drv: d, mem: memDB(name), readOnly: opts.readOnly}, nil
	case strings.HasPrefix(target, "tcp://"):
		addr := strings.TrimPrefix(target, "tcp://")
		if addr == "" {
			return nil, fmt.Errorf("perm driver: empty address in DSN %q", dsn)
		}
		return &connector{drv: d, addr: addr, readOnly: opts.readOnly}, nil
	case strings.HasPrefix(target, "perm://"):
		hosts, err := splitHosts(strings.TrimPrefix(target, "perm://"), dsn)
		if err != nil {
			return nil, err
		}
		return &connector{drv: d, hosts: hosts, readPref: opts.readPref, readOnly: opts.readOnly}, nil
	case strings.Contains(target, "://"):
		return nil, fmt.Errorf("perm driver: unsupported scheme in DSN %q (want tcp://, perm:// or mem://)", dsn)
	case target == "":
		return nil, fmt.Errorf("perm driver: empty DSN")
	default:
		// Bare host:port.
		return &connector{drv: d, addr: target, readOnly: opts.readOnly}, nil
	}
}

// dsnOptions are the parsed ?option suffix values.
type dsnOptions struct {
	readOnly bool
	readPref string // "primary" (default), "replica" or "any"
}

// splitOptions strips and parses the DSN's ?option suffix.
func splitOptions(dsn string) (target string, opts dsnOptions, err error) {
	target, rawOpts, found := strings.Cut(dsn, "?")
	if !found {
		return target, opts, nil
	}
	for _, opt := range strings.Split(rawOpts, "&") {
		name, val, _ := strings.Cut(opt, "=")
		switch name {
		case "readonly":
			switch val {
			case "", "1", "true":
				opts.readOnly = true
			case "0", "false":
			default:
				return "", opts, fmt.Errorf("perm driver: bad value %q for readonly in DSN %q", val, dsn)
			}
		case "readpref":
			switch val {
			case "primary", "replica", "any":
				opts.readPref = val
			default:
				return "", opts, fmt.Errorf("perm driver: bad value %q for readpref in DSN %q (want primary, replica or any)", val, dsn)
			}
		default:
			return "", opts, fmt.Errorf("perm driver: unknown DSN option %q in %q", name, dsn)
		}
	}
	return target, opts, nil
}

// splitHosts parses a perm:// DSN's comma-separated member list (an optional
// trailing "/" before the options is tolerated: perm://h1,h2/?readpref=…).
func splitHosts(list, dsn string) ([]string, error) {
	list = strings.TrimSuffix(list, "/")
	var hosts []string
	for _, h := range strings.Split(list, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("perm driver: no member addresses in DSN %q", dsn)
	}
	return hosts, nil
}

// memRegistry holds the process-wide named in-memory databases.
var memRegistry = struct {
	mu  sync.Mutex
	dbs map[string]*engine.DB
}{dbs: make(map[string]*engine.DB)}

// memDB resolves a mem:// DSN to its engine. Named databases are shared
// across the process; the empty name is always a fresh private engine.
func memDB(name string) *engine.DB {
	if name == "" {
		return engine.NewDB()
	}
	memRegistry.mu.Lock()
	defer memRegistry.mu.Unlock()
	db := memRegistry.dbs[name]
	if db == nil {
		db = engine.NewDB()
		memRegistry.dbs[name] = db
	}
	return db
}
