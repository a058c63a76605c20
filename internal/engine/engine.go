// Package engine ties the Perm pipeline together, mirroring Figure 3 of the
// paper: Parser & Analyzer → Provenance Rewriter → Planner → Executor. It
// owns the storage engine, dispatches DDL/DML, manages session settings
// (contribution semantics, rewrite strategies, optimizer toggles), measures
// per-stage timings, and implements eager provenance via CREATE TABLE AS
// SELECT PROVENANCE.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perm/internal/algebra"
	"perm/internal/analyzer"
	"perm/internal/catalog"
	"perm/internal/core"
	"perm/internal/executor"
	"perm/internal/logx"
	"perm/internal/metrics"
	"perm/internal/planner"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// ErrReadOnly is the typed error every write statement fails with on a
// read-only replica. Callers (and database/sql users, through perm/driver)
// match it with errors.Is; the network server maps it to the wire protocol's
// read-only error code so it stays typed across the network.
var ErrReadOnly = errors.New("read-only replica: writes must go to the primary")

// ErrStaleEpoch is the typed error for cluster fencing: a request carried a
// fencing epoch newer than this node's (so this node is a deposed primary or
// a lagging member), or a promote/demote arrived with an epoch the node has
// already moved past. The network server maps it to the wire protocol's
// stale-epoch error code so it stays typed across the network.
var ErrStaleEpoch = errors.New("stale cluster epoch")

// ReplStatus is the observable replication state surfaced by
// SHOW replication_status.
type ReplStatus struct {
	// Role is "primary" or "replica".
	Role string
	// Connected reports whether a replica's feed subscription is currently
	// established (always true on a primary).
	Connected bool
	// AppliedLSN is the node's change-log position: the last LSN written
	// (primary) or applied (replica).
	AppliedLSN uint64
	// PrimaryLSN is the primary's last known LSN (heartbeats carry it); on
	// the primary itself it equals AppliedLSN.
	PrimaryLSN uint64
	// Epoch is the cluster fencing epoch this node serves under (0 when the
	// node has never been part of a managed cluster).
	Epoch uint64
	// Staleness is the wall clock elapsed since the replica last made
	// observable progress — applied records, or a heartbeat confirming it
	// was caught up. Zero on a primary and on a replica that is current.
	Staleness time.Duration
	// LastError is the most recent replication error, empty when healthy.
	LastError string
}

// Lag is the number of primary changes not yet applied here.
func (st ReplStatus) Lag() uint64 {
	if st.PrimaryLSN <= st.AppliedLSN {
		return 0
	}
	return st.PrimaryLSN - st.AppliedLSN
}

// DB is a Perm database instance: storage plus catalog. It is safe for use
// from multiple sessions.
type DB struct {
	// store is an atomic pointer so a replication follower can bootstrap a
	// snapshot into a fresh store off to the side and swap it in whole:
	// readers keep serving the old, complete state until the instant of the
	// swap, never a half-restored one. Every access goes through Store().
	store atomic.Pointer[storage.Store]
	// ddlMu serializes DDL so CREATE TABLE + heap allocation stay atomic
	// relative to other DDL.
	ddlMu sync.Mutex
	// sessions counts the sessions currently open (NewSession minus Close) —
	// the network server surfaces it and tests assert teardown.
	sessions atomic.Int64
	// readOnly marks the database a replica: every session rejects DML, DDL
	// and ANALYZE with ErrReadOnly. The replication follower bypasses the
	// engine and applies its feed directly to storage.
	readOnly atomic.Bool
	// replStatus, when set, reports the replica's live replication state
	// (installed by the follower driving this database).
	replStatus atomic.Value // of func() ReplStatus
	// walCtl, when set, is the write-ahead log manager behind SET wal_sync
	// and SHOW wal_status (installed by the server when -data-dir is given).
	walCtl atomic.Value // of walCtlBox
	// epoch is the cluster fencing epoch this node serves under. It only
	// ever rises (SetEpoch ignores lower values), so a raced promote/demote
	// cannot roll the fence back.
	epoch atomic.Uint64
}

// NewDB creates an empty database.
func NewDB() *DB {
	db := &DB{}
	db.store.Store(storage.NewStore())
	return db
}

// NewDBFrom wraps an existing store — the durable path: the server recovers
// the store from its data directory first, then serves it.
func NewDBFrom(s *storage.Store) *DB {
	db := &DB{}
	db.store.Store(s)
	return db
}

// WALStatus is the observable durable-write-path state behind
// SHOW wal_status.
type WALStatus struct {
	// Mode is the active sync policy ("always", "group(<ms>)", "off"), or
	// "disabled" when the server runs without a data directory.
	Mode string
	// LastLSN is the newest journaled record, DurableLSN the newest one
	// fsync has covered, CheckpointLSN the position of the on-disk snapshot.
	LastLSN, DurableLSN, CheckpointLSN uint64
	// Checkpoints counts snapshots written in this process life; Segments
	// and WALBytes size the live log.
	Checkpoints int
	Segments    int
	WALBytes    int64
	// Err is the sticky durability failure, empty while healthy.
	Err string
}

// WALController is the engine's handle on the write-ahead log manager. The
// engine only depends on this interface; internal/server adapts the
// concrete manager to it.
type WALController interface {
	SetSyncPolicy(policy string) error
	WALStatus() WALStatus
}

type walCtlBox struct{ c WALController }

// SetWALController installs (or, with nil, removes) the write-ahead log
// handle behind SET wal_sync and SHOW wal_status.
func (db *DB) SetWALController(c WALController) {
	db.walCtl.Store(walCtlBox{c: c})
}

func (db *DB) walController() WALController {
	if box, ok := db.walCtl.Load().(walCtlBox); ok {
		return box.c
	}
	return nil
}

// WALStatus reports the durable write path's state; without a WAL the mode
// is "disabled" and every counter zero.
func (db *DB) WALStatus() WALStatus {
	if ctl := db.walController(); ctl != nil {
		return ctl.WALStatus()
	}
	return WALStatus{Mode: "disabled"}
}

// Store exposes the storage engine (tools and tests).
func (db *DB) Store() *storage.Store { return db.store.Load() }

// Catalog exposes the schema registry.
func (db *DB) Catalog() *catalog.Catalog { return db.Store().Catalog() }

// DefaultWorkMem is the default per-session memory budget for blocking
// operators (SET work_mem): generous enough that ordinary queries never
// spill, small enough that a runaway provenance sort cannot take the
// process down.
const DefaultWorkMem = 64 << 20

// sessionSettings lists every session setting: its default and, for
// enumerated settings, the values it accepts (nil = free-form, or validated
// by set).
var sessionSettings = map[string]struct {
	def     string
	allowed []string
}{
	"provenance_contribution":      {"influence", []string{"influence", "copy", "copycomplete"}},
	"provenance_strategy":          {"heuristic", []string{"heuristic", "cost"}},
	"provenance_agg_strategy":      {"auto", []string{"auto", "joingroup", "crossfilter"}},
	"provenance_set_strategy":      {"auto", []string{"auto", "pad", "join"}},
	"provenance_distinct_strategy": {"auto", []string{"auto", "pass", "join"}},
	"optimizer":                    {"on", []string{"on", "off"}},
	"plan_cache":                   {"on", []string{"on", "off"}},
	"provenance_schema_name":       {"public", nil},
	"work_mem":                     {strconv.FormatInt(DefaultWorkMem, 10), nil}, // bytes, 0 = unlimited
	"trace":                        {"off", []string{"on", "off"}},
	"slow_query_ms":                {"off", nil}, // ms; 0 = log all
	"parallelism":                  {"1", nil},   // workers; 0 = GOMAXPROCS, 1 = serial
}

// NewSession opens a session with default settings.
func (db *DB) NewSession() *Session {
	s := &Session{
		db:       db,
		settings: make(map[string]string, len(sessionSettings)),
		cache:    newPlanCache(),
		mem:      executor.NewMemTracker(DefaultWorkMem, ""),
	}
	s.log.Store(logx.Default)
	// Defaults go through the same code SET does, so every memo starts out
	// derived from the setting it mirrors.
	for name, spec := range sessionSettings {
		s.mustSet(name, spec.def)
	}
	db.sessions.Add(1)
	return s
}

// ActiveSessions reports how many sessions are currently open.
func (db *DB) ActiveSessions() int { return int(db.sessions.Load()) }

// SetReadOnly switches the database into (or out of) replica mode: when
// read-only, every session's write statements fail with ErrReadOnly.
func (db *DB) SetReadOnly(ro bool) { db.readOnly.Store(ro) }

// ReadOnly reports whether the database rejects writes.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// Epoch reports the cluster fencing epoch this node serves under.
func (db *DB) Epoch() uint64 { return db.epoch.Load() }

// SetEpoch raises the node's fencing epoch. Epochs are monotonic: a value at
// or below the current one is ignored, and the method reports whether the
// epoch advanced. Persisting the epoch (so a restart cannot resurrect an old
// fence) is the cluster harness's job, not the engine's.
func (db *DB) SetEpoch(e uint64) bool {
	for {
		cur := db.epoch.Load()
		if e <= cur {
			return false
		}
		if db.epoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// SetReplStatusFunc installs the provider behind SHOW replication_status.
// The replication follower sets it; pass nil to revert to the built-in
// primary view.
func (db *DB) SetReplStatusFunc(f func() ReplStatus) {
	db.replStatus.Store(f)
}

// SwapStore atomically replaces the storage engine — the replica bootstrap
// path: the follower restores a snapshot into a fresh store while sessions
// keep reading the old, complete one, then swaps. In-flight statements
// finish against the store they started with. The new catalog's schema
// version is advanced past the old one first, so plan-cache entries keyed
// on the old schema can never collide with a coincidentally equal version
// in the new history.
func (db *DB) SwapStore(s *storage.Store) {
	old := db.store.Load()
	for s.Catalog().Version() <= old.Catalog().Version() {
		s.Catalog().BumpVersion()
	}
	db.store.Store(s)
}

// ReplicationStatus reports the node's replication state. Without an
// installed provider the database describes itself as a primary at its
// change log's position.
func (db *DB) ReplicationStatus() ReplStatus {
	if f, _ := db.replStatus.Load().(func() ReplStatus); f != nil {
		st := f()
		if st.Epoch == 0 {
			st.Epoch = db.Epoch()
		}
		return st
	}
	lsn := db.Store().Log().LastLSN()
	role := "primary"
	if db.ReadOnly() {
		// Read-only without a follower: a replica whose follower is not
		// running (yet), e.g. between Restore and StartFollower.
		role = "replica"
	}
	return ReplStatus{Role: role, Connected: role == "primary", AppliedLSN: lsn, PrimaryLSN: lsn, Epoch: db.Epoch()}
}

// Session is a single-user connection with its own settings and its own plan
// cache (see plancache.go for the keying and invalidation rules).
//
// perm.DB shares one implicit session across goroutines, so the settings map
// is guarded: all writes go through set and all reads through setting();
// the plan-cache key fingerprint is memoized there instead of being rebuilt
// (and the map iterated) on every statement.
type Session struct {
	db         *DB
	settingsMu sync.RWMutex
	settings   map[string]string
	// fingerprint is the precomputed settings suffix of plan-cache keys,
	// recomputed only when a setting changes.
	fingerprint string
	cache       *planCache
	// interrupt holds the current query-cancellation channel (see
	// SetInterrupt); stored atomically because the shared implicit session may
	// be used from several goroutines. deadline is its wall-clock analog
	// (UnixNano, 0 = none; see SetDeadline).
	interrupt atomic.Value // of <-chan struct{}
	deadline  atomic.Int64
	closed    atomic.Bool
	// mem is the session's memory governor: the work_mem budget, live/peak
	// tracked bytes, and the spill-file pool blocking operators write temp
	// files through. SHOW memory_status reads it; Close removes any spill
	// files still on disk.
	mem *executor.MemTracker
	// Observability state (observe.go): the memoized SET trace flag, the
	// most recent traced-statement profile (SHOW last_trace), the
	// slow-query threshold in ms (-1 = off, memoized from the setting), and
	// the logger slow queries go to. All atomic: the shared implicit
	// session executes statements from many goroutines.
	traceFlag atomic.Bool
	lastTrace atomic.Pointer[Trace]
	slowMs    atomic.Int64
	log       atomic.Pointer[logx.Logger]
	// parDeg memoizes the parallelism setting (SET parallelism; 0 = use
	// GOMAXPROCS, resolved per statement) so execContextOn never takes the
	// settings lock on the hot path.
	parDeg atomic.Int32
	// txn is the session's open explicit transaction (nil in autocommit).
	// Guarded because the shared implicit session executes statements from
	// several goroutines; the transaction itself is single-writer by the
	// session's one-statement-at-a-time contract.
	txnMu sync.Mutex
	txn   *storage.Txn
}

// maxParallelism caps SET parallelism: more workers than this buys nothing
// and each parallel operator pins a goroutine per worker.
const maxParallelism = 64

// parallelDegree resolves the session's parallelism setting to the concrete
// worker count for one statement: 0 means "all the cores Go will schedule".
func (s *Session) parallelDegree() int32 {
	n := s.parDeg.Load()
	if n == 0 {
		n = int32(runtime.GOMAXPROCS(0))
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetParallelism sets the session's intra-query parallelism degree — the
// programmatic form of SET parallelism (0 = GOMAXPROCS, 1 = serial), used by
// the network server to apply its -parallelism flag to every connection's
// session.
func (s *Session) SetParallelism(n int) {
	if n < 0 {
		n = 1
	}
	if n > maxParallelism {
		n = maxParallelism
	}
	s.mustSet("parallelism", strconv.Itoa(n))
}

// SetWorkMem sets the session's blocking-operator memory budget in bytes
// (<= 0 = unlimited) — the programmatic form of SET work_mem, used by the
// network server to apply its -work-mem flag to every connection's session.
func (s *Session) SetWorkMem(n int64) {
	if n < 0 {
		n = 0
	}
	s.mustSet("work_mem", strconv.FormatInt(n, 10))
}

// SetTempDir redirects the session's spill files ("" = the OS temp
// directory). The network server applies its -temp-dir flag here.
func (s *Session) SetTempDir(dir string) { s.mem.SetDir(dir) }

// MemStatus is the observable memory state surfaced by SHOW memory_status.
type MemStatus struct {
	// WorkMem is the byte budget (SET work_mem); <= 0 means unlimited.
	WorkMem int64
	// Tracked and Peak are the current and high-water bytes blocking
	// operators hold against the budget.
	Tracked, Peak int64
	// SpillFiles and SpillBytes count spill files ever created and bytes
	// ever written by this session (cumulative).
	SpillFiles, SpillBytes int64
	// TempDir is where spill files are created ("" = the OS temp directory).
	TempDir string
	// IdleSlabBytes and IdleSlabs are what the session keeps between
	// statements: the hash-table, build-row, group, count and sort-buffer
	// slabs its blocking operators gave back, for the next statement to take
	// (at most 16 per element type, no more than work_mem bytes when it is
	// positive, dropped by Close).
	IdleSlabBytes int64
	IdleSlabs     int
}

// MemStatus reports the session's memory and spill state.
func (s *Session) MemStatus() MemStatus {
	idleBytes, idleSlabs := s.mem.Idle()
	return MemStatus{
		WorkMem:       s.mem.Budget(),
		Tracked:       s.mem.Tracked(),
		Peak:          s.mem.Peak(),
		SpillFiles:    s.mem.Pool().Files(),
		SpillBytes:    s.mem.Pool().Bytes(),
		TempDir:       s.mem.Dir(),
		IdleSlabBytes: idleBytes,
		IdleSlabs:     idleSlabs,
	}
}

// SetInterrupt installs a cancellation channel for subsequent statements:
// once ch is closed, executing queries unwind with executor.ErrInterrupted
// at their next materialization step. Pass nil to clear. The network server
// arms this with the connection's kill channel; the in-process driver wires
// it to the caller's context.
func (s *Session) SetInterrupt(ch <-chan struct{}) {
	s.interrupt.Store(ch)
}

// SetDeadline bounds subsequent statements to the wall-clock instant t — the
// timer-free per-query timeout (polled alongside the interrupt channel).
// Pass the zero time to clear.
func (s *Session) SetDeadline(t time.Time) {
	if t.IsZero() {
		s.deadline.Store(0)
		return
	}
	s.deadline.Store(t.UnixNano())
}

// execContextOn builds the executor context for one statement against a
// pinned store (see analyzeOn), carrying the session's current interrupt
// channel and deadline. Every context carries a read position: inside an
// explicit transaction the transaction's snapshot (plus its own buffered
// writes), otherwise a freshly pinned statement snapshot the caller must
// release with Context.Release once the statement's last read is done — the
// pin holds the version vacuum's horizon.
func (s *Session) execContextOn(store *storage.Store) *executor.Context {
	ctx := executor.NewContext(store)
	ctx.Mem = s.mem
	if ch, _ := s.interrupt.Load().(<-chan struct{}); ch != nil {
		ctx.Interrupt = ch
	}
	if ns := s.deadline.Load(); ns != 0 {
		ctx.DeadlineNs = ns
	}
	ctx.Parallel = s.parallelDegree()
	if txn := s.currentTxn(); txn != nil && txn.Store() == store {
		// The transaction owns the snapshot pin; Release on this context is a
		// no-op and COMMIT/ROLLBACK drop the pin.
		ctx.Txn = txn
		ctx.SnapLSN = txn.Snap()
	} else {
		snap := store.PinSnapshot()
		ctx.SnapLSN = snap
		ctx.SetUnpin(func() { store.UnpinSnapshot(snap) })
	}
	return ctx
}

// Close tears the session down: the plan cache is released and the session
// no longer counts as active. Executing a statement on a closed session is
// an error. Close is idempotent.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// A transaction abandoned at disconnect rolls back — and releases its
	// snapshot pin, or the version vacuum could never advance past it.
	s.rollbackOpenTxn()
	s.cache.reset()
	// Remove any spill files still on disk: a result stream abandoned
	// without Close (disconnects, shutdown kills) must not leak temp files
	// past its session.
	s.mem.Cleanup()
	s.db.sessions.Add(-1)
	return nil
}

// setting reads one session variable under the read lock.
func (s *Session) setting(name string) (string, bool) {
	s.settingsMu.RLock()
	defer s.settingsMu.RUnlock()
	v, ok := s.settings[name]
	return v, ok
}

// PlanCacheStats returns the session's plan-cache hit/miss counters and entry
// count.
func (s *Session) PlanCacheStats() (hits, misses uint64, size int) {
	return s.cache.stats()
}

// Timings records the per-stage latency of one statement — the observable
// version of the Figure 3 architecture.
type Timings struct {
	Parse   time.Duration
	Analyze time.Duration // includes provenance rewriting (Perm module)
	Rewrite time.Duration // time inside the provenance rewriter only
	Plan    time.Duration
	Execute time.Duration
}

// Total sums the stages.
func (t Timings) Total() time.Duration {
	return t.Parse + t.Analyze + t.Plan + t.Execute
}

// Result is the outcome of one statement.
type Result struct {
	// Columns are the output column names (empty for DDL/DML).
	Columns []string
	Schema  algebra.Schema
	Rows    []value.Row
	// Tag is the command tag, e.g. "SELECT 4", "INSERT 2", "CREATE TABLE".
	Tag string
	// Timings holds the per-stage latencies.
	Timings Timings
	// Rewrites lists the provenance-rewrite decisions taken (strategy
	// choices, de-correlations), for EXPLAIN and the browser.
	Rewrites []string
	// CacheHit reports that the statement was served from the session plan
	// cache, skipping parse, analyze, rewrite and planning entirely.
	CacheHit bool
}

// Execute runs a single SQL statement to completion. It is a thin drain
// wrapper over Query — the streaming path is the only execution path — so
// its fully-materialized Result contract is unchanged. With the plan cache
// enabled, a statement textually identical to an earlier SELECT in this
// session (under identical settings and schema version) skips
// parse/analyze/rewrite/plan and goes straight to execution.
func (s *Session) Execute(text string) (*Result, error) {
	rows, err := s.Query(text)
	if err != nil {
		return nil, err
	}
	return rows.DrainResult()
}

// ExecuteScript runs a semicolon-separated script, stopping at the first
// error. It returns one result per statement.
func (s *Session) ExecuteScript(text string) ([]*Result, error) {
	stmts, err := sql.ParseScript(text)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for i, st := range stmts {
		res, err := s.ExecuteStatement(st)
		if err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ddlVerb names the command when st changes schema or statistics, and
// returns "" for every other statement. Such a command applies at once: it
// is refused on a read-only node, and inside a transaction, whose ROLLBACK
// could not undo it. (A write of rows is refused where it runs: see start.)
func ddlVerb(st sql.Statement) string {
	switch x := st.(type) {
	case *sql.CreateTableStmt:
		return "CREATE TABLE"
	case *sql.CreateViewStmt:
		return "CREATE VIEW"
	case *sql.DropStmt:
		if x.View {
			return "DROP VIEW"
		}
		return "DROP TABLE"
	case *sql.AnalyzeStmt:
		return "ANALYZE"
	}
	return ""
}

// ExecuteStatement runs a parsed statement.
func (s *Session) ExecuteStatement(st sql.Statement) (*Result, error) {
	return s.executeStatement(st, nil)
}

// executeStatement runs a parsed statement with args bound to its `?`
// placeholders (nil when the statement binds none).
func (s *Session) executeStatement(st sql.Statement, args []value.Value) (*Result, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("engine: session is closed")
	}
	if verb := ddlVerb(st); verb != "" {
		if s.db.ReadOnly() {
			return nil, fmt.Errorf("%s rejected: %w", verb, ErrReadOnly)
		}
		if s.currentTxn() != nil {
			return nil, fmt.Errorf("engine: %s cannot run inside a transaction", verb)
		}
	}
	switch x := st.(type) {
	case *sql.BeginStmt:
		return s.runBegin()
	case *sql.CommitStmt:
		return s.runCommit()
	case *sql.RollbackStmt:
		return s.runRollback()
	case *sql.SelectStmt, *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return s.runQuery(st, args)
	case *sql.CreateTableStmt:
		return s.runCreateTable(x, args)
	case *sql.CreateViewStmt:
		return s.runCreateView(x)
	case *sql.DropStmt:
		return s.runDrop(x)
	case *sql.ExplainStmt:
		return s.runExplain(x)
	case *sql.SetStmt:
		return s.runSet(x)
	case *sql.ShowStmt:
		return s.runShow(x)
	case *sql.AnalyzeStmt:
		if err := s.db.Store().Analyze(x.Table); err != nil {
			return nil, err
		}
		// Fresh statistics can change cost-based rewrite decisions; force
		// cached plans (in every session) to be rebuilt.
		s.db.Catalog().BumpVersion()
		return &Result{Tag: "ANALYZE"}, nil
	}
	return nil, fmt.Errorf("unsupported statement %T", st)
}

// rewriterOptions builds core.Options from the session settings, costing
// against the given store's catalog.
func (s *Session) rewriterOptions(store *storage.Store, defaultSem sql.ContributionSemantics) core.Options {
	opts := core.DefaultOptions()
	opts.SchemaName, _ = s.setting("provenance_schema_name")
	switch defaultSem {
	case sql.Copy:
		opts.Semantics = core.CopySemantics
	case sql.CopyComplete:
		opts.Semantics = core.CopyCompleteSemantics
	case sql.Influence:
		opts.Semantics = core.InfluenceSemantics
	default:
		contribution, _ := s.setting("provenance_contribution")
		switch contribution {
		case "copy":
			opts.Semantics = core.CopySemantics
		case "copycomplete":
			opts.Semantics = core.CopyCompleteSemantics
		}
	}
	if strategy, _ := s.setting("provenance_strategy"); strategy == "cost" {
		opts.Mode = core.ModeCost
		pl := planner.New(store.Catalog())
		opts.Estimator = func(op algebra.Op) float64 { return pl.EstimateRows(op) }
	}
	aggStrategy, _ := s.setting("provenance_agg_strategy")
	switch aggStrategy {
	case "joingroup":
		opts.Agg, opts.AggForced = core.AggJoinGroup, true
	case "crossfilter":
		opts.Agg, opts.AggForced = core.AggCrossFilter, true
	}
	setStrategy, _ := s.setting("provenance_set_strategy")
	switch setStrategy {
	case "pad":
		opts.Set, opts.SetForced = core.SetPad, true
	case "join":
		opts.Set, opts.SetForced = core.SetJoin, true
	}
	distinctStrategy, _ := s.setting("provenance_distinct_strategy")
	switch distinctStrategy {
	case "pass":
		opts.Distinct, opts.DistinctForced = core.DistinctPass, true
	case "join":
		opts.Distinct, opts.DistinctForced = core.DistinctJoin, true
	}
	return opts
}

// Analyze resolves a query to an executable plan, running the provenance
// rewriter for SELECT PROVENANCE blocks. It returns the plan, the rewrite
// decisions, and the time spent in the rewriter.
func (s *Session) Analyze(sel *sql.SelectStmt) (algebra.Op, []string, time.Duration, error) {
	return s.analyzeOn(s.db.Store(), sel, nil)
}

// analyzeOn is Analyze pinned to one store, for a query or a write: every
// statement resolves names, plans and executes against a single store
// snapshot, so a replica re-bootstrap (DB.SwapStore) landing mid-statement
// cannot pair an old-catalog plan with a new store's heaps. params carries
// the kinds of the statement's bound `?` arguments.
func (s *Session) analyzeOn(store *storage.Store, st sql.Statement, params []value.Kind) (algebra.Op, []string, time.Duration, error) {
	an := analyzer.New(store.Catalog())
	an.Params = params
	var decisions []string
	var rewriteDur time.Duration
	an.Rewrite = func(req analyzer.ProvRequest) (algebra.Op, error) {
		t0 := time.Now()
		rw := core.NewRewriter(s.rewriterOptions(store, req.Contribution))
		out, err := rw.Rewrite(req.Input)
		rewriteDur += time.Since(t0)
		decisions = append(decisions, rw.Decisions...)
		return out, err
	}
	plan, err := an.Analyze(st)
	if err != nil {
		return nil, nil, 0, err
	}
	return plan, decisions, rewriteDur, nil
}

// analyzeOriginalOn resolves a statement ignoring SELECT PROVENANCE markers
// (the original algebra tree EXPLAIN shows).
func (s *Session) analyzeOriginalOn(store *storage.Store, st sql.Statement) (algebra.Op, error) {
	an := analyzer.New(store.Catalog())
	an.StripProvenance = true
	return an.Analyze(st)
}

// planOn optimizes a resolved plan per the session's optimizer setting. With
// the optimizer off it only lowers the DISTINCT aggregates, which the
// executor does not run.
func (s *Session) planOn(store *storage.Store, op algebra.Op) algebra.Op {
	if opt, _ := s.setting("optimizer"); opt == "off" {
		return planner.LowerDistinct(op)
	}
	return planner.New(store.Catalog()).Optimize(op)
}

// runQuery runs a query or a write to completion.
func (s *Session) runQuery(st sql.Statement, args []value.Value) (*Result, error) {
	rows := &Rows{}
	if _, err := s.openPlan(rows, st, s.db.Store(), args, ""); err != nil {
		return nil, err
	}
	return rows.DrainResult()
}

func (s *Session) runCreateTable(ct *sql.CreateTableStmt, args []value.Value) (*Result, error) {
	s.db.ddlMu.Lock()
	defer s.db.ddlMu.Unlock()
	if ct.AsSelect != nil {
		// Eager provenance: CREATE TABLE p AS SELECT PROVENANCE ... stores
		// the provenance relation for later querying.
		sub, err := s.runQuery(ct.AsSelect, args)
		if err != nil {
			return nil, err
		}
		def := &catalog.TableDef{Name: ct.Name}
		used := map[string]int{}
		for _, col := range sub.Schema {
			name := strings.ToLower(col.Name)
			if name == "" {
				name = "column"
			}
			if n := used[name]; n > 0 {
				used[name] = n + 1
				name = fmt.Sprintf("%s_%d", name, n)
			} else {
				used[name] = 1
			}
			typ := col.Type
			if typ == value.KindNull {
				typ = value.KindString
			}
			def.Columns = append(def.Columns, catalog.Column{Name: name, Type: typ})
		}
		table, err := s.db.Store().CreateTable(def)
		if err != nil {
			return nil, err
		}
		if _, err := table.InsertBatch(sub.Rows); err != nil {
			_ = s.db.Store().DropTable(ct.Name)
			return nil, err
		}
		return &Result{Tag: fmt.Sprintf("SELECT %d", len(sub.Rows)), Timings: sub.Timings}, nil
	}
	def := &catalog.TableDef{Name: ct.Name}
	for _, c := range ct.Columns {
		kind, err := value.KindFromTypeName(c.TypeName)
		if err != nil {
			return nil, err
		}
		def.Columns = append(def.Columns, catalog.Column{Name: c.Name, Type: kind, NotNull: c.NotNull})
	}
	if _, err := s.db.Store().CreateTable(def); err != nil {
		return nil, err
	}
	return &Result{Tag: "CREATE TABLE"}, nil
}

func (s *Session) runCreateView(cv *sql.CreateViewStmt) (*Result, error) {
	s.db.ddlMu.Lock()
	defer s.db.ddlMu.Unlock()
	// Validate the defining query now (including provenance blocks).
	plan, _, _, err := s.Analyze(cv.Select)
	if err != nil {
		return nil, fmt.Errorf("invalid view definition: %v", err)
	}
	var cols []catalog.Column
	for _, c := range plan.Schema() {
		cols = append(cols, catalog.Column{Name: c.Name, Type: c.Type})
	}
	// Through the store, not the catalog directly, so the view lands in the
	// change log for replication followers.
	err = s.db.Store().CreateView(&catalog.ViewDef{Name: cv.Name, Text: cv.Text, Columns: cols})
	if err != nil {
		return nil, err
	}
	return &Result{Tag: "CREATE VIEW"}, nil
}

func (s *Session) runDrop(d *sql.DropStmt) (*Result, error) {
	s.db.ddlMu.Lock()
	defer s.db.ddlMu.Unlock()
	var err error
	if d.View {
		err = s.db.Store().DropView(d.Name)
	} else {
		err = s.db.Store().DropTable(d.Name)
	}
	if err != nil {
		if d.IfExists {
			return &Result{Tag: "DROP"}, nil
		}
		return nil, err
	}
	return &Result{Tag: "DROP"}, nil
}

func (s *Session) runSet(st *sql.SetStmt) (*Result, error) {
	if strings.EqualFold(st.Name, "wal_sync") {
		// Database-scoped, not a session setting: it reconfigures the shared
		// write-ahead log, so it never enters the session fingerprint.
		ctl := s.db.walController()
		if ctl == nil {
			return nil, fmt.Errorf("no write-ahead log: server runs without a data directory")
		}
		if err := ctl.SetSyncPolicy(strings.ToLower(st.Value)); err != nil {
			return nil, err
		}
		return &Result{Tag: "SET"}, nil
	}
	if err := s.set(st.Name, st.Value); err != nil {
		return nil, err
	}
	return &Result{Tag: "SET"}, nil
}

// mustSet is set for values that are valid by construction: the defaults and
// the programmatic setters.
func (s *Session) mustSet(name, value string) {
	if err := s.set(name, value); err != nil {
		panic("engine: " + err.Error())
	}
}

// set validates one setting, normalizes its value, stores it, and derives
// both the plan-cache fingerprint and the memo the statement path reads in
// place of the map. It is the only writer of s.settings, so a memo cannot
// disagree with the setting it mirrors.
func (s *Session) set(rawName, rawValue string) error {
	name, val := strings.ToLower(rawName), strings.ToLower(rawValue)
	spec, ok := sessionSettings[name]
	if !ok {
		return fmt.Errorf("unknown setting %q", rawName)
	}
	if spec.allowed != nil && !slices.Contains(spec.allowed, val) {
		return fmt.Errorf("invalid value %q for %s (valid: %s)", rawValue, name, strings.Join(spec.allowed, ", "))
	}
	s.settingsMu.Lock()
	defer s.settingsMu.Unlock()
	switch name {
	case "work_mem":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("invalid value %q for work_mem (bytes, >= 0; 0 = unlimited)", rawValue)
		}
		s.mem.SetBudget(n)
		val = strconv.FormatInt(n, 10)
	case "trace":
		s.traceFlag.Store(val == "on")
	case "slow_query_ms":
		// The grammar has no negative literals, so "off" is the way to
		// disable from SQL (it normalizes to the sentinel -1).
		n := int64(-1)
		if val != "off" {
			var err error
			n, err = strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("invalid value %q for slow_query_ms (ms; 0 = log all, off = disable)", rawValue)
			}
		}
		s.slowMs.Store(n)
		val = strconv.FormatInt(n, 10)
	case "parallelism":
		n, err := strconv.ParseInt(val, 10, 32)
		if err != nil || n < 0 || n > maxParallelism {
			return fmt.Errorf("invalid value %q for parallelism (workers, 0-%d; 0 = GOMAXPROCS, 1 = serial)", rawValue, maxParallelism)
		}
		s.parDeg.Store(int32(n))
		val = strconv.FormatInt(n, 10)
	}
	s.settings[name] = val
	s.fingerprint = s.computeFingerprint()
	return nil
}

// showView is one SHOW name that reports engine state rather than a
// setting: the schema of its result and the rows it reports for a session.
type showView struct {
	schema algebra.Schema
	rows   func(s *Session) ([]value.Row, error)
}

// showCols types every named column of a SHOW result k.
func showCols(k value.Kind, names ...string) algebra.Schema {
	out := make(algebra.Schema, len(names))
	for i, n := range names {
		out[i] = algebra.Column{Name: n, Type: k}
	}
	return out
}

// showViews maps each SHOW name that is not a setting to its view.
var showViews = map[string]showView{
	"replication_status": {
		slices.Concat(showCols(value.KindString, "role"), showCols(value.KindBool, "connected"),
			showCols(value.KindInt, "epoch", "applied_lsn", "primary_lsn", "lag", "staleness_ms"), showCols(value.KindString, "last_error")),
		func(s *Session) ([]value.Row, error) {
			rs := s.db.ReplicationStatus()
			return []value.Row{{value.NewString(rs.Role), value.NewBool(rs.Connected), value.NewInt(int64(rs.Epoch)),
				value.NewInt(int64(rs.AppliedLSN)), value.NewInt(int64(rs.PrimaryLSN)), value.NewInt(int64(rs.Lag())),
				value.NewInt(rs.Staleness.Milliseconds()), value.NewString(rs.LastError)}}, nil
		},
	},
	"wal_status": {
		slices.Concat(showCols(value.KindString, "sync_mode"),
			showCols(value.KindInt, "last_lsn", "durable_lsn", "checkpoint_lsn", "checkpoints", "segments", "wal_bytes"), showCols(value.KindString, "last_error")),
		func(s *Session) ([]value.Row, error) {
			ws := s.db.WALStatus()
			return []value.Row{{value.NewString(ws.Mode), value.NewInt(int64(ws.LastLSN)), value.NewInt(int64(ws.DurableLSN)),
				value.NewInt(int64(ws.CheckpointLSN)), value.NewInt(int64(ws.Checkpoints)), value.NewInt(int64(ws.Segments)),
				value.NewInt(ws.WALBytes), value.NewString(ws.Err)}}, nil
		},
	},
	"wal_sync": {
		showCols(value.KindString, "wal_sync"),
		func(s *Session) ([]value.Row, error) {
			return []value.Row{{value.NewString(s.db.WALStatus().Mode)}}, nil
		},
	},
	"memory_status": {
		slices.Concat(showCols(value.KindInt, "work_mem", "tracked", "peak", "spill_files", "spill_bytes"), showCols(value.KindString, "temp_dir"),
			showCols(value.KindInt, "idle_slab_bytes", "idle_slabs")),
		func(s *Session) ([]value.Row, error) {
			ms := s.MemStatus()
			tempDir := ms.TempDir
			if tempDir == "" {
				tempDir = "(os default)"
			}
			return []value.Row{{value.NewInt(ms.WorkMem), value.NewInt(ms.Tracked), value.NewInt(ms.Peak),
				value.NewInt(ms.SpillFiles), value.NewInt(ms.SpillBytes), value.NewString(tempDir),
				value.NewInt(ms.IdleSlabBytes), value.NewInt(int64(ms.IdleSlabs))}}, nil
		},
	},
	"last_trace": {
		slices.Concat(showCols(value.KindString, "sql"), showCols(value.KindBool, "cache_hit"),
			showCols(value.KindInt, "parse_us", "analyze_us", "rewrite_us", "plan_us", "open_us", "drain_us", "total_us", "rows",
				"mem_peak", "spill_files", "spill_bytes", "subplan_hits", "subplan_misses", "parallel_ops", "parallel_workers")),
		func(s *Session) ([]value.Row, error) {
			tr := s.LastTrace()
			if tr == nil {
				return nil, fmt.Errorf("no trace recorded: SET trace = on, then run a query")
			}
			t := tr.Timings
			drain := max(t.Execute-tr.Open, 0)
			return []value.Row{{value.NewString(tr.SQL), value.NewBool(tr.CacheHit),
				value.NewInt(t.Parse.Microseconds()), value.NewInt(t.Analyze.Microseconds()),
				value.NewInt(t.Rewrite.Microseconds()), value.NewInt(t.Plan.Microseconds()),
				value.NewInt(tr.Open.Microseconds()), value.NewInt(drain.Microseconds()),
				value.NewInt(t.Total().Microseconds()), value.NewInt(tr.Rows), value.NewInt(tr.MemPeak),
				value.NewInt(tr.SpillFiles), value.NewInt(tr.SpillBytes), value.NewInt(tr.SubplanHits),
				value.NewInt(tr.SubplanMisses), value.NewInt(tr.ParallelOps), value.NewInt(tr.ParallelWorkers)}}, nil
		},
	},
	"mvcc_status": {
		showCols(value.KindInt, "visible_lsn", "horizon_lsn", "pins", "slots", "versions", "vacuum_runs", "versions_removed", "write_conflicts"),
		func(s *Session) ([]value.Row, error) {
			ms := s.db.Store().MVCCStatus()
			return []value.Row{{value.NewInt(int64(ms.VisibleLSN)), value.NewInt(int64(ms.HorizonLSN)),
				value.NewInt(int64(ms.Pins)), value.NewInt(int64(ms.Slots)), value.NewInt(int64(ms.Versions)),
				value.NewInt(int64(ms.VacuumRuns)), value.NewInt(int64(ms.VacuumRemoved)), value.NewInt(int64(ms.WriteConflicts))}}, nil
		},
	},
	"engine_stats": {
		showCols(value.KindString, "metric", "value"),
		func(*Session) ([]value.Row, error) {
			stats := metrics.Default.Snapshot()
			rows := make([]value.Row, len(stats))
			for i, st := range stats {
				rows[i] = value.Row{value.NewString(st.Name), value.NewString(st.Value)}
			}
			return rows, nil
		},
	},
	"plan_cache_stats": {
		showCols(value.KindInt, "hits", "misses", "entries"),
		func(s *Session) ([]value.Row, error) {
			hits, misses, size := s.cache.stats()
			return []value.Row{{value.NewInt(int64(hits)), value.NewInt(int64(misses)), value.NewInt(int64(size))}}, nil
		},
	},
}

// runShow reports one of showViews, or else the session setting of that
// name as a one-column text row.
func (s *Session) runShow(st *sql.ShowStmt) (*Result, error) {
	name := strings.ToLower(st.Name)
	v, ok := showViews[name]
	if !ok {
		val, ok := s.setting(name)
		if !ok {
			return nil, fmt.Errorf("unknown setting %q", st.Name)
		}
		v = showView{showCols(value.KindString, name), func(*Session) ([]value.Row, error) {
			return []value.Row{{value.NewString(val)}}, nil
		}}
	}
	rows, err := v.rows(s)
	if err != nil {
		return nil, err
	}
	schema := v.schema.Clone()
	return &Result{Columns: schema.Names(), Schema: schema, Rows: rows, Tag: "SHOW"}, nil
}

// Setting reads a session variable (tools).
func (s *Session) Setting(name string) string {
	v, _ := s.setting(strings.ToLower(name))
	return v
}
