package engine

import (
	"fmt"
	"time"

	"perm/internal/algebra"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// This file is the session's streaming result surface. Provenance rewrites
// join every result tuple with its witness tuples, so rewritten results are
// routinely far wider and larger than the original query — materializing
// them (the historical Result contract) caps result size at available RAM.
// Query and Prepare expose the executor's pull-based iterator tree directly:
// columns are known up front, rows are produced one Next at a time, and the
// command tag's row count is whatever the drain actually delivered. Execute
// remains exactly what it always was — a thin drain wrapper over Query — so
// fully-buffered callers keep working unchanged.

// Rows is a streaming statement result. Columns, Schema, Rewrites and
// CacheHit are valid immediately; rows arrive through Next. For statements
// without a streaming plan (DML, DDL, SET/SHOW, EXPLAIN) the result is small
// and already complete, and Rows simply iterates it.
//
// A Rows must be fully drained or closed before the session runs its next
// statement from the same goroutine context (the executor tree holds
// operator state until then). Next/Close are single-goroutine, like the
// iterators beneath them.
type Rows struct {
	// Columns are the output column names (empty for DDL/DML).
	Columns []string
	Schema  algebra.Schema
	// Rewrites lists the provenance-rewrite decisions taken.
	Rewrites []string
	// CacheHit reports that the statement was served from the session plan
	// cache, skipping parse, analyze, rewrite and planning entirely.
	CacheHit bool

	done bool
	pos  int32 // cursor into res.Rows for materialized results

	stream  *executor.Stream // streaming SELECT plan; nil for materialized results
	res     *Result          // complete result backing non-streamed statements
	opened  time.Time
	timings Timings
	tag     string
	err     error

	// Observability plumbing (observe.go): the owning session records
	// process metrics at finish; obs carries the deep-observation state —
	// statement text, stats tree, spill baselines — and is allocated only
	// when SET trace or the slow-query log is armed, so the default path
	// keeps the pre-instrumentation Rows footprint.
	sess *Session
	obs  *rowsObs
}

// rowsObs is the deep-observation sidecar of one streamed statement,
// allocated only when SET trace is on or a slow-query threshold is set at
// open time.
type rowsObs struct {
	sqlText    string
	nparams    int
	stats      *executor.OpStats
	ectx       *executor.Context
	poolFiles0 int64
	poolBytes0 int64
	// openDur is the executor-open slice of the execute stage (blocking
	// operators' up-front work).
	openDur time.Duration
}

// materializedRows wraps an already-complete result in the Rows interface.
func materializedRows(res *Result) *Rows {
	return &Rows{
		Columns:  res.Columns,
		Schema:   res.Schema,
		Rewrites: res.Rewrites,
		CacheHit: res.CacheHit,
		res:      res,
		timings:  res.Timings,
		tag:      res.Tag,
	}
}

// Next returns the next row, or (nil, nil) at end of stream. Errors —
// including interrupt and deadline unwinds mid-stream — are sticky.
func (r *Rows) Next() (value.Row, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.stream == nil {
		if r.res == nil || int(r.pos) >= len(r.res.Rows) {
			r.done = true
			return nil, nil
		}
		row := r.res.Rows[r.pos]
		r.pos++
		return row, nil
	}
	row, err := r.stream.Next()
	if err != nil {
		r.err = err
		r.finish()
		return nil, err
	}
	if row == nil {
		r.finish()
	}
	return row, nil
}

// finish seals the result: the executor tree is released, the execute-stage
// timing stops, and the command tag is fixed from the rows actually
// delivered — drain-time row counts, not plan-time estimates.
func (r *Rows) finish() {
	if r.done {
		return
	}
	r.done = true
	if r.stream != nil {
		r.stream.Close()
		// Drop the statement's snapshot pin: the stream has delivered (or
		// abandoned) its last row, so the version vacuum may advance past it.
		r.stream.Context().Release()
		r.timings.Execute += time.Since(r.opened)
		r.tag = fmt.Sprintf("SELECT %d", r.stream.Rows())
		if r.sess != nil {
			r.sess.noteStreamDone(r)
		}
	}
}

// Close releases the result. Closing a half-read stream abandons the
// remaining rows (the tag then reflects only the delivered count). Close is
// idempotent and never blocks.
func (r *Rows) Close() error {
	r.finish()
	return nil
}

// Tag returns the command tag. For streamed SELECTs it is only final once
// the stream is exhausted or closed: "SELECT n" counts delivered rows.
func (r *Rows) Tag() string {
	if r.stream != nil && !r.done {
		return fmt.Sprintf("SELECT %d", r.stream.Rows())
	}
	return r.tag
}

// Timings reports the per-stage latencies; the execute stage accumulates
// until the stream finishes (for a network cursor it therefore spans the
// client's fetch cadence, not just CPU time).
func (r *Rows) Timings() Timings {
	if r.stream != nil && !r.done {
		t := r.timings
		t.Execute += time.Since(r.opened)
		return t
	}
	return r.timings
}

// Err returns the sticky stream error, if any.
func (r *Rows) Err() error { return r.err }

// DrainResult materializes the remaining rows into the classic Result —
// the bridge that keeps Execute's fully-buffered contract (including the
// executor row budget) on top of the streaming path.
func (r *Rows) DrainResult() (*Result, error) {
	if r.stream == nil {
		r.done = true
		return r.res, nil
	}
	rows, err := r.stream.Drain()
	if err != nil {
		r.err = err
		r.finish()
		return nil, err
	}
	r.finish()
	return &Result{
		Columns:  r.Columns,
		Schema:   r.Schema,
		Rows:     rows,
		Tag:      r.tag,
		Timings:  r.timings,
		Rewrites: r.Rewrites,
		CacheHit: r.CacheHit,
	}, nil
}

// Query runs one SQL statement and returns its result as a stream: SELECTs
// (including SELECT PROVENANCE) expose the live executor iterator tree —
// server-side memory stays bounded however large the provenance result —
// while other statements execute eagerly and replay their (small) output.
// The session plan cache works exactly as under Execute. args bind the
// statement's `?` placeholders, as Prepare + Query would.
func (s *Session) Query(text string, args ...value.Value) (*Rows, error) {
	return s.query(text, nil, args)
}

// query is the single execution entry: optional pre-parsed statement
// (prepared path) and optional bound parameter values. Text is parsed, and
// its placeholders counted against args, only when the plan cache misses: a
// cached plan was keyed on this text with this many arguments.
func (s *Session) query(text string, st sql.Statement, args []value.Value) (*Rows, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("engine: session is closed")
	}
	caching := s.planCacheOn() && cacheableStatement(text)
	// One store pins the whole statement: version check, cache hit
	// execution, and the full plan pipeline all see the same store even if
	// a replica re-bootstrap swaps the database's store mid-statement.
	store := s.db.Store()
	var key, keyFingerprint string
	// Capture the schema version BEFORE planning: if concurrent DDL lands
	// mid-plan, the stored entry is tagged stale and discarded on next use.
	var schemaVersion uint64
	if caching {
		key, keyFingerprint = s.cacheKey(text, args)
		schemaVersion = store.Catalog().Version()
		if e := s.cache.get(key, schemaVersion); e != nil {
			mPlanCacheHits.Inc()
			rows, err := s.openCached(e, store, args)
			if err != nil {
				mQueryErrors.Inc()
				return nil, err
			}
			rows.sess = s
			if rows.obs != nil {
				rows.obs.sqlText, rows.obs.nparams = text, len(args)
			}
			return rows, nil
		}
		mPlanCacheMisses.Inc()
	}
	t0 := time.Now()
	if st == nil {
		var n int
		var err error
		if st, n, err = sql.ParseWithParams(text); err == nil {
			err = bindCheck(n, args)
		}
		if err != nil {
			mQueryErrors.Inc()
			return nil, err
		}
	}
	parseDur := time.Since(t0)
	if sel, ok := st.(*sql.SelectStmt); ok {
		rows, plan, err := s.openSelect(sel, store, args)
		if err != nil {
			mQueryErrors.Inc()
			return nil, err
		}
		rows.sess = s
		if rows.obs != nil {
			rows.obs.sqlText, rows.obs.nparams = text, len(args)
		}
		rows.timings.Parse = parseDur
		// Guard against a concurrent SET landing mid-plan on the shared
		// implicit session: the plan was built from the settings as they were
		// DURING planning, so store it only if the fingerprint still matches
		// the one embedded in the key (the settings analog of the
		// schema-version check in get).
		if caching && s.currentFingerprint() == keyFingerprint {
			s.cache.put(key, &planCacheEntry{
				plan:          plan,
				columns:       rows.Columns,
				decisions:     rows.Rewrites,
				schemaVersion: schemaVersion,
			})
		}
		return rows, nil
	}
	var spill0 int64
	if s.mem != nil {
		spill0 = s.mem.Pool().Bytes()
	}
	res, err := s.executeStatement(st, args)
	if err != nil {
		mQueryErrors.Inc()
		return nil, err
	}
	res.Timings.Parse = parseDur
	var spillBytes int64
	if s.mem != nil {
		spillBytes = s.mem.Pool().Bytes() - spill0
	}
	s.noteStatement(text, res.Timings, int64(len(res.Rows)), res.CacheHit, len(args), spillBytes)
	return materializedRows(res), nil
}

// openSelect runs the front half of the Figure 3 pipeline against the one
// pinned store and opens the executor stream, returning the live rows and
// the optimized plan for caching.
func (s *Session) openSelect(sel *sql.SelectStmt, store *storage.Store, args []value.Value) (*Rows, algebra.Op, error) {
	rows := &Rows{}
	t0 := time.Now()
	plan, decisions, rewriteDur, err := s.analyzeOn(store, sel, paramKinds(args))
	if err != nil {
		return nil, nil, err
	}
	rows.timings.Analyze = time.Since(t0)
	rows.timings.Rewrite = rewriteDur
	rows.Rewrites = decisions

	t1 := time.Now()
	plan = s.planOn(store, plan)
	rows.timings.Plan = time.Since(t1)

	ctx := s.execContextOn(store)
	ctx.Params = args
	if err := s.openStream(rows, ctx, plan); err != nil {
		ctx.Release()
		return nil, nil, err
	}
	rows.Schema = rows.stream.Schema()
	rows.Columns = rows.Schema.Names()
	return rows, plan, nil
}

// openStream opens the executor stream behind rows. When SET trace is on the
// build is instrumented; when either trace or a slow-query threshold is
// armed, the deep-observation sidecar captures spill-pool baselines and the
// open-stage timing. The default path — no trace, no threshold — does
// exactly what it did before instrumentation existed.
func (s *Session) openStream(rows *Rows, ctx *executor.Context, plan algebra.Op) error {
	trace := s.traceOn()
	if !trace && s.slowMs.Load() < 0 {
		rows.opened = time.Now()
		stream, err := executor.Open(ctx, plan)
		if err != nil {
			return err
		}
		rows.stream = stream
		return nil
	}
	obs := &rowsObs{}
	if s.mem != nil {
		p := s.mem.Pool()
		obs.poolFiles0, obs.poolBytes0 = p.Files(), p.Bytes()
	}
	rows.obs = obs
	rows.opened = time.Now()
	var stream *executor.Stream
	var err error
	if trace {
		var root *executor.OpStats
		stream, root, err = executor.OpenInstrumented(ctx, plan)
		obs.stats, obs.ectx = root, ctx
	} else {
		stream, err = executor.Open(ctx, plan)
	}
	if err != nil {
		return err
	}
	obs.openDur = time.Since(rows.opened)
	rows.stream = stream
	return nil
}

// openCached opens a stream over a previously planned statement: only the
// execute stage of the Figure 3 pipeline is paid, the rest reports zero.
func (s *Session) openCached(e *planCacheEntry, store *storage.Store, args []value.Value) (*Rows, error) {
	// Copy the decisions so callers appending to Rewrites cannot write into
	// the shared cache entry (hits may be served concurrently).
	var decisions []string
	if len(e.decisions) > 0 {
		decisions = append(make([]string, 0, len(e.decisions)), e.decisions...)
	}
	ctx := s.execContextOn(store)
	ctx.Params = args
	rows := &Rows{CacheHit: true, Rewrites: decisions}
	if err := s.openStream(rows, ctx, e.plan); err != nil {
		ctx.Release()
		return nil, err
	}
	rows.Schema = rows.stream.Schema()
	rows.Columns = e.columns
	return rows, nil
}

// paramKinds extracts the kind vector of a bound argument list — the part
// of the plan-cache key (and the analyzer's typing input) parameters
// contribute.
func paramKinds(args []value.Value) []value.Kind {
	if len(args) == 0 {
		return nil
	}
	kinds := make([]value.Kind, len(args))
	for i, v := range args {
		kinds[i] = v.Kind()
	}
	return kinds
}

// Prepared is a server-side prepared statement: parsed once, analyzed and
// planned per distinct bound-argument kind vector (entries live in the
// session plan cache keyed on statement text + parameter kinds), executed
// with true binds — parameter values never pass through SQL text.
type Prepared struct {
	s    *Session
	text string
	st   sql.Statement
	n    int
}

// Prepare parses one statement and returns its prepared handle. `?`
// placeholders are numbered in textual order; Query/Exec bind them
// positionally.
func (s *Session) Prepare(text string) (*Prepared, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("engine: session is closed")
	}
	st, n, err := sql.ParseWithParams(text)
	if err != nil {
		return nil, err
	}
	return &Prepared{s: s, text: text, st: st, n: n}, nil
}

// NumParams reports how many `?` placeholders the statement binds.
func (p *Prepared) NumParams() int { return p.n }

// bindCheck validates the argument count of a statement with n placeholders.
func bindCheck(n int, args []value.Value) error {
	if len(args) != n {
		return fmt.Errorf("engine: statement binds %d parameters, got %d arguments", n, len(args))
	}
	return nil
}

// Query executes the prepared statement with args bound, streaming the
// result.
func (p *Prepared) Query(args ...value.Value) (*Rows, error) {
	if err := bindCheck(p.n, args); err != nil {
		return nil, err
	}
	return p.s.query(p.text, p.st, args)
}

// Exec executes the prepared statement with args bound and drains the
// result — the materialized companion of Query, used for DML.
func (p *Prepared) Exec(args ...value.Value) (*Result, error) {
	rows, err := p.Query(args...)
	if err != nil {
		return nil, err
	}
	return rows.DrainResult()
}
