package engine

import (
	"strconv"
	"time"

	"perm/internal/executor"
	"perm/internal/logx"
	"perm/internal/metrics"
)

// This file is the engine's observability surface: process-wide metrics,
// the per-query stage trace behind SET trace / SHOW last_trace, and the
// threshold slow-query log behind SET slow_query_ms / -slow-query-ms.
//
// Everything here rides the session statement path, so it behaves
// identically embedded and over the wire — SHOW last_trace against a
// permserver reads the trace of the server-side session that executed the
// traced query.

// Process-wide engine metrics. Counters are shared by every DB/session in
// the process (the test suite runs many engines at once); per-session
// numbers stay available through SHOW plan_cache_stats / memory_status.
var (
	mQueries = metrics.Default.Counter("perm_engine_queries_total",
		"Statements executed (all kinds, all sessions)")
	mQueryErrors = metrics.Default.Counter("perm_engine_query_errors_total",
		"Statements that failed (parse, plan or execution errors)")
	mQueryLatency = metrics.Default.Histogram("perm_engine_query_seconds",
		"Statement latency, parse through drain", 1e-9)
	mPlanCacheHits = metrics.Default.Counter("perm_engine_plan_cache_hits_total",
		"Plan-cache hits across all sessions")
	mPlanCacheMisses = metrics.Default.Counter("perm_engine_plan_cache_misses_total",
		"Plan-cache misses (cacheable statements that were planned)")
	mSlowQueries = metrics.Default.Counter("perm_engine_slow_queries_total",
		"Statements at or over the session slow_query_ms threshold")
	mParallelQueries = metrics.Default.Counter("perm_engine_parallel_queries_total",
		"Statements in which at least one operator fanned out to parallel workers")
	mParallelWorkers = metrics.Default.Counter("perm_engine_parallel_workers_total",
		"Parallel worker goroutines launched across all statements")
)

// Trace is the stage-level profile of the session's most recent traced
// statement (SET trace = on), retrievable with SHOW last_trace.
type Trace struct {
	SQL      string
	CacheHit bool
	Timings  Timings
	// Open is the subset of Execute spent opening the executor tree — where
	// blocking operators (sorts, hash-join builds) do their up-front work.
	// The drain phase is Execute - Open.
	Open time.Duration
	// Rows is the delivered row count (drain-time, like the command tag).
	Rows int64
	// MemPeak is the largest operator-attributed work_mem high-water mark.
	MemPeak int64
	// SpillFiles/SpillBytes are the statement's spill-pool deltas.
	SpillFiles, SpillBytes int64
	// SubplanHits/SubplanMisses count uncorrelated-subplan memoization.
	SubplanHits, SubplanMisses int64
	// ParallelOps/ParallelWorkers count operators that fanned out to
	// parallel workers and the total workers they launched (0/0 for serial
	// statements and for parallel sessions whose operators all fell back).
	ParallelOps, ParallelWorkers int64
	// Stats is the per-operator tree (the EXPLAIN ANALYZE payload).
	Stats *executor.OpStats
}

// SetSlowQueryMs sets the slow-query threshold programmatically (the
// -slow-query-ms flag): statements taking >= ms log one WARN "slow query"
// record. 0 logs every statement; negative disables (the default).
func (s *Session) SetSlowQueryMs(ms int64) {
	val := "off"
	if ms >= 0 {
		val = strconv.FormatInt(ms, 10)
	}
	s.mustSet("slow_query_ms", val)
}

// SetLog points the session's slow-query records at l (a session starts on
// logx.Default; nil logs nothing). The server hands each connection's
// session a child of its logger that carries the peer's address.
func (s *Session) SetLog(l *logx.Logger) { s.log.Store(l) }

// LastTrace returns the most recent SET trace profile, or nil.
func (s *Session) LastTrace() *Trace { return s.lastTrace.Load() }

// traceOn reports whether SET trace is enabled (memoized flag, not a map
// read, because it is consulted on every statement).
func (s *Session) traceOn() bool { return s.traceFlag.Load() }

// noteStatement records one finished statement into the process metrics and
// the slow-query log. Called for every statement — streamed SELECTs at
// finish, materialized statements at execution — so the counters and the
// threshold see DML and utility statements too.
func (s *Session) noteStatement(sqlText string, t Timings, rows int64, cacheHit bool, nparams int, spillBytes int64) {
	mQueries.Inc()
	total := t.Total()
	mQueryLatency.Observe(int64(total))
	ms := s.slowMs.Load()
	if ms < 0 || total < time.Duration(ms)*time.Millisecond {
		return
	}
	mSlowQueries.Inc()
	// Bind values are never logged, only their count, so the log stays free
	// of the data of parameterized statements.
	s.log.Load().Warn("slow query",
		"duration", total,
		"rows", rows,
		"cache_hit", cacheHit,
		"spill_bytes", spillBytes,
		"params", nparams,
		"sql", sqlText,
	)
}

// noteStreamDone seals observability for one streamed statement: metrics,
// slow-query log, and — when traced — the session's last_trace. Without the
// deep-observation sidecar (no trace, no slow-query threshold at open time)
// only the process counters are touched.
func (s *Session) noteStreamDone(r *Rows) {
	if r.err != nil {
		mQueryErrors.Inc()
	}
	if r.stream != nil {
		if ectx := r.stream.Context(); ectx != nil && ectx.ParallelOps > 0 {
			mParallelQueries.Inc()
			mParallelWorkers.Add(uint64(ectx.ParallelWorkers))
		}
	}
	if r.obs == nil {
		mQueries.Inc()
		mQueryLatency.Observe(int64(r.timings.Total()))
		return
	}
	o := r.obs
	p := s.mem.Pool()
	spillFiles, spillBytes := p.Files()-o.poolFiles0, p.Bytes()-o.poolBytes0
	rows := int64(0)
	if r.stream != nil {
		rows = int64(r.stream.Rows())
	}
	s.noteStatement(o.sqlText, r.timings, rows, r.CacheHit, o.nparams, spillBytes)
	if o.stats != nil {
		tr := &Trace{
			SQL:        o.sqlText,
			CacheHit:   r.CacheHit,
			Timings:    r.timings,
			Open:       o.openDur,
			Rows:       rows,
			SpillFiles: spillFiles,
			SpillBytes: spillBytes,
			Stats:      o.stats,
		}
		o.stats.Walk(func(n *executor.OpStats) {
			if n.MemPeak > tr.MemPeak {
				tr.MemPeak = n.MemPeak
			}
		})
		if o.ectx != nil {
			tr.SubplanHits = int64(o.ectx.SubplanHits)
			tr.SubplanMisses = int64(o.ectx.SubplanMisses)
			tr.ParallelOps = int64(o.ectx.ParallelOps)
			tr.ParallelWorkers = int64(o.ectx.ParallelWorkers)
		}
		s.lastTrace.Store(tr)
	}
}
