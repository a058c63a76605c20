package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"perm/internal/algebra"
	"perm/internal/analyzer"
	"perm/internal/core"
	"perm/internal/engine"
	"perm/internal/executor"
	"perm/internal/planner"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
	"perm/internal/wire"
)

// span is one timed call into a layer. Spans of one statement execution
// share Stmt; Parent is the index of the enclosing span in the spans of
// trace.json, -1 for a statement's root. Times are nanoseconds since the
// traced pass began; Allocs is the heap objects allocated inside the span.
// SelfNs is the duration minus what the child spans cover.
type span struct {
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"` // statement key, on roots
	Stmt    int    `json:"stmt"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	Allocs  int64  `json:"allocs"`

	selfAllocs int64
}

// keepStmts is how many statement executions trace.json holds; the
// per-layer sums run over every traced statement.
const keepStmts = 400

// layerSum accumulates a span name's self time and self allocations.
type layerSum struct {
	selfNs, allocs, count int64
}

// tracer records spans in memory. A nil tracer records nothing, which is the
// untraced pass the tracing overhead is measured against.
type tracer struct {
	t0     time.Time
	cur    []span // the statement in flight; cur[0] is its root
	stack  []int
	kept   []span
	stmts  int
	sums   map[string]*layerSum
	sample [1]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), sums: map[string]*layerSum{}}
	t.sample[0].Name = "/gc/heap/allocs:objects"
	return t
}

func (t *tracer) allocs() int64 {
	metrics.Read(t.sample[:])
	return int64(t.sample[0].Value.Uint64())
}

// begin opens a span under the innermost open one. The allocation counter is
// read before the clock at begin and after it at end, so reading it is not
// inside the span's own time.
func (t *tracer) begin(name, key string) int {
	if t == nil {
		return 0
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.cur)
	t.cur = append(t.cur, span{Name: name, Key: key, Stmt: t.stmts, Parent: parent, Allocs: t.allocs()})
	t.stack = append(t.stack, i)
	t.cur[i].StartNs = int64(time.Since(t.t0))
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	sp := &t.cur[i]
	sp.EndNs = int64(time.Since(t.t0))
	sp.Allocs = t.allocs() - sp.Allocs
	t.stack = t.stack[:len(t.stack)-1]
	if i == 0 {
		t.flush()
	}
}

// flush closes a statement: self times, the layer sums, and the first
// keepStmts statements go to trace.json.
func (t *tracer) flush() {
	for i := range t.cur {
		t.cur[i].SelfNs = t.cur[i].EndNs - t.cur[i].StartNs
		t.cur[i].selfAllocs = t.cur[i].Allocs
	}
	for i := range t.cur {
		if p := t.cur[i].Parent; p >= 0 {
			t.cur[p].SelfNs -= t.cur[i].EndNs - t.cur[i].StartNs
			t.cur[p].selfAllocs -= t.cur[i].Allocs
		}
	}
	keep := t.stmts < keepStmts
	base := len(t.kept)
	for _, sp := range t.cur {
		s := t.sums[sp.Name]
		if s == nil {
			s = &layerSum{}
			t.sums[sp.Name] = s
		}
		s.selfNs += sp.SelfNs
		s.allocs += sp.selfAllocs
		s.count++
		if keep {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			t.kept = append(t.kept, sp)
		}
	}
	t.cur = t.cur[:0]
	t.stmts++
}

// stager is the pipeline of engine.Session, run stage by stage from the
// outside with a span around each call into a layer:
//
//	sql.Parse → analyzer.AnalyzeSelect (hook → core.Rewriter.Rewrite) →
//	planner.Optimize → executor.Open → Stream.Drain →
//	wire.AppendRowBatch → wire.DecodeRowBatch
//
// It is a runner, so the closed loop and the checks drive it like any other
// path. Statements that are not queries go to an embedded session under one
// engine.dml span.
type stager struct {
	store *storage.Store
	mem   *executor.MemTracker
	dml   *sessRunner
	tr    *tracer
	buf   []byte
	args  []value.Value
	kinds []value.Kind

	// count makes run take the instrumented, untimed route that fills the
	// exact counts.
	count bool
	counts
}

// counts are exact, summed over the statements run while stager.count is
// set: algebra nodes into and out of the rewriter, joins left without an
// equi-key after optimization, rows every operator handed up, result rows
// and their encoded bytes.
type counts struct {
	opsIn, opsOut               int
	crossJoins                  int
	rowsTouched, rowsOut, bytes int64
}

func (e *env) newStager() *stager {
	budget := int64(engine.DefaultWorkMem)
	if e.w.workMem > 0 {
		budget = e.w.workMem
	}
	return &stager{store: e.db.Store(), mem: executor.NewMemTracker(budget, e.dir), dml: newSessRunner(e.refSession())}
}

func (g *stager) close() error {
	g.mem.Cleanup()
	return g.dml.close()
}

// rewriteOptions maps a statement's ON CONTRIBUTION clause to the rewriter's
// options the way a session with default settings does.
func rewriteOptions(c sql.ContributionSemantics) core.Options {
	opts := core.DefaultOptions()
	switch c {
	case sql.Copy:
		opts.Semantics = core.CopySemantics
	case sql.CopyComplete:
		opts.Semantics = core.CopyCompleteSemantics
	case sql.Influence:
		opts.Semantics = core.InfluenceSemantics
	}
	return opts
}

// hasEquiKey reports whether the join condition has a conjunct the executor
// can hash on: an equality whose sides each reference one input only.
func hasEquiKey(j *algebra.Join) bool {
	if j.Cond == nil {
		return false
	}
	nLeft := len(j.Left.Schema())
	side := func(e algebra.Expr) int { // 0 left, 1 right, -1 both
		used := map[int]bool{}
		algebra.ColsUsed(e, used)
		l, r := false, false
		for idx := range used {
			if idx < nLeft {
				l = true
			} else {
				r = true
			}
		}
		switch {
		case l && r:
			return -1
		case r:
			return 1
		}
		return 0
	}
	for _, conj := range algebra.SplitAnd(j.Cond) {
		b, ok := conj.(*algebra.Bin)
		if !ok || (b.Op != sql.OpEq && b.Op != sql.OpNotDistinct) || algebra.HasSubplan(b.L) || algebra.HasSubplan(b.R) {
			continue
		}
		if l, r := side(b.L), side(b.R); l >= 0 && r >= 0 && l != r {
			return true
		}
	}
	return false
}

func (g *stager) run(o *op, sink *[]value.Row) (int, error) {
	tr := g.tr
	root := tr.begin("stmt", o.st.key())
	defer tr.end(root)

	sp := tr.begin("sql.parse", "")
	st, _, err := sql.ParseWithParams(o.st.sql)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		sp = tr.begin("engine.dml", "")
		n, err := g.dml.run(o, sink)
		tr.end(sp)
		return n, err
	}
	g.args, g.kinds = intValues(g.args, o.args), g.kinds[:0]
	for range o.args {
		g.kinds = append(g.kinds, value.KindInt)
	}

	sp = tr.begin("analyzer.analyze", "")
	an := analyzer.New(g.store.Catalog())
	an.Params = g.kinds
	an.Rewrite = func(req analyzer.ProvRequest) (algebra.Op, error) {
		sp := tr.begin("core.rewrite", "")
		out, err := core.NewRewriter(rewriteOptions(req.Contribution)).Rewrite(req.Input)
		tr.end(sp)
		if g.count && err == nil {
			g.opsIn += algebra.CountOps(req.Input)
			g.opsOut += algebra.CountOps(out)
		}
		return out, err
	}
	plan, err := an.AnalyzeSelect(sel)
	tr.end(sp)
	if err != nil {
		return 0, err
	}

	sp = tr.begin("planner.optimize", "")
	plan = planner.New(g.store.Catalog()).Optimize(plan)
	tr.end(sp)

	ctx := executor.NewContext(g.store)
	ctx.Mem, ctx.Parallel, ctx.Params = g.mem, 1, g.args
	snap := g.store.PinSnapshot()
	ctx.SnapLSN = snap
	ctx.SetUnpin(func() { g.store.UnpinSnapshot(snap) })
	defer ctx.Release()

	if g.count {
		// The counting pass runs instrumented: Σ OpStats.Rows is the rows
		// every operator handed up, the work behind each result row.
		algebra.Walk(plan, func(op algebra.Op) {
			if j, ok := op.(*algebra.Join); ok && !j.Lateral && !hasEquiKey(j) {
				g.crossJoins++
			}
		})
		stream, stats, err := executor.OpenInstrumented(ctx, plan)
		if err != nil {
			return 0, err
		}
		rows, err := stream.Drain()
		if err != nil {
			return 0, err
		}
		stats.Walk(func(n *executor.OpStats) { g.rowsTouched += n.Rows })
		g.rowsOut += int64(len(rows))
		g.bytes += int64(len(wire.AppendRowBatch(g.buf[:0], rows)))
		if sink != nil {
			*sink = append(*sink, rows...)
		}
		return len(rows), nil
	}

	sp = tr.begin("executor.open", "")
	stream, err := executor.Open(ctx, plan)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("executor.drain", "")
	rows, err := stream.Drain()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("wire.encode", "")
	g.buf = wire.AppendRowBatch(g.buf[:0], rows)
	tr.end(sp)
	sp = tr.begin("wire.decode", "")
	back, err := wire.DecodeRowBatch(g.buf)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if sink != nil {
		*sink = append(*sink, back...)
	}
	return len(back), nil
}

// traceResult is what a traced run reports.
type traceResult struct {
	metrics       map[string]metric
	stmts, failed int64
}

// Shares of -seconds the three timed passes of a traced run get; the layer
// probes after them do a fixed amount of work.
const (
	realShare     = 0.25
	tracedShare   = 0.25
	untracedShare = 0.15
)

var (
	showPlanCache = &stmt{class: "SHOW", sql: "SHOW plan_cache_stats"} // hits, misses, entries
	showMemory    = &stmt{class: "SHOW", sql: "SHOW memory_status"}    // work_mem, tracked, peak, spill_files, spill_bytes, temp_dir
)

// counters are the session counters a traced run reads before and after the
// workload's own pass.
type counters struct {
	hits, peak, spillFiles, spillBytes int64
}

// readCounters sums the counters of every client's session, read with SHOW
// on the client's own path so that it reaches the server-side sessions too.
func readCounters(clients []*client) (counters, error) {
	var c counters
	for _, cl := range clients {
		var pc, mem []value.Row
		if _, err := cl.run.run(&op{st: showPlanCache}, &pc); err != nil || len(pc) != 1 {
			return c, fmt.Errorf("%s: %d rows, err %v", showPlanCache.sql, len(pc), err)
		}
		if _, err := cl.run.run(&op{st: showMemory}, &mem); err != nil || len(mem) != 1 {
			return c, fmt.Errorf("%s: %d rows, err %v", showMemory.sql, len(mem), err)
		}
		c.hits += pc[0][0].Int()
		if peak := mem[0][2].Int(); peak > c.peak {
			c.peak = peak
		}
		c.spillFiles += mem[0][3].Int()
		c.spillBytes += mem[0][4].Int()
	}
	return c, nil
}

// traced is the --trace 1 run: the workload on its real path (statement
// classes, plan cache, spill and memory counters), then on the staged
// pipeline with spans on and with spans off, then the layer probes.
func (e *env) traced(ctx context.Context, c *checker, cfg config) (*traceResult, error) {
	m := map[string]metric{}
	res := &traceResult{metrics: m}
	share := func(f float64) time.Duration { return time.Duration(float64(cfg.window) * f) }

	// The workload's own path.
	before, err := readCounters(e.clients)
	if err != nil {
		return nil, err
	}
	live := runWindow(ctx, e.w, e.clients, share(realShare))
	res.stmts, res.failed = live.stmts, live.failed
	after, err := readCounters(e.clients)
	if err != nil {
		return nil, err
	}
	cycles := float64(len(live.cycles))
	for _, name := range classMetrics() {
		m[name] = metric{0, "ms"}
	}
	for _, st := range e.w.stmts {
		if name := classMetric(st, e.w.dataset == "oltp"); m[name].Unit != "" {
			m[name] = metric{ms(quantile(live.stmt[st.idx], 0.5)), "ms"}
		}
	}
	m["engine.plancache_hit_frac"] = metric{float64(after.hits-before.hits) / float64(live.stmts), "frac"}
	m["spill.bytes_per_cycle"] = metric{float64(after.spillBytes-before.spillBytes) / cycles, "B"}
	m["spill.files_per_cycle"] = metric{float64(after.spillFiles-before.spillFiles) / cycles, "count"}
	m["executor.peak_mem_mb"] = metric{float64(after.peak) / (1 << 20), "MiB"}
	m["server.cycle_p99_ms"] = metric{ms(quantile(live.cycles, 0.99)), "ms"}
	mv := e.db.Store().MVCCStatus()
	m["storage.versions_per_slot"] = metric{float64(mv.Versions) / float64(mv.Slots), "x"}

	// The staged pipeline: checked against the session, counted, then timed
	// with spans and without.
	g := e.newStager()
	defer g.close()
	next := e.clients[0].next
	staged := []*client{{run: g, next: next}}
	g.count = true
	e.verifyPath(c, "staged pipeline (instrumented)", g)
	g.count = false
	e.verifyPath(c, "staged pipeline", g)
	g.count, g.counts = true, counts{}
	counted := newSamples(e.w)
	staged[0].cycle(counted)
	g.count = false

	g.tr = newTracer()
	traced := runWindow(ctx, e.w, staged, share(tracedShare))
	tr := g.tr
	g.tr = nil
	untraced := runWindow(ctx, e.w, staged, share(untracedShare))
	res.stmts += counted.stmts + traced.stmts + untraced.stmts
	res.failed += counted.failed + traced.failed + untraced.failed
	for _, w := range []*samples{live.samples, counted, traced.samples, untraced.samples} {
		if w.err != nil {
			c.errs = append(c.errs, "in the traced run: "+w.err.Error())
			break
		}
	}

	n := float64(traced.stmts)
	sum := func(name string) *layerSum {
		if s := tr.sums[name]; s != nil {
			return s
		}
		return &layerSum{}
	}
	for layer, name := range map[string]string{
		"sql.parse": "sql.parse", "analyzer.analyze": "analyzer.analyze",
		"core.rewrite": "core.rewrite", "planner.optimize": "planner.optimize",
	} {
		m[layer+"_us"] = metric{float64(sum(name).selfNs) / 1e3 / n, "us"}
		m[layer+"_allocs"] = metric{float64(sum(name).allocs) / n, "count"}
	}
	m["executor.open_us"] = metric{float64(sum("executor.open").selfNs) / 1e3 / n, "us"}
	execNs := float64(sum("executor.open").selfNs + sum("executor.drain").selfNs)
	execAllocs := float64(sum("executor.open").allocs + sum("executor.drain").allocs)
	tracedCycles := float64(len(traced.cycles))
	// The counted cycle gives rows per cycle; the timed pass gives time.
	touched, out := float64(g.rowsTouched), float64(g.rowsOut)
	m["executor.ns_per_row_touched"] = metric{ratio(execNs/tracedCycles, touched), "ns"}
	m["executor.rows_touched_per_result"] = metric{ratio(touched, out), "x"}
	m["executor.allocs_per_result_row"] = metric{ratio(execAllocs/tracedCycles, out), "count"}
	m["wire.encode_ns_row"] = metric{ratio(float64(sum("wire.encode").selfNs)/tracedCycles, out), "ns"}
	m["wire.decode_ns_row"] = metric{ratio(float64(sum("wire.decode").selfNs)/tracedCycles, out), "ns"}
	m["wire.bytes_per_row"] = metric{ratio(float64(g.bytes), out), "B"}
	m["core.ops_out_per_op_in"] = metric{ratio(float64(g.opsOut), float64(g.opsIn)), "x"}
	m["planner.cross_joins_left"] = metric{float64(g.crossJoins), "count"}

	var selfAll, cycleAll int64
	for _, s := range tr.sums {
		selfAll += s.selfNs
	}
	for _, d := range traced.cycles {
		cycleAll += int64(d)
	}
	m["trace.self_sum_frac"] = metric{ratio(float64(selfAll), float64(cycleAll)), "frac"}
	m["trace.overhead_frac"] = metric{ratio(float64(quantile(traced.cycles, 0.5)), float64(quantile(untraced.cycles, 0.5))) - 1, "frac"}

	if err = e.probes(ctx, c, m); err != nil {
		return nil, err
	}

	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m["process.peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MiB"}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["process.gc_cpu_frac"] = metric{mem.GCCPUFraction, "frac"}

	fmt.Printf("%s traced: %d real cycles, %d traced cycles (%d spans kept), %d untraced cycles\n",
		e.w.name, len(live.cycles), len(traced.cycles), len(tr.kept), len(untraced.cycles))
	return res, writeTrace(cfg.out, e.w.name, tr)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// classMetric names a statement's p50 metric: engine.ms.<key> for the seven
// classes of the embedded workloads, server.ms.<key> for wire_oltp's.
func classMetric(st *stmt, oltp bool) string {
	if oltp {
		return "server.ms." + st.key()
	}
	return "engine.ms." + st.key()
}

// classMetrics are all the per-statement metrics. A workload reports 0 for
// the statements it does not run; cold_frontend's three SQL-PLE statements
// have none.
func classMetrics() []string {
	var names []string
	for _, st := range classStmts() {
		names = append(names, classMetric(st, false))
	}
	for _, st := range oltpStmts() {
		names = append(names, classMetric(st, true))
	}
	return names
}

// writeTrace writes the kept spans and the per-layer sums to
// <out>/trace.json.
func writeTrace(dir, workload string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type layer struct {
		SelfNs int64 `json:"self_ns"`
		Allocs int64 `json:"allocs"`
		Spans  int64 `json:"spans"`
	}
	layers := map[string]layer{}
	for name, s := range tr.sums {
		layers[name] = layer{s.selfNs, s.allocs, s.count}
	}
	buf, err := json.Marshal(struct {
		Workload   string           `json:"workload"`
		Statements int              `json:"statements"`
		Layers     map[string]layer `json:"layers"`
		Spans      []span           `json:"spans"`
	}{workload, tr.stmts, layers, tr.kept})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), buf, 0o644)
}
