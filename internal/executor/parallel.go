package executor

import (
	"errors"
	"sync"
	"time"

	"perm/internal/algebra"
	"perm/internal/storage"
	"perm/internal/value"
)

// Intra-query parallelism is a property of the one executor, not a second set
// of operators. The builder (context.go) wraps every subtree that can run
// partition-wise — together with its ordinary serial iterator — in a
// gatherIter. At Open the gather opens one cursor over the base table as this
// statement sees it, cuts it into ctx.Parallel contiguous slot ranges of the
// one heap it pinned, and runs the same subtree, built by the same builder,
// once per range on a worker goroutine:
//
//   - A Scan/Select/Project chain. Workers stream their range through the
//     chain; the coordinator concatenates worker outputs in worker order,
//     which for contiguous ranges over order-preserving operators is exactly
//     the serial row order.
//   - A join whose probe (left) side is such a chain. The coordinator
//     materializes the build side once; each worker joins its probe range
//     against the shared read-only rows with a private hash join (its own
//     compiled expressions, hash table, and memory account against the one
//     shared budget; on the empty key when the join has no equi key).
//     Probe-side-local kinds only (INNER/LEFT/CROSS): their output factors
//     by probe row, so worker-order concatenation again reproduces the
//     serial order byte for byte.
//   - Hash aggregation over such a chain. Workers fold partial group states
//     over their range; the coordinator merges partials in worker order
//     (count/sum/min/max compose exactly), which reproduces the serial
//     first-appearance emission order.
//
// Workers share the statement's interrupt channel, deadline and MemTracker
// through workerClone contexts; the exchange between a worker and the
// coordinator is a bounded channel of row batches, so a fast worker parks
// after parallelQueueLen batches instead of buffering its whole output. Close
// cancels via the quit channel and joins every worker — no goroutine outlives
// its statement.
//
// Whenever fan-out is off the gather runs the serial iterator on the caller's
// goroutine with no exchange — always with identical results, since the
// parallel plans are exact: degree < 2 at Open, a base table smaller than
// minParallelRows, a row budget (per-worker budgets would not add up to the
// serial semantics), a join whose build side cannot stay resident within
// work_mem, or an aggregation whose group table outgrows it (partial-state
// spilling stays a serial-path feature).

const (
	// parallelBatchRows is the exchange batch size: one channel operation per
	// this many rows.
	parallelBatchRows = 128
	// parallelQueueLen bounds each worker's exchange queue, in batches.
	parallelQueueLen = 8
	// minParallelRows is the smallest scan worth fanning out, in cursor
	// positions (slots, dead ones included, and a transaction's inserts);
	// below it the goroutine and channel overhead outweighs any per-row work.
	minParallelRows = 2048
)

// errParallelOverflow is the internal signal that a parallel operator's
// memory-bounded state outgrew work_mem and the serial (spilling) path must
// run instead. It never escapes the executor.
var errParallelOverflow = errors.New("executor: parallel operator over memory budget")

// --- eligibility ----------------------------------------------------------------

// fanOutLeaf returns the base scan to partition when op's subtree can run
// partition-wise, or nil. A bare scan partitions fine but gains nothing:
// moving rows through the exchange costs more than the heap walk it
// replaces.
func fanOutLeaf(op algebra.Op) *algebra.Scan {
	switch o := op.(type) {
	case *algebra.Select, *algebra.Project:
		return gatherLeaf(op)
	case *algebra.Join:
		if parJoinEligible(o) {
			return gatherLeaf(o.Left)
		}
	case *algebra.Agg:
		if parAggEligible(o) {
			return gatherLeaf(o.Input)
		}
	}
	return nil
}

// exprParSafe reports whether an expression may run inside a worker: no
// subplans (their caches and any correlation belong to the statement context)
// and no outer references (they bind to the coordinator's correlation stack,
// which workers do not inherit).
func exprParSafe(e algebra.Expr) bool {
	return e == nil || (!algebra.HasSubplan(e) && !algebra.HasOuterRef(e))
}

// gatherLeaf returns the unique Scan leaf of a range-partitionable chain —
// Scan under any stack of parallel-safe Select/Project (and the pass-through
// BaseRel/ProvDone markers) — or nil when the subtree has another shape.
func gatherLeaf(op algebra.Op) *algebra.Scan {
	switch o := skipMarkers(op).(type) {
	case *algebra.Scan:
		if o.RowID { // the Modify resolves its row ids in the one cursor that read them
			return nil
		}
		return o
	case *algebra.Select:
		if !exprParSafe(o.Cond) {
			return nil
		}
		return gatherLeaf(o.Input)
	case *algebra.Project:
		for _, e := range o.Exprs {
			if !exprParSafe(e) {
				return nil
			}
		}
		return gatherLeaf(o.Input)
	}
	return nil
}

// parJoinEligible: non-lateral probe-side-local kinds whose output factors by
// probe row, a parallel-safe condition, and a partitionable probe side.
func parJoinEligible(o *algebra.Join) bool {
	if o.Lateral {
		return false
	}
	switch o.Kind {
	case algebra.JoinInner, algebra.JoinLeft, algebra.JoinCross:
	default:
		// FULL/RIGHT emit unmatched build rows — shared mutable matched state
		// across workers; stays serial.
		return false
	}
	if !exprParSafe(o.Cond) {
		return false
	}
	return gatherLeaf(o.Left) != nil
}

// parAggEligible: partitionable input, parallel-safe expressions, and no
// float SUM/AVG (float addition is not associative, so worker-block fold order
// could diverge from the serial row order in the last bits).
func parAggEligible(o *algebra.Agg) bool {
	for _, e := range o.GroupBy {
		if !exprParSafe(e) {
			return false
		}
	}
	for _, ae := range o.Aggs {
		if ae.Arg != nil {
			if !exprParSafe(ae.Arg) {
				return false
			}
			if (ae.Func == algebra.AggSum || ae.Func == algebra.AggAvg) && ae.Arg.Type() == value.KindFloat {
				return false
			}
		}
	}
	return gatherLeaf(o.Input) != nil
}

// --- worker plumbing ------------------------------------------------------------

// partition is what one worker's subtree runs over in place of the plan's
// own inputs, and where a partial aggregation leaves its result.
type partition struct {
	// leaf is the worker's contiguous slot range of the base scan's cursor.
	leaf storage.Cursor
	// right is a join's build side, materialized once by the coordinator and
	// shared read-only by every worker.
	right []value.Row
	// groups and states receive an aggregation worker's group table (see
	// aggFold); the coordinator reads them after the worker's end-of-stream.
	groups []aggGroup
	states []aggState
}

// rowsIter replays a worker's shared build side.
type rowsIter struct {
	rows []value.Row
	pos  int
}

func (r *rowsIter) Open(*Context) error { r.pos = 0; return nil }

func (r *rowsIter) Next() (value.Row, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	r.pos++
	return r.rows[r.pos-1], nil
}

func (r *rowsIter) Close() error { return nil }

// parBatch is one exchange message: a batch of rows, a terminal error, or the
// worker's end-of-stream marker.
type parBatch struct {
	rows []value.Row
	err  error
	done bool
}

// exchange runs worker goroutines that drain private iterators into bounded
// channels, and replays their outputs in worker order. The quit channel
// unblocks workers parked on a full queue; shutdown closes it, joins every
// worker, and folds worker statement counters back into the parent context.
type exchange struct {
	quit    chan struct{}
	wg      sync.WaitGroup
	outs    []chan parBatch
	workers []*Context
	roots   []*OpStats // per-worker stats sentinels; all nil when uninstrumented
	rows    []int64    // per-worker emitted rows, written by the worker, read after join
	ns      []int64    // per-worker wall time, same discipline
	wi      int
	cur     []value.Row
	curIdx  int
	err     error
}

// newExchange preallocates every per-worker slot up front: workers index into
// these slices concurrently, so the backing arrays must never move after the
// first goroutine starts.
func newExchange(deg int) *exchange {
	return &exchange{
		quit:    make(chan struct{}),
		outs:    make([]chan parBatch, 0, deg),
		workers: make([]*Context, 0, deg),
		roots:   make([]*OpStats, 0, deg),
		rows:    make([]int64, deg),
		ns:      make([]int64, deg),
	}
}

// launch starts one worker draining it, whose stats tree (if any) hangs under
// root. The worker owns it entirely, including Close on every exit path.
func (e *exchange) launch(parent *Context, it iterator, root *OpStats) {
	w := len(e.outs)
	out := make(chan parBatch, parallelQueueLen)
	e.outs = append(e.outs, out)
	e.roots = append(e.roots, root)
	wctx := parent.workerClone()
	e.workers = append(e.workers, wctx)
	e.wg.Add(1)
	go e.run(w, it, wctx, out)
}

func (e *exchange) run(w int, it iterator, wctx *Context, out chan<- parBatch) {
	defer e.wg.Done()
	t0 := time.Now()
	defer func() { e.ns[w] = time.Since(t0).Nanoseconds() }()
	send := func(b parBatch) bool {
		select {
		case out <- b:
			return true
		case <-e.quit:
			return false
		}
	}
	if err := it.Open(wctx); err != nil {
		it.Close()
		send(parBatch{err: err})
		return
	}
	batch := make([]value.Row, 0, parallelBatchRows)
	for {
		// Workers poll their own clone's tick: a worker parked in a filter
		// that rejects everything must still observe interrupts and deadlines.
		if err := wctx.tick(); err != nil {
			it.Close()
			send(parBatch{err: err})
			return
		}
		row, err := it.Next()
		if err != nil {
			it.Close()
			send(parBatch{err: err})
			return
		}
		if row == nil {
			break
		}
		e.rows[w]++
		batch = append(batch, row)
		if len(batch) == parallelBatchRows {
			if !send(parBatch{rows: batch}) {
				it.Close()
				return
			}
			batch = make([]value.Row, 0, parallelBatchRows)
		}
	}
	if err := it.Close(); err != nil {
		send(parBatch{err: err})
		return
	}
	if len(batch) > 0 && !send(parBatch{rows: batch}) {
		return
	}
	send(parBatch{done: true})
}

// next returns the next row in worker order, (nil, nil) after the last
// worker's end-of-stream. The first worker error is sticky.
func (e *exchange) next() (value.Row, error) {
	if e.err != nil {
		return nil, e.err
	}
	for {
		if e.curIdx < len(e.cur) {
			row := e.cur[e.curIdx]
			e.curIdx++
			return row, nil
		}
		if e.wi >= len(e.outs) {
			return nil, nil
		}
		b := <-e.outs[e.wi]
		switch {
		case b.err != nil:
			e.err = b.err
			return nil, b.err
		case b.done:
			e.wi++
		default:
			e.cur, e.curIdx = b.rows, 0
		}
	}
}

// shutdown cancels outstanding workers, joins them all, and absorbs their
// counters. The caller drops its reference afterwards.
func (e *exchange) shutdown(parent *Context) {
	close(e.quit)
	e.wg.Wait()
	for _, w := range e.workers {
		parent.absorbWorker(w)
	}
}

// --- gather -----------------------------------------------------------------------

// gatherIter runs one partition-wise subtree: fanned out to workers when the
// statement's degree and the table's size warrant, and as the plain serial
// iterator otherwise.
type gatherIter struct {
	op   algebra.Op    // the subtree's root: a chain node, a Join, or an Agg
	leaf *algebra.Scan // the base scan whose rows are partitioned
	// serial is op's ordinary iterator from the same builder: the whole
	// subtree whenever fan-out is off, and an aggregation's final merge when
	// it is on.
	serial iterator
	// right (joins only) is serial's build-side input, which the coordinator
	// drains once on behalf of every worker.
	right iterator
	// emit (joins only) is the projection serial writes its rows through; the
	// workers' joins get the same one.
	emit *algebra.Project
	n    *OpStats // op's stats node; nil when uninstrumented
	ctx  *Context
	ex   *exchange // live while workers run
	acct memAcct   // the shared materialized build side
}

func (g *gatherIter) Open(ctx *Context) error {
	g.release()
	g.ctx = ctx
	g.acct.ctx = ctx
	ranges, err := g.partitions(ctx)
	if err != nil {
		return err
	}
	if ranges != nil {
		err := g.fanOut(ctx, ranges)
		if err == nil {
			return nil
		}
		// Join whatever was launched before the error leaves (callers do not
		// Close an operator whose Open failed) or the serial run starts.
		g.release()
		if err != errParallelOverflow {
			return err
		}
	}
	return g.serial.Open(ctx)
}

// partitions makes the degree decision for one Open and cuts the base scan
// accordingly; nil means run serial.
func (g *gatherIter) partitions(ctx *Context) ([]storage.Cursor, error) {
	if ctx.Parallel < 2 || ctx.RowBudget != 0 {
		return nil, nil
	}
	// One cursor over the rows THIS statement sees — its pinned snapshot, or
	// its transaction's read-your-writes view — cut into slot ranges of the
	// one heap it pinned: workers never look at the table themselves.
	cur, err := ctx.Scan(g.leaf.Table)
	if err != nil || cur.Len() < minParallelRows {
		return nil, err
	}
	return cur.Split(int(ctx.Parallel)), nil
}

// fanOut launches one worker per range, each running op's subtree from the
// same builder with its inputs replaced by the worker's partition. Each worker
// compiles its own expressions: compiled closures carry scratch state and are
// not goroutine-safe to share. errParallelOverflow means state that must stay
// resident does not fit work_mem and the serial iterator should run instead.
func (g *gatherIter) fanOut(ctx *Context, ranges []storage.Cursor) error {
	var shared []value.Row
	if g.right != nil {
		var err error
		if shared, err = g.materializeRight(ctx); err != nil {
			return err
		}
	}
	parts := make([]partition, len(ranges))
	g.ex = newExchange(len(ranges))
	for w := range parts {
		parts[w] = partition{leaf: ranges[w], right: shared}
		var root *OpStats
		if g.n != nil {
			root = &OpStats{}
		}
		it, err := builder{part: &parts[w], emit: g.emit}.build(g.op, root)
		if err != nil {
			return err
		}
		g.ex.launch(ctx, it, root)
	}
	if agg, ok := g.serial.(*aggIter); ok {
		// Partial folds emit no rows, so the exchange's first answer is its
		// end: every worker finished, or one failed.
		if _, err := g.ex.next(); err != nil {
			return err
		}
		for w := range parts {
			g.ex.rows[w] = int64(len(parts[w].groups)) // a fold's output is its groups
		}
		g.release()
		err := agg.mergePartials(ctx, parts)
		for w := range parts { // merged: the workers' slabs are read no more
			parts[w].groups, parts[w].states = giveSlab(ctx.Mem, parts[w].groups), giveSlab(ctx.Mem, parts[w].states)
		}
		if err != nil {
			return err
		}
	}
	ctx.ParallelOps++
	ctx.ParallelWorkers += int32(len(parts))
	return nil
}

// materializeRight drains the build side into memory under the coordinator's
// account, failing with errParallelOverflow the moment it crosses the budget:
// the serial join's grace machinery spills, which rows shared read-only
// across workers cannot.
func (g *gatherIter) materializeRight(ctx *Context) ([]value.Row, error) {
	if err := g.right.Open(ctx); err != nil {
		g.right.Close()
		return nil, err
	}
	defer g.right.Close()
	var rows []value.Row
	err := drainRows(ctx, g.right, func(row value.Row) error {
		rows = append(roomFor(nil, rows, 1), row)
		g.acct.grow(rowBytes(row) + rowSliceBytes)
		if g.acct.spillable() && g.acct.over() {
			return errParallelOverflow
		}
		return nil
	})
	if g.n != nil {
		g.n.BuildRows = int64(len(rows))
	}
	return rows, err
}

func (g *gatherIter) Next() (value.Row, error) {
	if g.ex != nil {
		return g.ex.next()
	}
	return g.serial.Next()
}

// release joins the workers, publishes their stats, and returns the shared
// build side's bytes.
func (g *gatherIter) release() {
	if g.ex != nil {
		// Join before reading the workers' counters and stats trees: a
		// worker's deferred timing write races with the read otherwise.
		g.ex.shutdown(g.ctx)
		if g.n != nil {
			g.n.absorbWorkers(g.ex.roots, g.ex.rows, g.ex.ns)
		}
		g.ex = nil
	}
	g.acct.releaseAll()
}

func (g *gatherIter) Close() error {
	g.release()
	return g.serial.Close()
}
