// Package executor implements Perm's Volcano-style query executor: iterators
// over the logical algebra with runtime choices (hash vs. nested-loop joins,
// hash aggregation), SQL three-valued logic, correlated subplan evaluation,
// and the LATERAL joins the provenance rewriter emits for nested subqueries.
package executor

import (
	"errors"
	"fmt"
	"time"

	"perm/internal/algebra"
	"perm/internal/storage"
	"perm/internal/value"
)

// ErrInterrupted is returned when a query is canceled through the context's
// Interrupt channel (per-query timeouts in the network server, client
// cancellation in the in-process driver).
var ErrInterrupted = errors.New("executor: query interrupted")

// Context carries execution state: the storage engine, the stack of outer
// rows for correlated evaluation, and the cache for uncorrelated subplans.
type Context struct {
	Store *storage.Store
	// SnapLSN is the statement's pinned snapshot position: scans materialize
	// exactly the row versions visible at it, however many writers commit
	// while the statement runs. Zero means "the store's current visible
	// LSN" (detached/test contexts that never pinned).
	SnapLSN uint64
	// Txn, when non-nil, is the session's open transaction: scans read
	// through it so the statement sees the transaction's own buffered
	// writes on top of its snapshot.
	Txn *storage.Txn
	// unpin releases the statement's snapshot pin; Release calls it exactly
	// once. Worker clones never carry it — the coordinator owns the pin.
	unpin func()
	// outer is the stack of correlation rows; OuterRef binds to the top.
	outer []value.Row
	// subplanCache memoizes uncorrelated subplan results by plan identity.
	subplanCache map[*algebra.Subplan]*subplanResult
	// subplanIters caches the built (and expression-compiled) iterator tree
	// of each correlated subplan, so per-outer-row re-execution only re-Opens
	// it instead of rebuilding and recompiling. Safe because a subplan's
	// evaluation fully materializes before returning and a plan tree cannot
	// contain itself, so the cached iterator is never re-entered mid-stream.
	subplanIters map[*algebra.Subplan]iterator
	// Mem, when non-nil, is the session's memory governor: blocking
	// operators (sort, aggregation, set operations, DISTINCT) account the
	// bytes they retain against its budget and spill to its temp-file pool
	// once they cross it. Nil means unlimited memory and no spilling.
	Mem *MemTracker
	// Interrupt, when non-nil, cancels the query once it is closed: the
	// materialization loops poll it periodically and unwind with
	// ErrInterrupted. The network server arms it with the connection's kill
	// channel; the in-process driver with the caller's context.
	Interrupt <-chan struct{}
	// DeadlineNs, when non-zero, cancels the query once the wall clock passes
	// it (UnixNano) — the timer-free form of per-query timeouts (one time.Now
	// per poll, no goroutine or channel per statement). Stored as nanoseconds
	// rather than a time.Time to keep the Context inside its allocation size
	// class now that Parallel rides along.
	DeadlineNs int64
	// Parallel is the statement's intra-query parallelism degree, resolved by
	// the session (SET parallelism; 0 resolves to GOMAXPROCS before it gets
	// here). Values <= 1 build the classic single-goroutine iterator tree;
	// higher values let eligible operators fan work out to that many workers.
	Parallel int32
	// Params are the statement's bound `?` arguments, indexed by placeholder
	// ordinal; algebra.Param expressions read them at evaluation time.
	Params []value.Value
	// owner is the stats node of the operator currently executing, set and
	// restored by statIter around every wrapped Open/Next/Close so memory
	// accounts attribute their bytes to the right operator. Always nil on
	// the uninstrumented path.
	owner *OpStats
	// RowBudget, when positive, bounds the total number of rows any single
	// operator may buffer (protection against runaway provenance joins in
	// interactive use). Zero means unlimited.
	RowBudget int32
	// SubplanHits/SubplanMisses count uncorrelated-subplan memoization: a
	// miss runs the subplan, a hit reuses its materialized result. Reported
	// by EXPLAIN ANALYZE and SET trace at statement level.
	SubplanHits   int32
	SubplanMisses int32
	// ParallelOps counts operators that actually fanned out to workers this
	// statement (serial fallbacks do not count). Incremented only by
	// coordinator Opens on the statement goroutine; the engine reads it for
	// metrics and tracing after execution. ParallelWorkers is the total
	// worker fan-out across those operators.
	ParallelOps     int32
	ParallelWorkers int32
	// ticks counts tick() calls for the row-free cancellation polls.
	ticks uint32
}

// Tick exposes the cancellation poll to engine-level DML loops (UPDATE
// setters, and any other per-row work that bypasses the iterator machinery).
func (c *Context) Tick() error { return c.tick() }

// SetUnpin installs the statement's snapshot-release hook (the engine pins
// a snapshot LSN per statement and must unpin it when the statement's last
// reader is done, or the version vacuum could never advance).
func (c *Context) SetUnpin(f func()) { c.unpin = f }

// Release releases the statement's snapshot pin. Idempotent; safe on
// contexts that never pinned.
func (c *Context) Release() {
	if c.unpin != nil {
		c.unpin()
		c.unpin = nil
	}
}

// TableRows resolves the named table and returns the rows this statement
// sees: the open transaction's read-your-writes view when one is active,
// otherwise the versions visible at the pinned snapshot LSN. Every scan
// must come through here — a scan that read the live table directly would
// observe concurrent writers mid-statement.
func (c *Context) TableRows(name string) ([]value.Row, error) {
	t := c.Store.Table(name)
	if t == nil {
		return nil, fmt.Errorf("executor: table %q does not exist", name)
	}
	if c.Txn != nil {
		return c.Txn.TableRows(t), nil
	}
	return t.SnapshotAt(c.SnapLSN), nil
}

// tick is the cancellation poll for loops that can spin without producing a
// row (filters rejecting everything, join probes that never match): the
// materialization loops only poll per emitted row, so these inner loops call
// tick once per iteration and pay one channel select every interruptMask+1
// calls.
func (c *Context) tick() error {
	c.ticks++
	if c.ticks&interruptMask != 0 {
		return nil
	}
	return c.interrupted()
}

// interrupted reports ErrInterrupted once the Interrupt channel has fired or
// the deadline has passed.
func (c *Context) interrupted() error {
	if c.DeadlineNs != 0 && time.Now().UnixNano() > c.DeadlineNs {
		return ErrInterrupted
	}
	if c.Interrupt == nil {
		return nil
	}
	select {
	case <-c.Interrupt:
		return ErrInterrupted
	default:
		return nil
	}
}

// subplanIter returns the cached iterator tree for a correlated subplan,
// building it on first use.
func (c *Context) subplanIter(sp *algebra.Subplan) (iterator, error) {
	if it, ok := c.subplanIters[sp]; ok {
		return it, nil
	}
	it, err := builder{}.build(sp.Plan, nil)
	if err != nil {
		return nil, err
	}
	c.subplanIters[sp] = it
	return it, nil
}

type subplanResult struct {
	rows []value.Row
	err  error
	// Membership index for uncorrelated IN subplans, built on first use:
	// keys of the first column's values, plus whether a NULL occurred.
	inSet     *keyTable
	inSawNull bool
}

// membership returns the IN-membership index, building it lazily.
func (r *subplanResult) membership() (*keyTable, bool) {
	if r.inSet == nil {
		r.inSet = &keyTable{}
		var scratch []byte
		for _, row := range r.rows {
			if row[0].IsNull() {
				r.inSawNull = true
				continue
			}
			scratch = row[0].AppendKey(scratch[:0])
			r.inSet.insert(scratch)
		}
	}
	return r.inSet, r.inSawNull
}

// NewContext returns an execution context over the store.
func NewContext(store *storage.Store) *Context {
	return &Context{
		Store:        store,
		subplanCache: make(map[*algebra.Subplan]*subplanResult),
		subplanIters: make(map[*algebra.Subplan]iterator),
	}
}

// SetDeadline arms (or, with the zero time, clears) the context's wall-clock
// deadline.
func (c *Context) SetDeadline(t time.Time) {
	if t.IsZero() {
		c.DeadlineNs = 0
		return
	}
	c.DeadlineNs = t.UnixNano()
}

// workerClone derives a context for one parallel worker goroutine. Workers
// share the statement's immutable state (store, memory governor, interrupt
// channel, deadline, bound parameters) but own everything mutable: scratch
// buffers, tick counters, subplan caches, the outer-row stack, and the stats
// owner — none of which is safe to share across goroutines. Parallel is 1:
// subtrees a worker drives never fan out again.
func (c *Context) workerClone() *Context {
	return &Context{
		Store:        c.Store,
		SnapLSN:      c.SnapLSN,
		Txn:          c.Txn,
		subplanCache: make(map[*algebra.Subplan]*subplanResult),
		subplanIters: make(map[*algebra.Subplan]iterator),
		Mem:          c.Mem,
		Interrupt:    c.Interrupt,
		DeadlineNs:   c.DeadlineNs,
		Parallel:     1,
		Params:       c.Params,
		RowBudget:    c.RowBudget,
	}
}

// absorbWorker folds the statement-level counters a worker clone accumulated
// back into the parent context. Called after the worker goroutine has been
// joined (the caller provides the happens-before edge).
func (c *Context) absorbWorker(w *Context) {
	c.SubplanHits += w.SubplanHits
	c.SubplanMisses += w.SubplanMisses
}

func (c *Context) pushOuter(row value.Row) { c.outer = append(c.outer, row) }
func (c *Context) popOuter()               { c.outer = c.outer[:len(c.outer)-1] }

func (c *Context) outerRow() (value.Row, error) {
	if len(c.outer) == 0 {
		return nil, fmt.Errorf("executor: outer reference outside correlated context")
	}
	return c.outer[len(c.outer)-1], nil
}

// Result is a fully materialized query result.
type Result struct {
	Schema algebra.Schema
	Rows   []value.Row
}

// Run executes the plan to completion — Open + Drain over the streaming
// surface, kept for callers that want the whole result at once.
func Run(ctx *Context, plan algebra.Op) (*Result, error) {
	s, err := Open(ctx, plan)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rows, err := s.Drain()
	if err != nil {
		return nil, err
	}
	return &Result{Schema: s.Schema(), Rows: rows}, nil
}

// iterator is the Volcano operator interface. Next returns (nil, nil) at end
// of stream. A row it returns is immutable and stays valid for as long as the
// caller holds it — unless the caller built this input with builder.reuse,
// promising to drop each row before its next Next.
type iterator interface {
	Open(ctx *Context) error
	Next() (value.Row, error)
	Close() error
}

// builder maps a logical plan to its iterator tree. Its one recursive method
// serves every caller — statement roots (serial or parallel, plain or
// instrumented), subplans, lateral join inputs, and the subtree each parallel
// worker runs — so an operator is constructed, instrumented and accounted in
// exactly one place whichever way it ends up running.
type builder struct {
	// graft lets eligible subtrees (fanOutLeaf) run partition-wise under a
	// gatherIter. Only statement roots opened at a degree above 1 set it;
	// nothing below a gather, a lateral join or a subplan fans out again.
	graft bool
	// part, set in a parallel worker's subtree, stands in for the plan's own
	// inputs: the worker's range of the base scan, the shared build side.
	part *partition
	// emit, set for the one build call that makes the join directly under it,
	// is a projection of plain columns and constants: that join writes its
	// output rows through it and no projectIter is built.
	emit *algebra.Project
	// reuse, set for one build call like emit, is the parent's word that it
	// drops each row of this input before it asks for the next: an
	// aggregation's input, the probe input of a join that makes its own rows,
	// the input of a projection that computes. An operator that makes rows
	// (projectIter, joinEmit) then fills one row over again; one that hands its
	// input's rows on (filter, limit, UNION ALL, a projection of leading
	// columns, a semi or anti join's probe) passes the word down.
	reuse bool
}

// isPrefix reports whether the projection's expressions are columns 0..n-1 of
// its input, in order: its output row is then the input row re-sliced.
func isPrefix(p *algebra.Project) bool {
	for i, e := range p.Exprs {
		if c, ok := e.(*algebra.ColIdx); !ok || c.Idx != i {
			return false
		}
	}
	return true
}

// emitsThrough reports whether a projection can hand its column map to the
// operator under it: every expression is a plain column or a constant, and
// the input is a non-lateral join that makes its output rows itself (semi and
// anti joins pass probe rows through).
func emitsThrough(p *algebra.Project) bool {
	j, ok := skipMarkers(p.Input).(*algebra.Join)
	if !ok || j.Lateral || j.Kind == algebra.JoinSemi || j.Kind == algebra.JoinAnti {
		return false
	}
	for _, e := range p.Exprs {
		switch e.(type) {
		case *algebra.ColIdx, *algebra.Const:
		default:
			return false
		}
	}
	return true
}

// build maps a logical operator to its iterator. With a non-nil parent stats
// node (EXPLAIN ANALYZE, SET trace) every concrete operator gets a stats
// child and a statIter wrapper; a nil parent is the default, zero-overhead
// path. Pass-through nodes (BaseRel, ProvDone) produce no iterator of their
// own, so their input attaches directly to the parent.
func (b builder) build(op algebra.Op, parent *OpStats) (iterator, error) {
	op = skipMarkers(op)
	n := node(parent, op)
	emit, reuse := b.emit, b.reuse
	b.emit, b.reuse = nil, false
	// A subtree that can run partition-wise is built as the ordinary serial
	// iterator and handed to a gather, which fans out over it at Open when
	// the statement's degree and the table's size warrant, and otherwise
	// just runs it.
	var g *gatherIter
	if b.graft {
		if leaf := fanOutLeaf(op); leaf != nil {
			g = &gatherIter{op: op, leaf: leaf, n: n, emit: emit}
			b.graft = false
		}
	}
	var err error
	input := func(child algebra.Op, reuse bool) iterator {
		if err != nil {
			return nil
		}
		var it iterator
		b.reuse = reuse
		it, err = b.build(child, n)
		b.reuse = false
		return it
	}
	var it iterator
	switch o := op.(type) {
	case *algebra.Scan:
		if b.part != nil {
			it = &scanIter{rows: b.part.leaf}
		} else {
			it = &scanIter{op: o}
		}
	case *algebra.Values:
		it = &valuesIter{op: o}
	case *algebra.Project:
		if emitsThrough(o) {
			// The join below writes this projection's rows itself; the stats
			// node above still counts them as the projection's.
			b.emit = o
			it = input(o.Input, reuse)
		} else if isPrefix(o) {
			it = &projectIter{op: o, input: input(o.Input, reuse), prefix: true}
		} else {
			it = &projectIter{op: o, input: input(o.Input, true), rows: rowMaker{reuse: reuse}}
		}
	case *algebra.Select:
		it = &filterIter{op: o, input: input(o.Input, reuse)}
	case *algebra.Join:
		// Lateral joins always run nested-loop with per-left-row re-execution
		// of the right side; equi-joins run as hash joins; everything else
		// falls back to a generic nested loop.
		if o.Lateral {
			switch o.Kind {
			case algebra.JoinInner, algebra.JoinCross, algebra.JoinLeft:
			default:
				return nil, fmt.Errorf("executor: lateral %s join is not supported", o.Kind)
			}
			// Both inputs stay serial: the right side re-runs once per outer
			// row, and fanning that out would launch workers per row.
			b.graft = false
			it = &lateralJoinIter{op: o, left: input(o.Left, false), right: input(o.Right, false)}
			break
		}
		out := newJoinEmit(o, emit)
		out.rows.reuse = reuse
		// The probe row is read into the output row, or (semi, anti) is it.
		left := input(o.Left, out.cols != nil || reuse)
		var right iterator
		if b.part != nil {
			right = &scanIter{rows: b.part.right}
		} else {
			right = input(o.Right, false)
		}
		if g != nil {
			g.right = right
		}
		if keys, residual := extractEquiKeys(o); len(keys) > 0 {
			it = &hashJoinIter{op: o, left: left, right: right, keys: keys, residual: residual, out: out}
		} else {
			it = &nlJoinIter{op: o, left: left, right: right, out: out}
		}
	case *algebra.Agg:
		it = &aggIter{op: o, input: input(o.Input, true), part: b.part}
	case *algebra.Distinct:
		it = &distinctIter{input: input(o.Input, false)}
	case *algebra.SetOp:
		pass := reuse && o.Kind == algebra.UnionAll
		left, right := input(o.Left, pass), input(o.Right, pass)
		switch o.Kind {
		case algebra.UnionAll:
			it = &concatIter{left: left, right: right}
		case algebra.UnionDistinct:
			it = &distinctIter{input: &concatIter{left: left, right: right}}
		case algebra.IntersectAll, algebra.IntersectDistinct, algebra.ExceptAll, algebra.ExceptDistinct:
			it = &setOpIter{op: o, left: left, right: right}
		default:
			return nil, fmt.Errorf("executor: unknown set operation %v", o.Kind)
		}
	case *algebra.Sort:
		it = &sortIter{op: o, input: input(o.Input, false)}
	case *algebra.Limit:
		it = &limitIter{op: o, input: input(o.Input, reuse)}
	default:
		return nil, fmt.Errorf("executor: no iterator for operator %T", op)
	}
	if err != nil {
		return nil, err
	}
	if g != nil {
		g.serial, it = it, g
	}
	return wrapStat(it, n), nil
}

// skipMarkers strips the BaseRel/ProvDone markers, which execute nothing.
func skipMarkers(op algebra.Op) algebra.Op {
	for {
		switch o := op.(type) {
		case *algebra.BaseRel:
			op = o.Input
		case *algebra.ProvDone:
			op = o.Input
		default:
			return op
		}
	}
}
