package executor

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// aggIter implements hash aggregation. With no GROUP BY expressions it emits
// exactly one row (the SQL scalar-aggregate case), even over empty input.
// DISTINCT aggregates never reach it: the planner rewrites them into
// aggregations over deduplicated inputs (planner.LowerDistinct), so every
// state is a flat count and value, whatever the input.
//
// Memory behavior (hybrid grace hash aggregation): the fold consumes its
// input streaming — the input is never materialized — and accounts the group
// table (keys and states) against the session budget. A group only grows
// when it is made, so memory is shed one way: once over budget, resident
// groups keep absorbing their rows in memory, while rows of NEW groups route
// to hash partitions on disk; the grace driver resolves the partitions
// recursively with the same fold. Every group's output row is tagged with
// the group's first input sequence; a fold makes its groups in that order,
// and the final merge replays them in it — byte-identical to the in-memory
// path.
type aggIter struct {
	op    *algebra.Agg
	input iterator
	ctx   *Context
	// compiled group-by and aggregate-argument evaluators, built on first
	// Open and kept across re-Opens (lateral/correlated re-execution).
	groupBy  []compiledExpr
	argExprs []compiledExpr
	// d resolves what the fold routes to disk and holds the output either
	// way; fold is the group table of the level being folded (sized from slot).
	d    graceDriver
	fold aggFold
	slot *sizeSlot
	// part, set in a parallel worker's subtree, makes this a partial
	// aggregation: Open folds the worker's partition without spilling and,
	// instead of emitting, leaves its group table in part for the
	// coordinator's mergePartials.
	part *partition
	// alloc makes the group-key rows and the output rows.
	alloc value.RowAlloc
}

// aggState accumulates one aggregate within one group: a flat record in the
// fold's state slab.
type aggState struct {
	count int64
	// acc is the running sum (SUM, AVG) or extremum (MIN, MAX) of the non-NULL
	// inputs: NULL before the first, and for COUNT.
	acc value.Value
}

// aggGroup is one group: its key values and the input sequence of its first
// row (the output-order tag).
type aggGroup struct {
	keys     value.Row
	firstSeq uint64
}

func (a *aggIter) Open(ctx *Context) error {
	a.release()
	if err := openOrClose(a.input, ctx); err != nil {
		return err
	}
	defer a.input.Close()

	// Compile group-by and aggregate-argument expressions once for the whole
	// input, instead of tree-walking them per row.
	if a.groupBy == nil {
		a.groupBy = compileAll(a.op.GroupBy)
		a.fold.keyVals = make(value.Row, len(a.groupBy))
		a.argExprs = make([]compiledExpr, len(a.op.Aggs))
		for i, ae := range a.op.Aggs {
			if ae.Arg != nil {
				a.argExprs[i] = Compile(ae.Arg)
			}
		}
	}

	a.start(ctx)
	seq := uint64(0)
	if err := drainRows(ctx, a.input, func(row value.Row) error {
		seq++
		return a.fold.addRow(seq-1, row)
	}); err != nil {
		return err
	}
	if a.part != nil {
		a.part.groups, a.part.states = a.fold.groups, a.fold.states
		a.fold.groups, a.fold.states = nil, nil
		a.fold.release()
		return nil
	}
	// Emit the resident groups; if rows were routed, the driver folds every
	// partition the same way and merges all outputs back into ascending
	// first-appearance order.
	return a.d.finish()
}

// mergePartials is Open for the coordinator of a partition-wise aggregation:
// the workers already folded the input, so it only merges their partial groups
// and emits. With contiguous partitions, any group of worker w first appeared
// globally before any group whose first worker is w+1, so insertion across
// workers in worker order IS the serial first-appearance order. The merged
// table never spills: outgrowing work_mem returns errParallelOverflow and the
// caller re-runs the aggregation serially, which does.
func (a *aggIter) mergePartials(ctx *Context, parts []partition) error {
	a.release()
	a.start(ctx)
	fold, n := &a.fold, len(a.op.Aggs)
	for _, p := range parts {
		for gi, g := range p.groups {
			src := p.states[gi*n : (gi+1)*n]
			fold.keyScratch = g.keys.AppendKey(fold.keyScratch[:0])
			di := fold.keys.find(fold.keyScratch)
			if di < 0 {
				copy(fold.statesOf(fold.newGroup(g)), src)
				if err := fold.overParallel(); err != nil {
					return err
				}
				continue
			}
			dst := fold.statesOf(di)
			for s, ae := range a.op.Aggs {
				if err := dst[s].merge(ae, &src[s]); err != nil {
					return err
				}
			}
		}
	}
	return a.d.finish()
}

// aggFold is one in-memory aggregation pass — the live input at level 0, one
// partition file below it: a group table, which once over budget routes the
// rows of non-resident groups one level down through the driver.
type aggFold struct {
	a    *aggIter
	acct memAcct
	// The group table: keys in first-appearance order; under a key's entry
	// number its group and, one per aggregate, its states, contiguous in their
	// slabs.
	keys    keyTable
	groups  []aggGroup
	states  []aggState
	routing bool // rows of non-resident groups go to the partitions
	// scratch buffers, reused across rows
	keyVals    value.Row
	keyScratch []byte
	rec        []byte
}

func (f *aggFold) begin([2]*spill.File) bool {
	f.release()
	f.acct.ctx = f.a.ctx
	f.routing = false
	return true
}

// add folds one partition record: a sequence-tagged input row.
func (f *aggFold) add(rec []byte) error {
	seq, row, err := decodeSeqRow(f.a.d.recRow(), rec)
	if err != nil {
		return err
	}
	return f.addRow(seq, row)
}

// finish turns the fold's groups into output rows, tagged by first
// appearance: the order the fold made them in, at any level, because a
// partition file holds its rows in input order.
func (f *aggFold) finish() error {
	a := f.a
	// Scalar aggregation over empty input still produces one (empty) group.
	if len(a.op.GroupBy) == 0 && len(f.groups) == 0 && !a.d.spilled() {
		f.keyScratch = f.keyScratch[:0]
		f.newGroup(aggGroup{keys: value.Row{}})
	}
	if a.d.level == 0 && !f.routing { // else recorded by routes
		a.slot.record(len(f.groups), len(f.keys.arena))
	}
	a.d.expect(len(f.groups))
	for gi := range f.groups {
		g := &f.groups[gi]
		row := a.alloc.New(len(g.keys) + len(a.op.Aggs))
		copy(row, g.keys)
		for i, st := range f.statesOf(gi) {
			v, err := st.result(a.op.Aggs[i])
			if err != nil {
				return err
			}
			row[len(g.keys)+i] = v
		}
		if err := a.d.emit(g.firstSeq, row); err != nil {
			return err
		}
	}
	f.release()
	return nil
}

// release empties the group table, keeping its storage for the next fold,
// and returns its bytes.
func (f *aggFold) release() {
	f.keys.reset()
	clear(f.groups)
	clear(f.states)
	f.groups, f.states = f.groups[:0], f.states[:0]
	f.acct.releaseAll()
}

func (f *aggFold) statesOf(gi int) []aggState {
	n := len(f.a.op.Aggs)
	return f.states[gi*n : (gi+1)*n : (gi+1)*n]
}

// newGroup makes g resident under the key in keyScratch, charges it, and
// returns its number.
func (f *aggFold) newGroup(g aggGroup) int {
	gi, _ := f.keys.insert(f.keyScratch)
	m := f.acct.mem()
	f.groups = append(roomFor(m, f.groups, 1), g)
	n, k := len(f.a.op.Aggs), len(f.states)
	f.states = roomFor(m, f.states, n)[:k+n]
	clear(f.states[k:])
	f.acct.grow(int64(len(f.keyScratch)) + rowBytes(g.keys) + aggGroupBytes + keyEntryBytes + int64(n)*aggStateBytes)
	return gi
}

// overParallel reports a worker's partial fold, or the merge of the
// workers' folds, outgrowing the budget: neither spills, the serial
// aggregation that then runs does.
func (f *aggFold) overParallel() error {
	if f.acct.spillable() && f.acct.over() {
		return errParallelOverflow
	}
	return nil
}

// addRow folds one (sequence, row) pair: accumulate into a resident group,
// create the group if there is room, or route the row to a partition.
func (f *aggFold) addRow(seq uint64, row value.Row) error {
	f.keyScratch = f.keyScratch[:0]
	for i, ge := range f.a.groupBy {
		v, err := ge(row, f.a.ctx)
		if err != nil {
			return err
		}
		f.keyVals[i] = v
		f.keyScratch = v.AppendKey(f.keyScratch)
	}
	gi := f.keys.find(f.keyScratch)
	if gi < 0 {
		if f.routes() {
			f.rec = appendSeqRow(f.rec[:0], seq, row)
			return f.a.d.route(0, f.keyScratch, f.rec)
		}
		keys := f.a.alloc.New(len(f.keyVals))
		copy(keys, f.keyVals)
		gi = f.newGroup(aggGroup{keys: keys, firstSeq: seq})
		if f.a.part != nil {
			if err := f.overParallel(); err != nil {
				return err
			}
		}
	}
	states := f.statesOf(gi)
	for i, ae := range f.a.op.Aggs {
		var arg value.Value
		if f.a.argExprs[i] != nil {
			v, err := f.a.argExprs[i](row, f.a.ctx)
			if err != nil {
				return err
			}
			arg = v
		}
		if err := states[i].accumulate(ae, arg); err != nil {
			return err
		}
	}
	return nil
}

// routes reports whether rows of non-resident groups go to the partitions,
// which they do from the first new group past the budget on. The next run of
// a cached plan sizes its level-0 table for what this one held then. (A
// worker's partial fold never spills; see addRow.)
func (f *aggFold) routes() bool {
	if !f.routing && f.a.part == nil && f.a.d.overflow(&f.acct, len(f.groups), minFoldGroups) {
		if f.a.d.level == 0 {
			f.a.slot.record(len(f.groups), len(f.keys.arena))
		}
		f.routing = true
	}
	return f.routing
}

// accumulate folds one input value into the state.
func (s *aggState) accumulate(ae algebra.AggExpr, arg value.Value) error {
	if ae.Func == algebra.AggCount && ae.Arg == nil {
		s.count++ // COUNT(*): every row counts
		return nil
	}
	if arg.IsNull() {
		return nil // aggregates skip NULLs
	}
	return s.fold(ae, arg)
}

// fold applies one non-NULL value to the running aggregate.
func (s *aggState) fold(ae algebra.AggExpr, arg value.Value) (err error) {
	s.count++
	switch {
	case ae.Func == algebra.AggCount:
	case s.acc.IsNull():
		s.acc = arg
	case ae.Func == algebra.AggSum || ae.Func == algebra.AggAvg:
		s.acc, err = value.Add(s.acc, arg)
	case ae.Func == algebra.AggMin || ae.Func == algebra.AggMax:
		var c int
		if c, err = value.Compare(arg, s.acc); (c < 0) == (ae.Func == algebra.AggMin) && c != 0 {
			s.acc = arg
		}
	default:
		return fmt.Errorf("executor: unknown aggregate %q", ae.Func)
	}
	return err
}

// merge folds another partial state of the same aggregate into this one.
// Exact for count, min, max and integer sums; float SUM/AVG never reach here
// (parAggEligible).
func (s *aggState) merge(ae algebra.AggExpr, src *aggState) (err error) {
	n := s.count + src.count
	if !src.acc.IsNull() {
		err = s.fold(ae, src.acc)
	}
	s.count = n
	return err
}

// result finalizes the aggregate value.
func (s *aggState) result(ae algebra.AggExpr) (value.Value, error) {
	switch ae.Func {
	case algebra.AggCount:
		return value.NewInt(s.count), nil
	case algebra.AggSum, algebra.AggMin, algebra.AggMax:
		return s.acc, nil
	case algebra.AggAvg:
		if s.count == 0 || s.acc.IsNull() {
			return value.Null, nil
		}
		return value.NewFloat(s.acc.Float() / float64(s.count)), nil
	}
	return value.Null, fmt.Errorf("executor: unknown aggregate %q", ae.Func)
}

func (a *aggIter) Next() (value.Row, error) { return a.d.Next() }

// start readies the iterator for a level-0 fold under ctx (whose scratch is
// sized by the compiled group-by list).
func (a *aggIter) start(ctx *Context) {
	a.ctx = ctx
	a.d.start(ctx, &a.fold)
	a.fold.a = a
	a.fold.begin([2]*spill.File{})
	a.fold.keys.mem = ctx.Mem
	if n, k := a.slot.size(ctx, aggGroupBytes+keyEntryBytes+int64(len(a.op.Aggs))*aggStateBytes); n > 0 {
		a.fold.groups = takeSlab[aggGroup](ctx.Mem, n)
		a.fold.states = takeSlab[aggState](ctx.Mem, n*len(a.op.Aggs))
		a.fold.keys.presize(n, k)
	}
}

// release drops all aggregation state: the group table and its storage,
// output, accounting, spill files.
func (a *aggIter) release() {
	a.fold.release()
	a.fold.keys.free()
	a.fold.groups, a.fold.states = giveSlab(a.fold.acct.mem(), a.fold.groups), giveSlab(a.fold.acct.mem(), a.fold.states)
	a.d.release()
}

func (a *aggIter) Close() error {
	a.release()
	return nil
}
