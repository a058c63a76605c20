package executor

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// aggIter implements hash aggregation with DISTINCT support. With no GROUP BY
// expressions it emits exactly one row (the SQL scalar-aggregate case), even
// over empty input.
//
// Memory behavior (hybrid grace hash aggregation): the fold consumes its
// input streaming — the input is never materialized — and accounts the group
// table (keys, states, DISTINCT seen-sets) against the session budget. Once
// over budget, resident groups keep absorbing their rows in memory, while
// rows of NEW groups route to hash partitions on disk; the grace driver
// resolves the partitions recursively with the same fold. Resident state that itself outgrows the
// budget sheds in one of two ways: COUNT(DISTINCT …) seen-sets flush their
// fragment as sorted element runs (merged back with dedup at emission, so even
// one giant set never sits fully resident), and other oversized groups
// serialize whole into the partition files as mergeable partial records, their
// remaining rows following them down by key. Every group's output row is
// tagged with the group's first input sequence, and the final merge replays
// groups in ascending first-appearance order — byte-identical to the
// in-memory path.
type aggIter struct {
	op    *algebra.Agg
	input iterator
	ctx   *Context
	// compiled group-by and aggregate-argument evaluators, built on first
	// Open and kept across re-Opens (lateral/correlated re-execution).
	groupBy  []compiledExpr
	argExprs []compiledExpr
	// d resolves what the fold routes to disk and holds the output either
	// way; fold is the group table of the level being folded.
	d    graceDriver
	fold aggFold
	// part, set in a parallel worker's subtree, makes this a partial
	// aggregation: Open folds the worker's partition without spilling and,
	// instead of emitting, leaves its group table in part for the
	// coordinator's mergePartials.
	part *partition
	// alloc makes the group-key rows and the output rows.
	alloc value.RowAlloc
}

// aggState accumulates one aggregate within one group: a flat record in the
// fold's state slab, with nothing on the heap unless the aggregate is DISTINCT.
type aggState struct {
	count int64
	// acc is the running sum (SUM, AVG) or extremum (MIN, MAX) of the non-NULL
	// inputs: NULL before the first, and for COUNT.
	acc      value.Value
	distinct *distinctSet // non-nil iff DISTINCT
}

// distinctSet is a DISTINCT state's seen-set: a resident fragment (canonical
// key → value, the values under the keys' entry numbers) plus zero or more
// sorted runs on disk. While no run exists the aggregate folds eagerly. Once
// memory pressure flushes the first fragment (flushFragment), the eager values
// stop being meaningful — an element absent from the fragment may still be in
// a run — and finalizeDistinct recomputes them from a deduplicating merge of
// all runs before the group emits.
type distinctSet struct {
	keys      keyTable
	vals      []value.Value
	fragBytes int64         // the fragment's accounted footprint
	runs      []*spill.File // the flushed sorted element runs
}

// add records one element and reports the bytes the fragment grew by: zero
// for an element it already holds.
func (d *distinctSet) add(key []byte, v value.Value) int64 {
	if _, isNew := d.keys.insert(key); !isNew {
		return 0
	}
	d.vals = append(d.vals, v)
	grew := int64(len(key)) + keyEntryBytes + valueFixedBytes + int64(len(v.Str()))
	d.fragBytes += grew
	return grew
}

// aggGroup is one group: its key values and the input sequence of its first
// row (the output-order tag).
type aggGroup struct {
	keys     value.Row
	firstSeq uint64
	// bytes is the group's accounted footprint (key, states, DISTINCT
	// entries), released in one piece when the group is evicted.
	bytes int64
}

// groupBaseBytes is a group's footprint before key bytes and DISTINCT entries.
func groupBaseBytes(keys value.Row, nStates int) int64 {
	return rowBytes(keys) + aggGroupBytes + keyEntryBytes + int64(nStates)*aggStateBytes
}

// Aggregation partition files hold two record kinds, discriminated by their
// first byte: raw input rows (sequence-tagged, folded downstream) and partial
// group states (an evicted resident group — counts, sums, extrema and the
// DISTINCT seen-set — merged downstream with the group's remaining rows).
const (
	aggRecRaw     = 0x00
	aggRecPartial = 0x01
)

// appendAggPartial serializes a group's partial state behind the aggRecPartial
// discriminator. A DISTINCT state's fragment follows its count and value as
// length-prefixed canonical element keys, each followed by its source value.
// Groups holding runs are never serialized (evictOver only flushes them): a
// run is a file, and files cannot ride inside a partition record.
func appendAggPartial(dst []byte, g *aggGroup, states []aggState) []byte {
	dst = append(dst, aggRecPartial)
	dst = binary.AppendUvarint(dst, g.firstSeq)
	dst = spill.AppendRow(dst, g.keys)
	for i := range states {
		st := &states[i]
		dst = binary.AppendUvarint(dst, uint64(st.count))
		dst = spill.AppendValue(dst, st.acc)
		if st.distinct == nil {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(st.distinct.vals)))
		for e, v := range st.distinct.vals {
			dst = appendElemRec(dst, st.distinct.keys.key(e), v)
		}
	}
	return dst
}

var errCorruptPartial = fmt.Errorf("executor: corrupt partial aggregate record")

// decodeAggStates reads what appendAggPartial wrote after the key row into the
// group's fresh states, returning the bytes of the DISTINCT fragments rebuilt.
func decodeAggStates(rest []byte, states []aggState) (fragBytes int64, err error) {
	for i := range states {
		st := &states[i]
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errCorruptPartial
		}
		st.count = int64(count)
		if st.acc, rest, err = spill.DecodeValue(rest[n:]); err != nil {
			return 0, err
		}
		if st.distinct == nil {
			continue
		}
		nElems, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errCorruptPartial
		}
		rest = rest[n:]
		for j := uint64(0); j < nElems; j++ {
			klen, n := binary.Uvarint(rest)
			if n <= 0 || uint64(len(rest)-n) < klen {
				return 0, errCorruptPartial
			}
			key := rest[n : n+int(klen)]
			var v value.Value
			if v, rest, err = spill.DecodeValue(rest[n+int(klen):]); err != nil {
				return 0, err
			}
			st.distinct.add(key, v)
		}
		fragBytes += st.distinct.fragBytes
	}
	return fragBytes, nil
}

func (a *aggIter) Open(ctx *Context) error {
	a.release()
	if err := a.input.Open(ctx); err != nil {
		return err
	}
	defer a.input.Close()

	// Compile group-by and aggregate-argument expressions once for the whole
	// input, instead of tree-walking them per row.
	if a.groupBy == nil {
		a.groupBy = compileAll(a.op.GroupBy)
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
				fold.acct.grow(g.bytes)
				if fold.acct.spillable() && fold.acct.over() {
					return errParallelOverflow
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

// groupRow builds one output row: group keys then finalized aggregates.
// DISTINCT states that flushed runs first recompute their values from the
// deduplicating merge.
func (a *aggIter) groupRow(g *aggGroup, states []aggState) (value.Row, error) {
	row := a.alloc.New(len(g.keys) + len(states))
	copy(row, g.keys)
	for i, ae := range a.op.Aggs {
		st := &states[i]
		if st.distinct != nil && st.distinct.runs != nil {
			if err := st.finalizeDistinct(a.ctx, &a.d.reg, ae); err != nil {
				return nil, err
			}
		}
		v, err := st.result(ae)
		if err != nil {
			return nil, err
		}
		row[len(g.keys)+i] = v
	}
	return row, nil
}

// aggFold is one in-memory aggregation pass — the live input at level 0, one
// partition file below it: a group table, which once over budget routes the
// rows of non-resident groups one level down through the driver.
type aggFold struct {
	a    *aggIter
	acct memAcct
	// The group table: keys in first-appearance order; under a key's entry
	// number its group and, one per aggregate, its states, contiguous in their
	// slabs. An evicted group's entry is dead; live counts the others.
	keys    keyTable
	groups  []aggGroup
	states  []aggState
	live    int
	routing bool // rows of non-resident groups go to the partitions
	// evictStuck records that the last evictOver scan released nothing;
	// growSinceEvict accrues charged growth since that scan, so the next one
	// only runs once a fragment can plausibly have crossed the run floor.
	evictStuck     bool
	growSinceEvict int64
	// scratch buffers, reused across rows
	keyVals         value.Row
	keyScratch      []byte
	distinctScratch []byte
	rec             []byte
}

func (f *aggFold) begin([2]*spill.File) bool {
	f.acct.releaseAll()
	a := f.a
	*f = aggFold{
		a:       a,
		acct:    memAcct{ctx: a.ctx},
		keyVals: make(value.Row, len(a.groupBy)),
		// the scratch buffers carry over
		keyScratch: f.keyScratch, distinctScratch: f.distinctScratch, rec: f.rec,
	}
	return true
}

// add folds one partition record: a sequence-tagged raw row, or the partial
// state of a group evicted upstream.
func (f *aggFold) add(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("executor: empty aggregation spill record")
	}
	switch rec[0] {
	case aggRecRaw:
		seq, row, err := decodeSeqRow(&f.a.d.alloc, rec[1:])
		if err != nil {
			return err
		}
		return f.addRow(seq, row)
	case aggRecPartial:
		return f.addPartial(rec)
	}
	return fmt.Errorf("executor: unknown aggregation spill record kind %d", rec[0])
}

// finish turns the fold's groups into output rows, tagged by first
// appearance. A level-0 fold inserted its groups in that order already; below
// it an admitted partial (evicted upstream later than its first row) can sit
// behind younger groups, and an output file must ascend.
func (f *aggFold) finish() error {
	a := f.a
	// Scalar aggregation over empty input still produces one (empty) group.
	if len(a.op.GroupBy) == 0 && len(f.groups) == 0 && !a.d.spilled() {
		f.keyScratch = f.keyScratch[:0]
		f.newGroup(aggGroup{keys: value.Row{}})
	}
	var order []int // nil: every group, in the table's order
	if a.d.level > 0 || f.live < len(f.groups) {
		order = f.liveGroups()
		slices.SortFunc(order, func(x, y int) int { return cmp.Compare(f.groups[x].firstSeq, f.groups[y].firstSeq) })
	}
	a.d.expect(f.live)
	for k := 0; k < f.live; k++ {
		gi := k
		if order != nil {
			gi = order[k]
		}
		g := &f.groups[gi]
		row, err := a.groupRow(g, f.statesOf(gi))
		if err != nil {
			return err
		}
		if err := a.d.emit(g.firstSeq, row); err != nil {
			return err
		}
	}
	f.release()
	return nil
}

// release drops the group table and returns its bytes.
func (f *aggFold) release() {
	f.keys, f.groups, f.states, f.live = keyTable{}, nil, nil, 0
	f.acct.releaseAll()
}

func (f *aggFold) liveGroups() []int {
	order := make([]int, 0, f.live)
	for gi := range f.groups {
		if !f.keys.dead(gi) {
			order = append(order, gi)
		}
	}
	return order
}

func (f *aggFold) statesOf(gi int) []aggState {
	n := len(f.a.op.Aggs)
	return f.states[gi*n : (gi+1)*n : (gi+1)*n]
}

// newGroup makes g resident under the key in keyScratch and returns its number.
func (f *aggFold) newGroup(g aggGroup) int {
	gi, _ := f.keys.insert(f.keyScratch)
	f.groups = append(roomFor(f.groups, 1), g)
	f.live++
	f.states = roomFor(f.states, len(f.a.op.Aggs))
	for _, ae := range f.a.op.Aggs {
		st := aggState{}
		if ae.Distinct {
			st.distinct = &distinctSet{}
		}
		f.states = append(f.states, st)
	}
	return gi
}

func (f *aggFold) grew(gi int, n int64) {
	f.groups[gi].bytes += n
	f.acct.grow(n)
	f.growSinceEvict += n
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
			f.rec = appendSeqRow(append(f.rec[:0], aggRecRaw), seq, row)
			return f.a.d.route(0, f.keyScratch, f.rec)
		}
		keys := f.a.alloc.New(len(f.keyVals))
		copy(keys, f.keyVals)
		gi = f.newGroup(aggGroup{keys: keys, firstSeq: seq})
		f.grew(gi, int64(len(f.keyScratch))+groupBaseBytes(keys, len(f.a.op.Aggs)))
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
		grew, err := states[i].accumulate(ae, arg, &f.distinctScratch)
		if err != nil {
			return err
		}
		if grew > 0 {
			f.grew(gi, grew)
		}
	}
	return f.shed()
}

// shed evicts when resident state (DISTINCT seen-sets) outgrew the budget —
// the one growth path the new-group gate cannot bound. After a scan that found
// nothing to shed it rescans only once enough growth accrued for a fragment to
// have crossed the run floor.
func (f *aggFold) shed() error {
	if !f.acct.spillable() || !f.acct.over() {
		return nil
	}
	if f.a.part != nil {
		// A worker's partial fold never spills; the serial aggregation does.
		return errParallelOverflow
	}
	if !f.evictStuck || f.growSinceEvict >= minDistinctRunBytes {
		return f.evictOver()
	}
	return nil
}

// routes reports whether rows of non-resident groups go to the partitions,
// which they do from the first overflow on. (A worker's partial fold never
// spills; see addRow.)
func (f *aggFold) routes() bool {
	if !f.routing && f.a.part == nil {
		f.routing = f.a.d.overflow(&f.acct, f.live, minFoldGroups)
	}
	return f.routing
}

// addPartial folds one serialized partial group state (rec includes the
// discriminator). The partial either passes through to a deeper partition
// (when the fold is already routing) or becomes a resident group; its
// remaining raw rows always follow it in file order, because an eviction
// precedes every routed row of its group.
func (f *aggFold) addPartial(rec []byte) error {
	firstSeq, n := binary.Uvarint(rec[1:])
	if n <= 0 {
		return errCorruptPartial
	}
	keys, rest, err := spill.DecodeRowIn(&f.a.alloc, rec[1+n:])
	if err != nil {
		return err
	}
	f.keyScratch = keys.AppendKey(f.keyScratch[:0])
	if f.keys.find(f.keyScratch) >= 0 {
		return fmt.Errorf("executor: internal: partial aggregate state after its group became resident")
	}
	if f.routes() {
		return f.a.d.route(0, f.keyScratch, rec)
	}
	gi := f.newGroup(aggGroup{keys: keys, firstSeq: firstSeq})
	fragBytes, err := decodeAggStates(rest, f.statesOf(gi))
	if err != nil {
		return err
	}
	f.grew(gi, int64(len(f.keyScratch))+groupBaseBytes(keys, len(f.a.op.Aggs))+fragBytes)
	return f.shed()
}

// evictOver sheds resident footprint — largest groups first — until tracked
// memory is back under 3/4 of the budget (the hysteresis keeps one growing
// seen-set from re-triggering a scan per element). A group carrying a sizable
// DISTINCT fragment flushes it to a sorted run and stays resident: its rows
// keep folding in place, bounding even a single giant seen-set, and the runs
// merge back at emission (finalizeDistinct). Other groups serialize whole into
// the partition files as partial records and leave the table; their later rows
// route to the same partition by key and merge one level deeper. Groups
// already behind runs can only flush — a run file cannot ride inside a
// partition record — and partial eviction needs headroom below maxSpillLevel,
// while flushing works at any level.
func (f *aggFold) evictOver() error {
	m := f.a.ctx.Mem
	target := m.Budget() - m.Budget()/4
	f.growSinceEvict = 0
	if m.Tracked() <= target || f.live == 0 {
		return nil
	}
	cands := f.liveGroups()
	slices.SortFunc(cands, func(x, y int) int {
		return cmp.Or(cmp.Compare(f.groups[y].bytes, f.groups[x].bytes), cmp.Compare(x, y))
	})
	released := false
	for _, gi := range cands {
		if m.Tracked() <= target {
			break
		}
		g, states := &f.groups[gi], f.statesOf(gi)
		var flushed int64
		hasRuns := false
		for i := range states {
			d := states[i].distinct
			if d == nil {
				continue
			}
			if d.fragBytes >= minDistinctRunBytes {
				rel, err := d.flushFragment(f.a.ctx, &f.a.d.reg)
				if err != nil {
					return err
				}
				flushed += rel
			}
			hasRuns = hasRuns || d.runs != nil
		}
		if flushed > 0 {
			g.bytes -= flushed
			f.acct.release(flushed)
			released = true
			continue
		}
		if hasRuns || f.a.d.level >= maxSpillLevel {
			continue
		}
		f.rec = appendAggPartial(f.rec[:0], g, states)
		if err := f.a.d.route(0, f.keys.key(gi), f.rec); err != nil {
			return err
		}
		f.routing = true
		f.keys.kill(gi)
		clear(states) // the slots stay; what they point at goes
		f.live--
		released = true
		f.acct.release(g.bytes)
	}
	f.evictStuck = !released
	return nil
}

// accumulate folds one input value into the state. scratch is a shared
// reusable buffer for DISTINCT seen-set keys; the returned byte count is the
// DISTINCT set growth to account.
func (s *aggState) accumulate(ae algebra.AggExpr, arg value.Value, scratch *[]byte) (int64, error) {
	if ae.Func == algebra.AggCount && ae.Arg == nil {
		s.count++ // COUNT(*): every row counts
		return 0, nil
	}
	if arg.IsNull() {
		return 0, nil // aggregates skip NULLs
	}
	var grew int64
	if d := s.distinct; d != nil {
		*scratch = arg.AppendKey((*scratch)[:0])
		if grew = d.add(*scratch, arg); grew == 0 {
			return 0, nil
		}
		if d.runs != nil {
			// An element absent from the fragment may still sit in a flushed
			// run, so the eager values below would double-count; they are
			// garbage from the first flush on, and finalizeDistinct recomputes
			// them from the merge before the group emits.
			return grew, nil
		}
	}
	return grew, s.fold(ae, arg)
}

// fold applies one non-NULL value to the running aggregate (any DISTINCT
// bookkeeping already done by the caller).
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
// Exact for count, min, max and integer sums; float SUM/AVG and DISTINCT never
// reach here (parAggEligible).
func (s *aggState) merge(ae algebra.AggExpr, src *aggState) (err error) {
	n := s.count + src.count
	if !src.acc.IsNull() {
		err = s.fold(ae, src.acc)
	}
	s.count = n
	return err
}

// minDistinctRunBytes floors the fragment size worth flushing as a run, so a
// permanently over-budget tracker cannot degrade into per-element run files.
const minDistinctRunBytes = 2048

// flushFragment writes the resident DISTINCT fragment as one sorted run file
// and clears it, returning the released footprint. Canonical keys sort
// bytewise, so every run is internally ascending and duplicate-free;
// duplicates exist only across runs and fall to the merge's dedup.
func (d *distinctSet) flushFragment(ctx *Context, reg *fileReg) (int64, error) {
	order := make([]int, len(d.vals))
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(x, y int) int { return bytes.Compare(d.keys.key(x), d.keys.key(y)) })
	f, err := reg.create(ctx)
	if err != nil {
		return 0, err
	}
	var rec []byte
	for _, e := range order {
		rec = appendElemRec(rec[:0], d.keys.key(e), d.vals[e])
		if err := f.Append(rec); err != nil {
			return 0, err
		}
	}
	d.runs = append(d.runs, f)
	released := d.fragBytes
	d.keys, d.vals, d.fragBytes = keyTable{}, nil, 0
	return released, nil
}

// appendElemRec encodes one record of a DISTINCT run: the element's
// length-prefixed canonical key, then the element.
func appendElemRec(dst, key []byte, val value.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return spill.AppendValue(dst, val)
}

// elemOrder is the merge order of DISTINCT runs: by canonical element key,
// bytewise, each element once. Equal keys carry equal values, so which copy
// surfaces does not matter. Keys copy out of the file's read buffer (Next
// aliases it); values copy by construction (DecodeValue).
var elemOrder = &mergeOrder{
	decode: func(_ *value.RowAlloc, rec []byte, r *mergeRec) (err error) {
		klen, n := binary.Uvarint(rec)
		if n <= 0 || uint64(len(rec)-n) < klen {
			return fmt.Errorf("executor: corrupt DISTINCT run record")
		}
		r.key = append(r.key[:0], rec[n:n+int(klen)]...)
		r.val, _, err = spill.DecodeValue(rec[n+int(klen):])
		return err
	},
	encode:   func(dst []byte, r *mergeRec) []byte { return appendElemRec(dst, r.key, r.val) },
	cmp:      func(a, b *mergeRec) int { return bytes.Compare(a.key, b.key) },
	collapse: true,
}

// finalizeDistinct recomputes a spilled DISTINCT state's aggregates from the
// deduplicating merge of its runs (plus the final resident fragment, flushed
// as one more run), then drops the runs. States that never flushed keep their
// eager values and never reach here.
func (s *aggState) finalizeDistinct(ctx *Context, reg *fileReg, ae algebra.AggExpr) error {
	d := s.distinct
	if len(d.vals) > 0 {
		if _, err := d.flushFragment(ctx, reg); err != nil {
			return err
		}
	}
	m, err := newMerger(ctx, reg, elemOrder, d.runs)
	if err != nil {
		return err
	}
	d.runs = nil
	s.count, s.acc = 0, value.Null
	for r := m.head(); r != nil; r = m.head() {
		if err := ctx.tick(); err != nil {
			return err
		}
		if err := s.fold(ae, r.val); err != nil {
			return err
		}
		if err := m.step(); err != nil {
			return err
		}
	}
	return nil
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
}

// release drops all aggregation state: output, accounting, spill files.
func (a *aggIter) release() {
	a.fold.release()
	a.d.release()
}

func (a *aggIter) Close() error {
	a.release()
	return nil
}
