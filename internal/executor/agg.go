package executor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

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
	// instead of emitting, leaves the groups in part.partial for the
	// coordinator's mergePartials.
	part *partition
	// alloc makes the group-key rows and the output rows.
	alloc value.RowAlloc
}

// aggState accumulates one aggregate within one group.
//
// DISTINCT states keep their seen-set as a resident fragment (canonical key →
// value) plus zero or more sorted runs on disk. While no run exists the
// aggregate folds eagerly, exactly the historical path. Once memory pressure
// flushes the first fragment (flushFragment), the eager values stop being
// meaningful — an element absent from the fragment may still be in a run — and
// finalizeDistinct recomputes them from a deduplicating merge of all runs
// before the group emits.
type aggState struct {
	count    int64
	sum      value.Value
	min      value.Value
	max      value.Value
	distinct map[string]value.Value // non-nil iff DISTINCT
	// fragBytes is the accounted footprint of the resident fragment; runs are
	// the flushed sorted element runs.
	fragBytes int64
	runs      []*spill.File
}

// aggGroup is one group: its key values, its aggregate states, and the input
// sequence of its first row (the output-order tag).
type aggGroup struct {
	keys     value.Row
	states   []aggState
	firstSeq uint64
	// bytes is the group's accounted footprint (key, states, DISTINCT
	// entries), released in one piece when the group is evicted.
	bytes int64
}

// aggGroupFixedBytes approximates the per-group footprint beyond key bytes
// and DISTINCT entries.
const aggGroupFixedBytes = 96

// groupBaseBytes is a group's accountable footprint before its map key and
// any DISTINCT entries: the key row, the struct, and the aggregate states.
func groupBaseBytes(keys value.Row, nStates int) int64 {
	return rowBytes(keys) + aggGroupFixedBytes + int64(nStates)*48
}

// appendGroupKey frames a group's key values into its group-table map key.
func appendGroupKey(dst []byte, keys value.Row) []byte {
	for _, v := range keys {
		dst = value.AppendFramedKey(dst, v)
	}
	return dst
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
// discriminator. DISTINCT fragments serialize as length-prefixed canonical
// element keys, each followed by its source value; set order does not matter
// because the reader folds them back into a set. Groups holding runs are never
// serialized (evictOver only flushes them): a run is a file, and files cannot
// ride inside a partition record.
func appendAggPartial(dst []byte, g *aggGroup) []byte {
	dst = append(dst, aggRecPartial)
	dst = binary.AppendUvarint(dst, g.firstSeq)
	dst = spill.AppendRow(dst, g.keys)
	for i := range g.states {
		st := &g.states[i]
		dst = binary.AppendUvarint(dst, uint64(st.count))
		dst = spill.AppendValue(dst, st.sum)
		dst = spill.AppendValue(dst, st.min)
		dst = spill.AppendValue(dst, st.max)
		if st.distinct == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(st.distinct)))
		for k, v := range st.distinct {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst = spill.AppendValue(dst, v)
		}
	}
	return dst
}

// decodeAggPartial reverses appendAggPartial (rec excludes the discriminator
// byte), returning the reconstructed group and its accountable byte footprint
// (sans the map key, which the caller adds).
func decodeAggPartial(a *value.RowAlloc, rec []byte, nAggs int) (*aggGroup, int64, error) {
	corrupt := fmt.Errorf("executor: corrupt partial aggregate record")
	firstSeq, n := binary.Uvarint(rec)
	if n <= 0 {
		return nil, 0, corrupt
	}
	keys, rest, err := spill.DecodeRowIn(a, rec[n:])
	if err != nil {
		return nil, 0, err
	}
	g := &aggGroup{keys: keys, states: make([]aggState, nAggs), firstSeq: firstSeq}
	bytes := groupBaseBytes(keys, nAggs)
	for i := 0; i < nAggs; i++ {
		st := &g.states[i]
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, corrupt
		}
		st.count = int64(count)
		rest = rest[n:]
		if st.sum, rest, err = spill.DecodeValue(rest); err != nil {
			return nil, 0, err
		}
		if st.min, rest, err = spill.DecodeValue(rest); err != nil {
			return nil, 0, err
		}
		if st.max, rest, err = spill.DecodeValue(rest); err != nil {
			return nil, 0, err
		}
		if len(rest) == 0 {
			return nil, 0, corrupt
		}
		hasDistinct := rest[0]
		rest = rest[1:]
		if hasDistinct == 0 {
			continue
		}
		nElems, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, corrupt
		}
		rest = rest[n:]
		st.distinct = make(map[string]value.Value, nElems)
		for j := uint64(0); j < nElems; j++ {
			klen, n := binary.Uvarint(rest)
			if n <= 0 || uint64(len(rest)-n) < klen {
				return nil, 0, corrupt
			}
			k := string(rest[n : n+int(klen)])
			rest = rest[n+int(klen):]
			var v value.Value
			if v, rest, err = spill.DecodeValue(rest); err != nil {
				return nil, 0, err
			}
			st.distinct[k] = v
			st.fragBytes += int64(klen) + mapEntryBytes + valueFixedBytes + int64(len(v.Str()))
		}
		bytes += st.fragBytes
	}
	return g, bytes, nil
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
		a.part.partial = a.fold.order
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
	fold := &a.fold
	for i := range parts {
		for _, g := range parts[i].partial {
			fold.keyScratch = appendGroupKey(fold.keyScratch[:0], g.keys)
			dst, ok := fold.groups[string(fold.keyScratch)]
			if !ok {
				fold.groups[string(fold.keyScratch)] = g
				fold.order = append(fold.order, g)
				fold.acct.grow(g.bytes)
				if fold.acct.spillable() && fold.acct.over() {
					return errParallelOverflow
				}
				continue
			}
			for s := range dst.states {
				if err := mergeAggState(&dst.states[s], &g.states[s]); err != nil {
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
func (a *aggIter) groupRow(g *aggGroup) (value.Row, error) {
	row := a.alloc.New(len(g.keys) + len(g.states))
	copy(row, g.keys)
	for i, ae := range a.op.Aggs {
		st := &g.states[i]
		if st.runs != nil {
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
	a       *aggIter
	acct    memAcct
	groups  map[string]*aggGroup
	order   []*aggGroup
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
		groups:  make(map[string]*aggGroup),
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
	if len(a.op.GroupBy) == 0 && len(f.order) == 0 && !a.d.spilled() {
		f.order = append(f.order, f.newGroup(value.Row{}, 0))
	}
	if a.d.level > 0 {
		sort.Slice(f.order, func(i, j int) bool { return f.order[i].firstSeq < f.order[j].firstSeq })
	}
	a.d.expect(len(f.order))
	for _, g := range f.order {
		row, err := a.groupRow(g)
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
	f.groups, f.order = nil, nil
	f.acct.releaseAll()
}

func (f *aggFold) newGroup(keys value.Row, firstSeq uint64) *aggGroup {
	aggs := f.a.op.Aggs
	g := &aggGroup{keys: keys, states: make([]aggState, len(aggs)), firstSeq: firstSeq}
	for i, ae := range aggs {
		st := &g.states[i]
		st.sum, st.min, st.max = value.Null, value.Null, value.Null
		if ae.Distinct {
			st.distinct = make(map[string]value.Value)
		}
	}
	return g
}

// addRow folds one (sequence, row) pair: accumulate into a resident group,
// create the group if there is room, or route the row to a partition.
func (f *aggFold) addRow(seq uint64, row value.Row) error {
	// The group key is built in the scratch buffer and looked up
	// allocation-free; only new groups pay for a map-owned key string.
	f.keyScratch = f.keyScratch[:0]
	for i, ge := range f.a.groupBy {
		v, err := ge(row, f.a.ctx)
		if err != nil {
			return err
		}
		f.keyVals[i] = v
		f.keyScratch = value.AppendFramedKey(f.keyScratch, v)
	}
	g, ok := f.groups[string(f.keyScratch)]
	if !ok {
		if f.routes() {
			f.rec = appendSeqRow(append(f.rec[:0], aggRecRaw), seq, row)
			return f.a.d.route(0, f.keyScratch, f.rec)
		}
		keys := f.a.alloc.New(len(f.keyVals))
		copy(keys, f.keyVals)
		g = f.newGroup(keys, seq)
		f.groups[string(f.keyScratch)] = g
		f.order = append(f.order, g)
		g.bytes = int64(len(f.keyScratch)) + groupBaseBytes(g.keys, len(g.states))
		f.acct.grow(g.bytes)
		f.growSinceEvict += g.bytes
	}
	for i, ae := range f.a.op.Aggs {
		var arg value.Value
		if f.a.argExprs[i] != nil {
			v, err := f.a.argExprs[i](row, f.a.ctx)
			if err != nil {
				return err
			}
			arg = v
		}
		grew, err := g.states[i].accumulate(ae, arg, &f.distinctScratch)
		if err != nil {
			return err
		}
		if grew > 0 {
			g.bytes += grew
			f.acct.grow(grew)
			f.growSinceEvict += grew
		}
	}
	// Resident state that outgrew the budget (DISTINCT seen-sets) sheds here
	// — the one growth path the new-group gate above cannot bound. When a
	// previous scan found nothing left to shed, rescan only once enough new
	// growth accrued for a fragment to have crossed the run floor.
	if f.acct.spillable() && f.acct.over() {
		if f.a.part != nil {
			// A worker's partial fold never spills: the statement falls back
			// to the serial aggregation, which does.
			return errParallelOverflow
		}
		if !f.evictStuck || f.growSinceEvict >= minDistinctRunBytes {
			return f.evictOver()
		}
	}
	return nil
}

// routes reports whether rows of non-resident groups go to the partitions,
// which they do from the first overflow on. (A worker's partial fold never
// spills; see addRow.)
func (f *aggFold) routes() bool {
	if !f.routing && f.a.part == nil {
		f.routing = f.a.d.overflow(&f.acct, len(f.order), minFoldGroups)
	}
	return f.routing
}

// addPartial folds one serialized partial group state (rec includes the
// discriminator). The partial either passes through to a deeper partition
// (when the fold is already routing) or becomes a resident group; its
// remaining raw rows always follow it in file order, because an eviction
// precedes every routed row of its group.
func (f *aggFold) addPartial(rec []byte) error {
	g, bytes, err := decodeAggPartial(&f.a.alloc, rec[1:], len(f.a.op.Aggs))
	if err != nil {
		return err
	}
	f.keyScratch = appendGroupKey(f.keyScratch[:0], g.keys)
	if _, exists := f.groups[string(f.keyScratch)]; exists {
		return fmt.Errorf("executor: internal: partial aggregate state after its group became resident")
	}
	if f.routes() {
		return f.a.d.route(0, f.keyScratch, rec)
	}
	g.bytes = bytes + int64(len(f.keyScratch))
	f.groups[string(f.keyScratch)] = g
	f.order = append(f.order, g)
	f.acct.grow(g.bytes)
	f.growSinceEvict += g.bytes
	if f.acct.spillable() && f.acct.over() {
		if !f.evictStuck || f.growSinceEvict >= minDistinctRunBytes {
			return f.evictOver()
		}
	}
	return nil
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
	if m.Tracked() <= target || len(f.order) == 0 {
		return nil
	}
	cands := append([]*aggGroup(nil), f.order...)
	sort.Slice(cands, func(i, j int) bool { return cands[i].bytes > cands[j].bytes })
	evicted := make(map[*aggGroup]bool)
	released := false
	var key []byte
	for _, g := range cands {
		if m.Tracked() <= target {
			break
		}
		var flushed int64
		hasRuns := false
		for i := range g.states {
			st := &g.states[i]
			if st.runs != nil {
				hasRuns = true
			}
			if st.distinct != nil && st.fragBytes >= minDistinctRunBytes {
				rel, err := st.flushFragment(f.a.ctx, &f.a.d.reg)
				if err != nil {
					return err
				}
				flushed += rel
				hasRuns = true
			}
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
		key = appendGroupKey(key[:0], g.keys)
		f.rec = appendAggPartial(f.rec[:0], g)
		if err := f.a.d.route(0, key, f.rec); err != nil {
			return err
		}
		f.routing = true
		delete(f.groups, string(key))
		evicted[g] = true
		released = true
		f.acct.release(g.bytes)
	}
	if len(evicted) > 0 {
		keep := f.order[:0]
		for _, g := range f.order {
			if !evicted[g] {
				keep = append(keep, g)
			}
		}
		f.order = keep
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
	if s.distinct != nil {
		*scratch = arg.AppendKey((*scratch)[:0])
		if _, seen := s.distinct[string(*scratch)]; seen {
			return 0, nil
		}
		s.distinct[string(*scratch)] = arg
		grew = int64(len(*scratch)) + mapEntryBytes + valueFixedBytes + int64(len(arg.Str()))
		s.fragBytes += grew
		if s.runs != nil {
			// An element absent from the fragment may still sit in a flushed
			// run, so the eager values below would double-count; they are
			// garbage from the first flush on, and finalizeDistinct recomputes
			// them from the merge before the group emits.
			return grew, nil
		}
	}
	return grew, s.fold(ae, arg)
}

// fold applies one non-NULL value to the running aggregates (any DISTINCT
// bookkeeping already done by the caller).
func (s *aggState) fold(ae algebra.AggExpr, arg value.Value) error {
	s.count++
	switch ae.Func {
	case algebra.AggCount:
	case algebra.AggSum, algebra.AggAvg:
		if s.sum.IsNull() {
			s.sum = arg
		} else {
			v, err := value.Add(s.sum, arg)
			if err != nil {
				return err
			}
			s.sum = v
		}
	case algebra.AggMin:
		if s.min.IsNull() {
			s.min = arg
		} else if c, err := value.Compare(arg, s.min); err != nil {
			return err
		} else if c < 0 {
			s.min = arg
		}
	case algebra.AggMax:
		if s.max.IsNull() {
			s.max = arg
		} else if c, err := value.Compare(arg, s.max); err != nil {
			return err
		} else if c > 0 {
			s.max = arg
		}
	default:
		return fmt.Errorf("executor: unknown aggregate %q", ae.Func)
	}
	return nil
}

// mergeAggState folds one partial state into another. Exact for count, min,
// max and integer sums; float SUM/AVG and DISTINCT never reach here
// (parAggEligible).
func mergeAggState(dst, src *aggState) error {
	dst.count += src.count
	if !src.sum.IsNull() {
		if dst.sum.IsNull() {
			dst.sum = src.sum
		} else {
			v, err := value.Add(dst.sum, src.sum)
			if err != nil {
				return err
			}
			dst.sum = v
		}
	}
	if !src.min.IsNull() {
		if dst.min.IsNull() {
			dst.min = src.min
		} else if c, err := value.Compare(src.min, dst.min); err != nil {
			return err
		} else if c < 0 {
			dst.min = src.min
		}
	}
	if !src.max.IsNull() {
		if dst.max.IsNull() {
			dst.max = src.max
		} else if c, err := value.Compare(src.max, dst.max); err != nil {
			return err
		} else if c > 0 {
			dst.max = src.max
		}
	}
	return nil
}

// minDistinctRunBytes floors the fragment size worth flushing as a run, so a
// permanently over-budget tracker cannot degrade into per-element run files.
const minDistinctRunBytes = 2048

// flushFragment writes the resident DISTINCT fragment as one sorted run file
// and clears it, returning the released footprint. Canonical keys sort
// bytewise, so every run is internally ascending and duplicate-free;
// duplicates exist only across runs and fall to the merge's dedup.
func (s *aggState) flushFragment(ctx *Context, reg *fileReg) (int64, error) {
	keys := make([]string, 0, len(s.distinct))
	for k := range s.distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f, err := reg.create(ctx)
	if err != nil {
		return 0, err
	}
	var rec []byte
	for _, k := range keys {
		rec = appendElemRec(rec[:0], []byte(k), s.distinct[k])
		if err := f.Append(rec); err != nil {
			return 0, err
		}
	}
	s.runs = append(s.runs, f)
	released := s.fragBytes
	s.fragBytes = 0
	s.distinct = make(map[string]value.Value)
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
	if len(s.distinct) > 0 {
		if _, err := s.flushFragment(ctx, reg); err != nil {
			return err
		}
	}
	m, err := newMerger(ctx, reg, elemOrder, s.runs)
	if err != nil {
		return err
	}
	s.runs = nil
	s.count, s.sum, s.min, s.max = 0, value.Null, value.Null, value.Null
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
	case algebra.AggSum:
		return s.sum, nil
	case algebra.AggAvg:
		if s.count == 0 || s.sum.IsNull() {
			return value.Null, nil
		}
		return value.NewFloat(s.sum.Float() / float64(s.count)), nil
	case algebra.AggMin:
		return s.min, nil
	case algebra.AggMax:
		return s.max, nil
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
