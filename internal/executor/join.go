package executor

import (
	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// extractEquiKeys finds the hashable equality conjuncts of the join condition
// and returns, beside them, what is left of the condition for the join to
// evaluate on each candidate pair (nil: nothing). A conjunct that became a key
// is not evaluated again: candidates are pairs whose keys are byte-equal, and
// the key encoding is the equality of value.Compare (NULL with NULL only under
// IS NOT DISTINCT FROM: a strict key holding a NULL is never hashed), so on
// every candidate the conjunct is true. A join with no key (a theta join, a
// cross product) is the hash join on the empty key: every build row is a
// candidate of every probe row, and the whole condition is the residual.
func extractEquiKeys(op *algebra.Join) (keys []algebra.EquiKey, residual algebra.Expr) {
	nLeft := len(op.Left.Schema())
	var rest []algebra.Expr
	for _, conj := range algebra.SplitAnd(op.Cond) {
		if key, ok := algebra.EquiKeyOf(conj, nLeft); ok {
			keys = append(keys, key)
		} else {
			rest = append(rest, conj)
		}
	}
	return keys, algebra.AndAll(rest)
}

// buildRow is one materialized build-side row, and whether a probe has
// matched it (what the FULL/RIGHT tail reads).
type buildRow struct {
	row     value.Row
	matched bool
}

// joinEmit makes a join's output rows. Every row a join hands up is built
// here, once, from the probe row, the build row and constants: through the
// column map of the projection directly above the join when the builder
// found one it could fold in, and through the identity map otherwise — so
// there is one emit path, and no join output is allocated a second time by a
// projectIter above it.
type joinEmit struct {
	// cols maps output column → source: c >= 0 reads column c of left⧺right,
	// c < 0 reads consts[^c].
	cols   []int32
	consts []value.Value
	nLeft  int
	rows   rowMaker
}

// newJoinEmit derives the emitter for a join and the pure column-and-constant
// projection above it (nil: emit left⧺right).
func newJoinEmit(j *algebra.Join, proj *algebra.Project) *joinEmit {
	e := &joinEmit{nLeft: len(j.Left.Schema())}
	if proj == nil {
		e.cols = make([]int32, e.nLeft+len(j.Right.Schema()))
		for i := range e.cols {
			e.cols[i] = int32(i)
		}
		return e
	}
	e.cols = make([]int32, len(proj.Exprs))
	for i, x := range proj.Exprs {
		switch x := x.(type) {
		case *algebra.ColIdx:
			e.cols[i] = int32(x.Idx)
		case *algebra.Const:
			e.cols[i] = ^int32(len(e.consts))
			e.consts = append(e.consts, x.Val)
		}
	}
	return e
}

// row makes the output row for a probe/build pair; a nil side reads as all
// NULLs (outer-join padding).
func (e *joinEmit) row(l, r value.Row) value.Row {
	dst := e.rows.New(len(e.cols))
	for i, c := range e.cols {
		switch {
		case c < 0:
			dst[i] = e.consts[^c]
		case int(c) < e.nLeft:
			if l != nil {
				dst[i] = l[c]
			} else {
				dst[i] = value.Null
			}
		case r != nil:
			dst[i] = r[int(c)-e.nLeft]
		default:
			dst[i] = value.Null
		}
	}
	return dst
}

// --- one probe step ---------------------------------------------------------------

// probeState follows one probe row through its candidate build rows — the
// hash join's from a bucket chain, the lateral join's from the right side it
// re-ran for the row — and is the one place the join kind decides what a
// match, or the lack of one, emits.
type probeState struct {
	kind    algebra.JoinKind
	row     value.Row // the probe row in flight; nil between probes
	matched bool      // a candidate qualified
}

func (p *probeState) start(row value.Row) { p.row, p.matched = row, false }

// alone reports whether the probe row, having met every candidate, is an
// output row by itself.
func (p *probeState) alone() bool { return !p.matched && p.keepsUnmatched() }

// keepsUnmatched: the join emits a probe row that matched nothing,
// null-padded (LEFT, FULL).
func (p *probeState) keepsUnmatched() bool {
	return p.kind == algebra.JoinLeft || p.kind == algebra.JoinFull
}

// buildTail: once the probes are through, the join emits the build rows that
// matched nothing, null-padded (FULL, RIGHT).
func (p *probeState) buildTail() bool {
	return p.kind == algebra.JoinFull || p.kind == algebra.JoinRight
}

// --- hash join -------------------------------------------------------------------

type hashJoinIter struct {
	op    *algebra.Join
	left  iterator
	right iterator
	// keys are the equi keys, none for a theta join or a cross product: then
	// the join keeps no key table and every probe meets the build rows in
	// order.
	keys []algebra.EquiKey
	// residual is the part of the condition the keys do not already decide.
	residual algebra.Expr
	out      *joinEmit
	ctx      *Context

	// compiled per-side key evaluators and residual condition
	leftKey  []compiledExpr
	rightKey []compiledExpr
	cond     compiledPred // nil when the keys decide the whole condition

	// The build side: rows in insertion order and, under the same numbers,
	// their keys in table (dead for a NULL in a strict-equality key; empty
	// when the join has no key), sized from slot.
	rows  []buildRow
	table keyTable
	slot  *sizeSlot
	// keyScratch is the reusable key-encoding buffer (zero allocs per probe).
	keyScratch []byte
	// comb is the reusable probe⧺build scratch row the residual condition is
	// evaluated on; it never leaves the iterator.
	comb value.Row
	// current probe state: its key, and cur, the next candidate of its chain
	p        probeState
	probeKey []byte
	cur      int
	// full-join tail state
	tailIdx int
	inTail  bool
	done    bool
	// The build side is charged against work_mem. Past the budget the whole
	// join switches to grace partitioning (gracejoin.go): the driver joins
	// partition by partition and the output streams from its merger instead
	// of the probe loop.
	acct memAcct
	d    graceDriver
	graceJoin
	// A join with no key has no hash to partition on. Past the budget its
	// resident rows stay, the rest of the build side goes, in order, to
	// over, and every probe walks the file after the resident chain: the
	// output streams in the in-memory order, and the disk holds the build
	// side, never the output. overAt is the file ordinal the walk in flight
	// reads next (-1: no walk); overHit marks the file rows a probe matched,
	// for the FULL/RIGHT tail.
	over    *spill.File
	overAt  int64
	overHit bitSet
}

func (h *hashJoinIter) Open(ctx *Context) error {
	h.release()
	h.ctx = ctx
	h.inTail, h.done = false, false
	h.tailIdx = 0
	h.p = probeState{kind: h.op.Kind}
	h.acct.ctx = ctx
	h.overHit.reset(ctx)
	h.d.start(ctx, h)
	if h.leftKey == nil {
		nLeft := len(h.op.Left.Schema())
		for _, k := range h.keys {
			h.leftKey = append(h.leftKey, Compile(k.Left))
			h.rightKey = append(h.rightKey, Compile(algebra.ShiftCols(k.Right, -nLeft)))
		}
	}
	if h.cond == nil && h.residual != nil {
		h.cond = compilePred(h.residual)
	}
	if err := openOrClose(h.right, ctx); err != nil {
		return err
	}
	h.table.mem = ctx.Mem
	perRow := buildRowBytes
	if len(h.keys) > 0 {
		perRow += keyEntryBytes
	}
	if n, k := h.slot.size(ctx, perRow); n > 0 {
		h.rows = takeSlab[buildRow](ctx.Mem, n)
		if len(h.keys) > 0 {
			h.table.presize(n, k)
		}
	}
	// Stream the build side in, charging every retained row (its payload, its
	// key bytes, and the struct/bucket overhead). The moment the budget is
	// crossed the buffered prefix moves to the grace partitions, and the rest
	// of the build input follows it there row by row.
	nBuild := uint64(0)
	err := drainRows(ctx, h.right, func(row value.Row) error {
		key, hashable, err := h.keyOf(row, h.rightKey)
		if err != nil {
			return err
		}
		nBuild++
		switch {
		case h.d.spilled():
			return h.routeRow(0, nBuild-1, hashable, key, row)
		case h.over != nil:
			h.rec = value.AppendRow(h.rec[:0], row)
			return h.over.Append(h.rec)
		}
		h.addBuild(row, key, hashable)
		if h.d.overflow(&h.acct, len(h.rows), minBufferRows) {
			h.slot.record(len(h.rows), len(h.table.arena))
			if len(h.keys) == 0 {
				h.over, err = h.d.reg.create(ctx)
				return err
			}
			return h.spillTable()
		}
		return nil
	})
	h.right.Close()
	if err != nil {
		return err
	}
	if ctx.owner != nil {
		ctx.owner.BuildRows = int64(nBuild)
	}
	if h.d.spilled() {
		return h.openGrace()
	}
	h.slot.record(len(h.rows), len(h.table.arena))
	return h.left.Open(ctx)
}

// addBuild appends and charges one build row; key is read only if hashable.
func (h *hashJoinIter) addBuild(row value.Row, key []byte, hashable bool) {
	cost := rowBytes(row) + buildRowBytes
	if len(h.keys) > 0 {
		if !hashable {
			key = nil
		}
		h.table.add(key, hashable)
		cost += keyEntryBytes + int64(len(key))
	}
	h.rows = append(roomFor(h.ctx.Mem, h.rows, 1), buildRow{row: row})
	h.acct.grow(cost)
}

// keyOf encodes a row's hash key, by the given side's compiled key
// expressions, into the scratch buffer: valid until the next call.
// hashable=false: a NULL in a strict-equality key, the row can never match.
func (h *hashJoinIter) keyOf(row value.Row, side []compiledExpr) (key []byte, hashable bool, err error) {
	h.keyScratch = h.keyScratch[:0]
	for i, ce := range side {
		v, err := ce(row, h.ctx)
		if err != nil || (v.IsNull() && !h.keys[i].NullEq) {
			return nil, false, err
		}
		h.keyScratch = v.AppendKey(h.keyScratch)
	}
	return h.keyScratch, true, nil
}

// combineScratch copies l⧺r into the reusable scratch row pointed to by
// scratch and returns it, valid until the next call.
func combineScratch(scratch *value.Row, l, r value.Row) value.Row {
	n := len(l) + len(r)
	if cap(*scratch) < n {
		*scratch = make(value.Row, 0, n)
	}
	c := (*scratch)[:0]
	c = append(c, l...)
	c = append(c, r...)
	*scratch = c
	return c
}

// startProbe makes row the probe in flight. key is only read while the probe
// lasts; an unhashable probe has no candidates.
func (h *hashJoinIter) startProbe(row value.Row, key []byte, hashable bool) {
	h.p.start(row)
	h.probeKey, h.cur, h.overAt = key, -1, -1
	if hashable {
		if len(h.keys) > 0 {
			h.cur = h.table.find(key)
		} else if len(h.rows) > 0 {
			h.cur = 0
		}
		h.startOver()
	}
}

// startOver starts a walk of the overflow file, if there is one.
func (h *hashJoinIter) startOver() {
	h.overAt = -1
	if h.over != nil {
		h.overAt = 0
	}
}

// nextOver returns the next row of the overflow walk in flight, which
// overAt >= 0 says there is, and its ordinal in the file; nil at the walk's
// end. The row is valid until the next call. It polls for cancellation per
// row.
func (h *hashJoinIter) nextOver() (value.Row, uint64, error) {
	if err := h.ctx.tick(); err != nil {
		return nil, 0, err
	}
	if h.overAt == 0 {
		if err := h.over.StartRead(); err != nil {
			return nil, 0, err
		}
	}
	rec, err := h.over.Next()
	if err != nil || rec == nil {
		h.overAt = -1
		return nil, 0, err
	}
	at := uint64(h.overAt)
	h.overAt++
	row, _, err := value.DecodeRow(h.d.recRow(), rec)
	return row, at, err
}

// nextOutput advances the probe in flight to its next output row, l⧺r with a
// nil r reading as NULLs; ok=false means the probe ended without another. It
// walks the entries of the probe's key in the table, which holds the whole build
// side or — for a grace partition joined in chunks — one chunk of it; a join
// with no key walks its resident build rows in order and then its overflow
// file. Only when the table holds the last of the build rows this probe can
// meet may resolve be set, so that a probe left without a match emits alone. It polls for cancellation per candidate:
// a chain can hold the whole build side.
func (h *hashJoinIter) nextOutput(resolve bool) (l, r value.Row, ok bool, err error) {
	p := &h.p
	for h.cur >= 0 {
		if err := h.ctx.tick(); err != nil {
			return nil, nil, false, err
		}
		br := &h.rows[h.cur]
		if len(h.keys) > 0 {
			h.cur = h.table.next(h.cur, h.probeKey)
		} else if h.cur++; h.cur == len(h.rows) {
			h.cur = -1
		}
		if h.cond != nil {
			ok, err := h.cond(combineScratch(&h.comb, p.row, br.row), h.ctx)
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				continue
			}
		}
		br.matched, p.matched = true, true
		return p.row, br.row, true, nil
	}
	for h.overAt >= 0 {
		row, at, err := h.nextOver()
		if err != nil {
			return nil, nil, false, err
		}
		if row == nil {
			break
		}
		if h.cond != nil {
			ok, err := h.cond(combineScratch(&h.comb, p.row, row), h.ctx)
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				continue
			}
		}
		if p.buildTail() {
			h.overHit.set(at)
		}
		p.matched = true
		return p.row, row, true, nil
	}
	l, p.row = p.row, nil
	return l, nil, resolve && p.alone(), nil
}

func (h *hashJoinIter) Next() (value.Row, error) {
	if h.d.spilled() {
		// Grace path: the join already ran partition by partition; the merger
		// replays the outputs in exact serial emission order.
		return h.d.Next()
	}
	for {
		// Poll for cancellation: a probe stream that never matches loops here
		// without emitting rows, invisible to the materialization polls.
		if err := h.ctx.tick(); err != nil {
			return nil, err
		}
		if h.done {
			return nil, nil
		}
		if h.inTail {
			// FULL/RIGHT JOIN: emit unmatched build-side rows null-padded,
			// the resident ones and then those of the overflow file.
			for h.tailIdx < len(h.rows) {
				br := &h.rows[h.tailIdx]
				h.tailIdx++
				if !br.matched {
					return h.out.row(nil, br.row), nil
				}
			}
			for h.overAt >= 0 {
				row, at, err := h.nextOver()
				if err != nil {
					return nil, err
				}
				if row != nil && !h.overHit.get(at) {
					return h.out.row(nil, row), nil
				}
			}
			h.done = true
			return nil, nil
		}
		if h.p.row == nil {
			probe, err := h.left.Next()
			if err != nil {
				return nil, err
			}
			if probe == nil {
				if h.p.buildTail() {
					h.inTail = true
					h.startOver()
					continue
				}
				h.done = true
				return nil, nil
			}
			key, hashable, err := h.keyOf(probe, h.leftKey)
			if err != nil {
				return nil, err
			}
			h.startProbe(probe, key, hashable)
		}
		l, r, ok, err := h.nextOutput(true)
		if err != nil {
			return nil, err
		}
		if ok {
			return h.out.row(l, r), nil
		}
	}
}

// release drops the build table, grace state, spill files and accounted bytes.
func (h *hashJoinIter) release() {
	h.rows = giveSlab(h.acct.mem(), h.rows)
	h.table.free()
	h.seen.reset(nil)
	h.graceJoin = graceJoin{}
	h.overHit.reset(nil)
	h.over = nil
	h.acct.releaseAll()
	h.d.release() // closes the overflow file too
}

func (h *hashJoinIter) Close() error {
	h.release()
	return h.left.Close()
}

// --- lateral join ---------------------------------------------------------------------

// lateralJoinIter re-executes the right side for every left row with the left
// row pushed as the correlation context. The provenance rewriter uses this to
// implement the EDBT '09 de-correlation of nested subqueries. The right-side
// iterator tree is built (and its expressions compiled) once; each probe row
// only re-Opens it, so the compile-once property survives per-row
// re-execution.
type lateralJoinIter struct {
	op    *algebra.Join
	left  iterator
	right iterator
	out   *joinEmit
	ctx   *Context
	cond  compiledPred

	comb value.Row
	p    probeState
	// the right side's rows for the probe in flight, and the next to try
	curRows []value.Row
	curIdx  int
}

func (l *lateralJoinIter) Open(ctx *Context) error {
	l.ctx = ctx
	l.p = probeState{kind: l.op.Kind}
	if l.cond == nil && l.op.Cond != nil {
		l.cond = compilePred(l.op.Cond)
	}
	return l.left.Open(ctx)
}

func (l *lateralJoinIter) Next() (value.Row, error) {
	for {
		if err := l.ctx.tick(); err != nil {
			return nil, err
		}
		if l.p.row == nil {
			probe, err := l.left.Next()
			if err != nil || probe == nil {
				return nil, err
			}
			// Re-open the prebuilt right side under this probe row.
			l.ctx.pushOuter(probe)
			rows, err := reopenAndDrain(l.right, l.ctx)
			l.ctx.popOuter()
			if err != nil {
				return nil, err
			}
			l.p.start(probe)
			l.curRows, l.curIdx = rows, 0
		}
		for l.curIdx < len(l.curRows) {
			r := l.curRows[l.curIdx]
			l.curIdx++
			if l.cond != nil {
				ok, err := l.cond(combineScratch(&l.comb, l.p.row, r), l.ctx)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			l.p.matched = true
			return l.out.row(l.p.row, r), nil
		}
		probe := l.p.row
		l.p.row = nil
		if l.p.alone() {
			return l.out.row(probe, nil), nil
		}
	}
}

func (l *lateralJoinIter) Close() error { return l.left.Close() }
