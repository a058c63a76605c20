package executor

import (
	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/sql"
	"perm/internal/value"
)

// equiKey is one hashable join key pair: leftExpr over the left schema,
// rightExpr over the right schema (already un-shifted). nullEq marks
// IS NOT DISTINCT FROM keys where NULL joins NULL.
type equiKey struct {
	left   algebra.Expr
	right  algebra.Expr
	nullEq bool
}

// extractEquiKeys finds the hashable equality conjuncts of the join condition
// and returns, beside them, what is left of the condition for the join to
// evaluate on each candidate pair (nil: nothing). A conjunct that became a key
// is not evaluated again: candidates are pairs whose keys are byte-equal, and
// the key encoding is the equality of value.Compare (NULL with NULL only under
// IS NOT DISTINCT FROM: a strict key holding a NULL is never hashed), so on
// every candidate the conjunct is true.
func extractEquiKeys(op *algebra.Join) (keys []equiKey, residual algebra.Expr) {
	if op.Cond == nil {
		return nil, nil
	}
	nLeft := len(op.Left.Schema())
	var rest []algebra.Expr
	for _, conj := range algebra.SplitAnd(op.Cond) {
		if key, ok := equiKeyOf(conj, nLeft); ok {
			keys = append(keys, key)
		} else {
			rest = append(rest, conj)
		}
	}
	return keys, algebra.AndAll(rest)
}

// equiKeyOf reads conj as an equality between an expression over the left
// input and one over the right.
func equiKeyOf(conj algebra.Expr, nLeft int) (equiKey, bool) {
	b, ok := conj.(*algebra.Bin)
	if !ok || (b.Op != sql.OpEq && b.Op != sql.OpNotDistinct) {
		return equiKey{}, false
	}
	if algebra.HasSubplan(b.L) || algebra.HasSubplan(b.R) {
		return equiKey{}, false
	}
	lSide, lOK := sideOf(b.L, nLeft)
	rSide, rOK := sideOf(b.R, nLeft)
	l, r := b.L, b.R
	switch {
	case !lOK || !rOK || lSide == rSide:
		return equiKey{}, false
	case lSide == 1:
		l, r = r, l
	}
	return equiKey{left: l, right: algebra.ShiftCols(r, -nLeft), nullEq: b.Op == sql.OpNotDistinct}, true
}

// sideOf classifies which input an expression references: 0 = left only,
// 1 = right only. ok is false when it references both sides or neither
// determinately (constants count as either; pure constants return left).
func sideOf(e algebra.Expr, nLeft int) (int, bool) {
	used := map[int]bool{}
	algebra.ColsUsed(e, used)
	left, right := false, false
	for idx := range used {
		if idx < nLeft {
			left = true
		} else {
			right = true
		}
	}
	switch {
	case left && right:
		return 0, false
	case right:
		return 1, true
	default:
		return 0, true
	}
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

// probeState follows one probe row through its candidate build rows. Both
// join operators drive it — the hash join from a bucket chain, the nested
// loop from its whole build side — and it is the one place the join kind
// decides what a match, or the lack of one, emits.
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
	keys  []equiKey
	// residual is the part of the condition the keys do not already decide.
	residual algebra.Expr
	out      *joinEmit
	ctx      *Context

	// compiled per-side key evaluators and residual condition
	leftKey  []compiledExpr
	rightKey []compiledExpr
	cond     compiledPred // nil when the keys decide the whole condition

	// The build side: rows in insertion order and, under the same numbers,
	// their keys in table (dead for a NULL in a strict-equality key), sized
	// from slot.
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
}

func (h *hashJoinIter) Open(ctx *Context) error {
	h.release()
	h.ctx = ctx
	h.inTail, h.done = false, false
	h.tailIdx = 0
	h.p = probeState{kind: h.op.Kind}
	h.acct.ctx = ctx
	h.d.start(ctx, h)
	if h.leftKey == nil {
		for _, k := range h.keys {
			h.leftKey = append(h.leftKey, Compile(k.left))
			h.rightKey = append(h.rightKey, Compile(k.right))
		}
		if h.residual != nil {
			h.cond = compilePred(h.residual)
		}
	}
	if err := openOrClose(h.right, ctx); err != nil {
		return err
	}
	h.table.mem = ctx.Mem
	if n, k := h.slot.size(ctx, buildRowBytes+keyEntryBytes); n > 0 {
		h.rows = takeSlab[buildRow](ctx.Mem, n)
		h.table.presize(n, k)
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
		if h.d.spilled() {
			return h.routeRow(0, nBuild-1, hashable, key, row)
		}
		h.addBuild(row, key, hashable)
		if h.d.overflow(&h.acct, len(h.rows), minBufferRows) {
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
	if !hashable {
		key = nil
	}
	h.table.add(key, hashable)
	h.rows = append(roomFor(h.ctx.Mem, h.rows, 1), buildRow{row: row})
	h.acct.grow(rowBytes(row) + buildRowBytes + keyEntryBytes + int64(len(key)))
}

// keyOf encodes a row's hash key, by the given side's compiled key
// expressions, into the scratch buffer: valid until the next call.
// hashable=false: a NULL in a strict-equality key, the row can never match.
func (h *hashJoinIter) keyOf(row value.Row, side []compiledExpr) (key []byte, hashable bool, err error) {
	h.keyScratch = h.keyScratch[:0]
	for i, ce := range side {
		v, err := ce(row, h.ctx)
		if err != nil || (v.IsNull() && !h.keys[i].nullEq) {
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
	h.probeKey, h.cur = key, -1
	if hashable {
		h.cur = h.table.find(key)
	}
}

// nextOutput advances the probe in flight to its next output row, l⧺r with a
// nil r reading as NULLs; ok=false means the probe ended without another. It
// walks the entries of the probe's key in the table, which holds the whole build
// side or — for a grace partition joined in chunks — one chunk of it. Only
// when the table holds the last of the build rows this probe can meet may
// resolve be set, so that a probe left without a match emits alone.
func (h *hashJoinIter) nextOutput(resolve bool) (l, r value.Row, ok bool, err error) {
	p := &h.p
	for h.cur >= 0 {
		br := &h.rows[h.cur]
		h.cur = h.table.next(h.cur, h.probeKey)
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
			// FULL/RIGHT JOIN: emit unmatched build-side rows null-padded.
			for h.tailIdx < len(h.rows) {
				br := &h.rows[h.tailIdx]
				h.tailIdx++
				if !br.matched {
					return h.out.row(nil, br.row), nil
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
	h.graceJoin = graceJoin{}
	h.acct.releaseAll()
	h.d.release()
}

func (h *hashJoinIter) Close() error {
	h.release()
	return h.left.Close()
}

// --- nested-loop join ---------------------------------------------------------------

type nlJoinIter struct {
	op    *algebra.Join
	left  iterator
	right iterator
	out   *joinEmit
	ctx   *Context
	cond  compiledPred

	// build is the materialized right side, which every probe row (and then
	// the FULL/RIGHT tail) walks in insertion order.
	build nlBuild
	acct  memAcct
	reg   fileReg

	comb   value.Row
	p      probeState
	inTail bool
	done   bool
}

// nlBuild is the nested loop's build side and the cursor over it. Once the
// materialized rows cross work_mem, every further row appends to one spill
// file in insertion order, and a walk streams the file after the resident
// prefix — the same candidates in the same order as a fully resident loop.
type nlBuild struct {
	rows []buildRow
	file *spill.File
	// fileMatched mirrors buildRow.matched for spilled rows, by file ordinal.
	fileMatched []bool
	// cursor: pos counts the candidates handed out since rewind
	pos int
	// alloc makes the rows read back from file
	alloc value.RowAlloc
}

func (b *nlBuild) rewind() { b.pos = 0 }

// next returns the next candidate and its matched flag, a nil row at the end.
// It polls for cancellation per candidate: one probe row can scan the whole
// build side without a match.
func (b *nlBuild) next(ctx *Context) (value.Row, *bool, error) {
	if err := ctx.tick(); err != nil {
		return nil, nil, err
	}
	i := b.pos
	b.pos++
	if i < len(b.rows) {
		return b.rows[i].row, &b.rows[i].matched, nil
	}
	if i -= len(b.rows); i >= len(b.fileMatched) {
		return nil, nil, nil
	}
	if i == 0 {
		// The file position carries across emitted rows; only a rewind
		// restarts it.
		if err := b.file.StartRead(); err != nil {
			return nil, nil, err
		}
	}
	rec, err := b.file.Next()
	if err != nil {
		return nil, nil, err
	}
	row, _, err := value.DecodeRow(&b.alloc, rec)
	return row, &b.fileMatched[i], err
}

func (n *nlJoinIter) Open(ctx *Context) error {
	n.release()
	n.ctx = ctx
	n.done, n.inTail = false, false
	n.p = probeState{kind: n.op.Kind}
	n.acct.ctx = ctx
	if n.cond == nil && n.op.Cond != nil {
		n.cond = compilePred(n.op.Cond)
	}
	if err := openOrClose(n.right, ctx); err != nil {
		return err
	}
	b := &n.build
	var rec []byte
	err := drainRows(ctx, n.right, func(row value.Row) (err error) {
		if b.file == nil && n.acct.spillable() && n.acct.over() && len(b.rows) >= minBufferRows {
			if b.file, err = n.reg.create(ctx); err != nil {
				return err
			}
		}
		if b.file == nil {
			b.rows = append(b.rows, buildRow{row: row})
			n.acct.grow(rowBytes(row) + buildRowBytes)
			return nil
		}
		b.fileMatched = append(b.fileMatched, false)
		n.acct.grow(1) // the matched flag stays resident per spilled row
		rec = value.AppendRow(rec[:0], row)
		return b.file.Append(rec)
	})
	n.right.Close()
	if err != nil {
		return err
	}
	if ctx.owner != nil {
		ctx.owner.BuildRows = int64(len(b.rows) + len(b.fileMatched))
	}
	return n.left.Open(ctx)
}

func (n *nlJoinIter) Next() (value.Row, error) {
	for !n.done {
		if n.inTail {
			// FULL/RIGHT JOIN: emit unmatched build-side rows null-padded.
			row, matched, err := n.build.next(n.ctx)
			if err != nil {
				return nil, err
			}
			if row == nil {
				n.done = true
			} else if !*matched {
				return n.out.row(nil, row), nil
			}
			continue
		}
		if n.p.row == nil {
			probe, err := n.left.Next()
			if err != nil {
				return nil, err
			}
			n.build.rewind()
			if probe == nil {
				n.inTail = n.p.buildTail()
				n.done = !n.inTail
				continue
			}
			n.p.start(probe)
		}
		for {
			row, matched, err := n.build.next(n.ctx)
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			if n.cond != nil {
				ok, err := n.cond(combineScratch(&n.comb, n.p.row, row), n.ctx)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			*matched, n.p.matched = true, true
			return n.out.row(n.p.row, row), nil
		}
		probe := n.p.row
		n.p.row = nil
		if n.p.alone() {
			return n.out.row(probe, nil), nil
		}
	}
	return nil, nil
}

// release drops the materialized right side, spill file and accounted bytes.
func (n *nlJoinIter) release() {
	n.build = nlBuild{}
	n.reg.closeAll()
	n.acct.releaseAll()
}

func (n *nlJoinIter) Close() error {
	n.release()
	return n.left.Close()
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
	ctx   *Context
	cond  compiledPred

	curProbe value.Row
	curRows  []value.Row
	curIdx   int
	curMatch bool
	alloc    value.RowAlloc
}

func (l *lateralJoinIter) Open(ctx *Context) error {
	l.ctx = ctx
	l.curProbe = nil
	if l.cond == nil && l.op.Cond != nil {
		l.cond = compilePred(l.op.Cond)
	}
	return l.left.Open(ctx)
}

// concat makes the output row probe⧺rrow, nRight columns wide on the right;
// a nil rrow leaves them NULL.
func (l *lateralJoinIter) concat(probe, rrow value.Row, nRight int) value.Row {
	out := l.alloc.New(len(probe) + nRight)
	copy(out[copy(out, probe):], rrow)
	return out
}

func (l *lateralJoinIter) Next() (value.Row, error) {
	nRight := len(l.op.Right.Schema())
	for {
		if err := l.ctx.tick(); err != nil {
			return nil, err
		}
		if l.curProbe == nil {
			probe, err := l.left.Next()
			if err != nil {
				return nil, err
			}
			if probe == nil {
				return nil, nil
			}
			l.curProbe = probe
			l.curIdx = 0
			l.curMatch = false
			// Re-open the prebuilt right side under this probe row.
			l.ctx.pushOuter(probe)
			rows, err := reopenAndDrain(l.right, l.ctx)
			l.ctx.popOuter()
			if err != nil {
				return nil, err
			}
			l.curRows = rows
		}
		for l.curIdx < len(l.curRows) {
			rrow := l.curRows[l.curIdx]
			l.curIdx++
			combined := l.concat(l.curProbe, rrow, nRight)
			ok := true
			if l.cond != nil {
				var err error
				ok, err = l.cond(combined, l.ctx)
				if err != nil {
					return nil, err
				}
			}
			if !ok {
				continue
			}
			l.curMatch = true
			return combined, nil
		}
		probe := l.curProbe
		matched := l.curMatch
		l.curProbe = nil
		if l.op.Kind == algebra.JoinLeft && !matched {
			return l.concat(probe, nil, nRight), nil
		}
	}
}

func (l *lateralJoinIter) Close() error { return l.left.Close() }
