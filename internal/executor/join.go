package executor

import (
	"bytes"
	"hash/maphash"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/sql"
	"perm/internal/value"
)

// joinHashSeed seeds the maphash bucketing of hash joins. One process-wide
// seed keeps build and probe sides consistent across iterators.
var joinHashSeed = maphash.MakeSeed()

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
// is not evaluated again: candidates are pairs whose framed keys are
// byte-equal, and the key encoding is the equality of value.Compare — equal
// keys are values of one kind that compare equal, NULL with NULL only under
// IS NOT DISTINCT FROM (a strict key holding a NULL is never hashed) — so on
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

// buildRow is one materialized build-side row. Its hash key, if it has one,
// lives in the owning table's arena; keyLen < 0 marks a row with a NULL in a
// strict-equality key, which can never match.
type buildRow struct {
	row     value.Row
	keyOff  int
	keyLen  int32
	matched bool
}

// buildRowFixedBytes approximates the per-row footprint of a materialized
// build side beyond the row and key payloads: the buildRow struct itself plus
// its share of the hash-table buckets.
const buildRowFixedBytes = 96

// buildTable is the build side of a hash join: the rows in insertion order,
// their framed key bytes back to back in one arena, and a chained bucket
// index over them. A chain lists the rows of one bucket in insertion order,
// so a probe meets its matches in the order the build input produced them.
// Nothing in it is allocated per row.
type buildTable struct {
	rows  []buildRow
	arena []byte
	heads []int32 // bucket → first row of its chain, -1 when empty
	next  []int32 // row → next row of the same bucket, -1 at the end
}

// add appends a build row with its key (ignored unless hashable) and returns
// the bytes to charge for it.
func (t *buildTable) add(row value.Row, key []byte, hashable bool) int64 {
	br := buildRow{row: row, keyLen: -1}
	charge := rowBytes(row) + buildRowFixedBytes
	if hashable {
		br.keyOff, br.keyLen = len(t.arena), int32(len(key))
		t.arena = append(roomFor(t.arena, len(key)), key...)
		charge += int64(len(key))
	}
	t.rows = append(roomFor(t.rows, 1), br)
	return charge
}

// key returns row i's key bytes, nil for a row that can never match.
func (t *buildTable) key(i int) []byte {
	br := &t.rows[i]
	if br.keyLen < 0 {
		return nil
	}
	return t.arena[br.keyOff : br.keyOff+int(br.keyLen)]
}

// reset empties the table, keeping its storage for the next load.
func (t *buildTable) reset() {
	t.rows, t.arena = t.rows[:0], t.arena[:0]
}

// index builds the bucket chains over the rows added so far. Rows link in
// from last to first, each at the head of its chain, which leaves every
// chain in insertion order.
func (t *buildTable) index() {
	buckets := 1
	for buckets < len(t.rows) {
		buckets <<= 1
	}
	if cap(t.heads) < buckets || cap(t.next) < len(t.rows) {
		t.heads, t.next = make([]int32, buckets), make([]int32, len(t.rows))
	}
	t.heads, t.next = t.heads[:buckets], t.next[:len(t.rows)]
	for b := range t.heads {
		t.heads[b] = -1
	}
	for i := len(t.rows) - 1; i >= 0; i-- {
		if key := t.key(i); key != nil {
			b := maphash.Bytes(joinHashSeed, key) & uint64(buckets-1)
			t.next[i] = t.heads[b]
			t.heads[b] = int32(i)
		}
	}
}

// first returns the head of the chain a probe key falls in (-1 when empty);
// the caller walks it through next and confirms each candidate with matches,
// so bucket collisions stay correct.
func (t *buildTable) first(key []byte) int32 {
	return t.heads[maphash.Bytes(joinHashSeed, key)&uint64(len(t.heads)-1)]
}

func (t *buildTable) matches(i int32, key []byte) bool {
	return bytes.Equal(t.key(int(i)), key)
}

// joinEmit makes a join's output rows. Every row a join hands up is built
// here, once, from the probe row, the build row and constants: through the
// column map of the projection directly above the join when the builder
// found one it could fold in, and through the identity map otherwise — so
// there is one emit path, and no join output is allocated a second time by a
// projectIter above it.
type joinEmit struct {
	// cols maps output column → source: c >= 0 reads column c of left⧺right,
	// c < 0 reads consts[^c]. Nil for semi and anti joins, whose output is
	// the probe row itself.
	cols   []int32
	consts []value.Value
	nLeft  int
	alloc  value.RowAlloc
}

// newJoinEmit derives the emitter for a join and the pure column-and-constant
// projection above it (nil: emit left⧺right).
func newJoinEmit(j *algebra.Join, proj *algebra.Project) *joinEmit {
	if j.Kind == algebra.JoinSemi || j.Kind == algebra.JoinAnti {
		return &joinEmit{}
	}
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

// row allocates the output row for a probe/build pair; a nil side reads as
// all NULLs (outer-join padding).
func (e *joinEmit) row(l, r value.Row) value.Row {
	return e.fill(e.alloc.New(len(e.cols)), l, r)
}

// fill is row into caller-owned storage: dst must be len(cols) long.
func (e *joinEmit) fill(dst, l, r value.Row) value.Row {
	if e.cols == nil {
		return l
	}
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
	done    bool      // no further candidate can change the outcome
}

func (p *probeState) start(row value.Row) { p.row, p.matched, p.done = row, false, false }

// match records a qualifying candidate and reports whether probe⧺candidate is
// an output row. (A semi join's output row is the probe alone, which is what
// its joinEmit makes of any pair.)
func (p *probeState) match() (emit bool) {
	p.matched = true
	switch p.kind {
	case algebra.JoinSemi:
		p.done = true // emit the probe once, skip the rest
	case algebra.JoinAnti:
		p.done = true // a match disqualifies the probe row
		return false
	}
	return true
}

// alone reports whether the probe row, having met every candidate, is an
// output row by itself.
func (p *probeState) alone() bool { return !p.matched && p.keepsUnmatched() }

// keepsUnmatched: the join emits a probe row that matched nothing —
// null-padded by LEFT/FULL, passed through by ANTI.
func (p *probeState) keepsUnmatched() bool {
	return p.kind == algebra.JoinLeft || p.kind == algebra.JoinFull || p.kind == algebra.JoinAnti
}

// firstMatchEnds: one match settles the probe row (SEMI, ANTI).
func (p *probeState) firstMatchEnds() bool {
	return p.kind == algebra.JoinSemi || p.kind == algebra.JoinAnti
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
	nullEq   []bool
	cond     compiledPred // nil when the keys decide the whole condition

	table buildTable
	// keyScratch is the reusable key-encoding buffer (zero allocs per probe).
	keyScratch []byte
	// comb is the reusable probe⧺build scratch row the residual condition is
	// evaluated on; it never leaves the iterator.
	comb value.Row
	// current probe state: its key, and cur, the next candidate of its chain
	p        probeState
	probeKey []byte
	cur      int32
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
		h.leftKey = make([]compiledExpr, len(h.keys))
		h.rightKey = make([]compiledExpr, len(h.keys))
		h.nullEq = make([]bool, len(h.keys))
		for i, k := range h.keys {
			h.leftKey[i] = Compile(k.left)
			h.rightKey[i] = Compile(k.right)
			h.nullEq[i] = k.nullEq
		}
		if h.residual != nil {
			h.cond = compilePred(h.residual)
		}
	}
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	// Stream the build side in, charging every retained row (its payload, its
	// key bytes, and the struct/bucket overhead). The moment the budget is
	// crossed the buffered prefix moves to the grace partitions, and the rest
	// of the build input follows it there row by row.
	nBuild := uint64(0)
	err := drainRows(ctx, h.right, func(row value.Row) error {
		key, hashable, err := h.appendKey(h.keyScratch[:0], row, h.rightKey)
		h.keyScratch = key
		if err != nil {
			return err
		}
		nBuild++
		if h.d.spilled() {
			return h.routeRow(0, nBuild-1, hashable, key, row)
		}
		h.acct.grow(h.table.add(row, key, hashable))
		if h.d.overflow(&h.acct, len(h.table.rows), minBufferRows) {
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
	h.table.index()
	return h.left.Open(ctx)
}

// appendKey encodes the hash key for a row into dst using the given side's
// compiled key expressions. hashable=false means the row contains a NULL in a
// strict-equality key and can never match.
func (h *hashJoinIter) appendKey(dst []byte, row value.Row, side []compiledExpr) ([]byte, bool, error) {
	for i, ce := range side {
		v, err := ce(row, h.ctx)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() && !h.nullEq[i] {
			return dst, false, nil
		}
		dst = value.AppendFramedKey(dst, v)
	}
	return dst, true, nil
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
		h.cur = h.table.first(key)
	}
}

// nextOutput advances the probe in flight to its next output row, l⧺r with a
// nil r reading as NULLs; ok=false means the probe ended without another. It
// walks the probe's bucket chain in the table, which holds the whole build
// side or — for a grace partition joined in chunks — one chunk of it. Only
// when the table holds the last of the build rows this probe can meet may
// resolve be set, so that a probe left without a match emits alone.
func (h *hashJoinIter) nextOutput(resolve bool) (l, r value.Row, ok bool, err error) {
	p := &h.p
	for h.cur >= 0 && !p.done {
		bi := h.cur
		h.cur = h.table.next[bi]
		if !h.table.matches(bi, h.probeKey) {
			continue
		}
		br := &h.table.rows[bi]
		if h.cond != nil {
			ok, err := h.cond(combineScratch(&h.comb, p.row, br.row), h.ctx)
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				continue
			}
		}
		br.matched = true
		if p.match() {
			return p.row, br.row, true, nil
		}
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
			for h.tailIdx < len(h.table.rows) {
				br := &h.table.rows[h.tailIdx]
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
			key, hashable, err := h.appendKey(h.keyScratch[:0], probe, h.leftKey)
			h.keyScratch = key
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
	h.table = buildTable{}
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
	row, _, err := spill.DecodeRowIn(&b.alloc, rec)
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
	if err := n.right.Open(ctx); err != nil {
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
			n.acct.grow(rowBytes(row) + buildRowFixedBytes)
			return nil
		}
		b.fileMatched = append(b.fileMatched, false)
		n.acct.grow(1) // the matched flag stays resident per spilled row
		rec = spill.AppendRow(rec[:0], row)
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
		for !n.p.done {
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
			*matched = true
			if n.p.match() {
				return n.out.row(n.p.row, row), nil
			}
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
