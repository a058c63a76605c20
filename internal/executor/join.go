package executor

import (
	"bytes"
	"fmt"
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

// extractEquiKeys finds hashable equality conjuncts in the join condition.
func extractEquiKeys(op *algebra.Join) []equiKey {
	if op.Cond == nil {
		return nil
	}
	nLeft := len(op.Left.Schema())
	var keys []equiKey
	for _, conj := range algebra.SplitAnd(op.Cond) {
		b, ok := conj.(*algebra.Bin)
		if !ok || (b.Op != sql.OpEq && b.Op != sql.OpNotDistinct) {
			continue
		}
		if algebra.HasSubplan(b.L) || algebra.HasSubplan(b.R) {
			continue
		}
		lSide, lOK := sideOf(b.L, nLeft)
		rSide, rOK := sideOf(b.R, nLeft)
		if !lOK || !rOK {
			continue
		}
		switch {
		case lSide == 0 && rSide == 1:
			keys = append(keys, equiKey{
				left:   b.L,
				right:  algebra.ShiftCols(b.R, -nLeft),
				nullEq: b.Op == sql.OpNotDistinct,
			})
		case lSide == 1 && rSide == 0:
			keys = append(keys, equiKey{
				left:   b.R,
				right:  algebra.ShiftCols(b.L, -nLeft),
				nullEq: b.Op == sql.OpNotDistinct,
			})
		}
	}
	return keys
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
		t.arena = append(t.arena, key...)
		charge += int64(len(key))
	}
	t.rows = append(t.rows, br)
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
	return e.fill(make(value.Row, len(e.cols)), l, r)
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

// --- hash join -------------------------------------------------------------------

type hashJoinIter struct {
	op    *algebra.Join
	left  iterator
	right iterator
	keys  []equiKey
	out   *joinEmit
	ctx   *Context

	// compiled per-side key evaluators and residual condition
	leftKey  []compiledExpr
	rightKey []compiledExpr
	nullEq   []bool
	cond     compiledPred // nil when the join has no condition

	table buildTable
	// keyScratch is the reusable key-encoding buffer (zero allocs per probe);
	// between probes it holds the current probe's key.
	keyScratch []byte
	// comb is the reusable probe⧺build scratch row the residual condition is
	// evaluated on; it never leaves the iterator.
	comb value.Row
	// current probe state: cur is the next candidate of the probe's chain
	curProbe   value.Row
	cur        int32
	curMatched bool
	// full-join tail state
	tailIdx int
	inTail  bool
	done    bool
	// spill state: the build side is charged against work_mem; past the
	// budget the whole join switches to grace partitioning (gracejoin.go) and
	// the output streams from the merger instead of the probe loop.
	acct   memAcct
	reg    fileReg
	merger *seqMerger
}

func (h *hashJoinIter) Open(ctx *Context) error {
	h.release()
	h.ctx = ctx
	h.inTail, h.done = false, false
	h.tailIdx = 0
	h.curProbe = nil
	h.acct.ctx = ctx
	if h.leftKey == nil {
		h.leftKey = make([]compiledExpr, len(h.keys))
		h.rightKey = make([]compiledExpr, len(h.keys))
		h.nullEq = make([]bool, len(h.keys))
		for i, k := range h.keys {
			h.leftKey[i] = Compile(k.left)
			h.rightKey[i] = Compile(k.right)
			h.nullEq[i] = k.nullEq
		}
		if h.op.Cond != nil {
			h.cond = compilePred(h.op.Cond)
		}
	}
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	// Stream the build side in, charging every retained row (its payload, its
	// key bytes, and the struct/bucket overhead). The moment the budget is
	// crossed the join hands the buffered prefix — and both remaining inputs —
	// to the grace path, which finishes on disk.
	total := 0
	for {
		if err := ctx.tick(); err != nil {
			h.right.Close()
			return err
		}
		row, err := h.right.Next()
		if err != nil {
			h.right.Close()
			return err
		}
		if row == nil {
			break
		}
		total++
		if ctx.RowBudget > 0 && total > int(ctx.RowBudget) {
			h.right.Close()
			return fmt.Errorf("executor: intermediate result exceeds row budget of %d rows", ctx.RowBudget)
		}
		key, hashable, err := h.appendKey(h.keyScratch[:0], row, h.rightKey)
		h.keyScratch = key
		if err != nil {
			h.right.Close()
			return err
		}
		h.acct.grow(h.table.add(row, key, hashable))
		if h.acct.spillable() && h.acct.over() && len(h.table.rows) >= minBufferRows {
			return h.openGrace(total)
		}
	}
	h.right.Close()
	if ctx.owner != nil {
		ctx.owner.BuildRows = int64(len(h.table.rows))
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

func (h *hashJoinIter) Next() (value.Row, error) {
	if h.merger != nil {
		// Grace path: the join already ran partition by partition; the merger
		// replays the outputs in exact serial emission order.
		return h.merger.Next()
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
		if h.curProbe == nil {
			probe, err := h.left.Next()
			if err != nil {
				return nil, err
			}
			if probe == nil {
				if h.op.Kind == algebra.JoinFull || h.op.Kind == algebra.JoinRight {
					h.inTail = true
					continue
				}
				h.done = true
				return nil, nil
			}
			h.curProbe = probe
			h.curMatched = false
			key, hashable, err := h.appendKey(h.keyScratch[:0], probe, h.leftKey)
			h.keyScratch = key
			if err != nil {
				return nil, err
			}
			h.cur = -1
			if hashable {
				h.cur = h.table.first(key)
			}
		}
		// Walk the probe's chain.
		for h.cur >= 0 {
			bi := h.cur
			h.cur = h.table.next[bi]
			if !h.table.matches(bi, h.keyScratch) {
				continue
			}
			br := &h.table.rows[bi]
			if h.cond != nil {
				ok, err := h.cond(combineScratch(&h.comb, h.curProbe, br.row), h.ctx)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			h.curMatched = true
			br.matched = true
			switch h.op.Kind {
			case algebra.JoinSemi:
				// Emit probe once, skip the rest.
				probe := h.curProbe
				h.curProbe = nil
				return probe, nil
			case algebra.JoinAnti:
				// A match disqualifies the probe row.
				h.curProbe = nil
				goto nextProbe
			default:
				return h.out.row(h.curProbe, br.row), nil
			}
		}
		// Probe exhausted its matches.
		{
			probe := h.curProbe
			matched := h.curMatched
			h.curProbe = nil
			switch h.op.Kind {
			case algebra.JoinLeft, algebra.JoinFull:
				if !matched {
					return h.out.row(probe, nil), nil
				}
			case algebra.JoinAnti:
				if !matched {
					return probe, nil
				}
			}
		}
	nextProbe:
	}
}

// release drops the build table, merger, spill files and accounted bytes.
func (h *hashJoinIter) release() {
	h.table = buildTable{}
	h.merger.Close()
	h.merger = nil
	h.reg.closeAll()
	h.acct.releaseAll()
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

	rightRows []buildRow
	// Spill state: once the materialized right side crosses work_mem, every
	// further row appends to one spill file in insertion order and probes
	// stream the file after scanning the resident prefix — emission order is
	// identical to the fully resident loop. spillMatched mirrors
	// buildRow.matched for spilled rows, indexed by file ordinal.
	acct         memAcct
	reg          fileReg
	spillFile    *spill.File
	spillMatched []bool

	comb       value.Row
	curProbe   value.Row
	curIdx     int
	curMatch   bool
	inFile     bool
	fileOrd    int
	inTail     bool
	tailIdx    int
	tailInFile bool
	done       bool
}

func (n *nlJoinIter) Open(ctx *Context) error {
	n.release()
	n.ctx = ctx
	n.done, n.inTail, n.inFile, n.tailInFile = false, false, false, false
	n.tailIdx, n.fileOrd = 0, 0
	n.curProbe = nil
	n.acct.ctx = ctx
	if n.cond == nil && n.op.Cond != nil {
		n.cond = compilePred(n.op.Cond)
	}
	if err := n.right.Open(ctx); err != nil {
		return err
	}
	var rec []byte
	total := 0
	for {
		if err := ctx.tick(); err != nil {
			n.right.Close()
			return err
		}
		row, err := n.right.Next()
		if err != nil {
			n.right.Close()
			return err
		}
		if row == nil {
			break
		}
		total++
		if ctx.RowBudget > 0 && total > int(ctx.RowBudget) {
			n.right.Close()
			return fmt.Errorf("executor: intermediate result exceeds row budget of %d rows", ctx.RowBudget)
		}
		if n.spillFile == nil && n.acct.spillable() && n.acct.over() && len(n.rightRows) >= minBufferRows {
			f, err := ctx.Mem.Pool().Create()
			if err != nil {
				n.right.Close()
				return err
			}
			n.reg.add(f)
			n.spillFile = f
		}
		if n.spillFile != nil {
			rec = spill.AppendRow(rec[:0], row)
			if err := n.spillFile.Append(rec); err != nil {
				n.right.Close()
				return err
			}
			n.spillMatched = append(n.spillMatched, false)
			n.acct.grow(1) // the matched flag stays resident per spilled row
		} else {
			n.rightRows = append(n.rightRows, buildRow{row: row})
			n.acct.grow(rowBytes(row) + buildRowFixedBytes)
		}
	}
	n.right.Close()
	if ctx.owner != nil {
		ctx.owner.BuildRows = int64(total)
	}
	return n.left.Open(ctx)
}

// matches evaluates the join condition on probe⧺row.
func (n *nlJoinIter) matches(row value.Row) (bool, error) {
	if n.cond == nil {
		return true, nil
	}
	return n.cond(combineScratch(&n.comb, n.curProbe, row), n.ctx)
}

func (n *nlJoinIter) Next() (value.Row, error) {
	for {
		if err := n.ctx.tick(); err != nil {
			return nil, err
		}
		if n.done {
			return nil, nil
		}
		if n.inTail {
			for n.tailIdx < len(n.rightRows) {
				br := &n.rightRows[n.tailIdx]
				n.tailIdx++
				if !br.matched {
					return n.out.row(nil, br.row), nil
				}
			}
			if n.spillFile != nil {
				if !n.tailInFile {
					if err := n.spillFile.StartRead(); err != nil {
						return nil, err
					}
					n.tailInFile = true
					n.fileOrd = 0
				}
				for {
					if err := n.ctx.tick(); err != nil {
						return nil, err
					}
					rec, err := n.spillFile.Next()
					if err != nil {
						return nil, err
					}
					if rec == nil {
						break
					}
					ord := n.fileOrd
					n.fileOrd++
					if n.spillMatched[ord] {
						continue
					}
					row, _, err := spill.DecodeRow(rec)
					if err != nil {
						return nil, err
					}
					return n.out.row(nil, row), nil
				}
			}
			n.done = true
			return nil, nil
		}
		if n.curProbe == nil {
			probe, err := n.left.Next()
			if err != nil {
				return nil, err
			}
			if probe == nil {
				if n.op.Kind == algebra.JoinFull || n.op.Kind == algebra.JoinRight {
					n.inTail = true
					continue
				}
				n.done = true
				return nil, nil
			}
			n.curProbe = probe
			n.curIdx = 0
			n.inFile = false
			n.curMatch = false
		}
		if !n.inFile {
			for n.curIdx < len(n.rightRows) {
				// Per-candidate poll: one probe row can scan the whole right side
				// without a match, so the outer-loop poll alone is not enough.
				if err := n.ctx.tick(); err != nil {
					return nil, err
				}
				br := &n.rightRows[n.curIdx]
				n.curIdx++
				ok, err := n.matches(br.row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				n.curMatch = true
				br.matched = true
				switch n.op.Kind {
				case algebra.JoinSemi:
					probe := n.curProbe
					n.curProbe = nil
					return probe, nil
				case algebra.JoinAnti:
					n.curProbe = nil
					goto nextProbe
				default:
					return n.out.row(n.curProbe, br.row), nil
				}
			}
			if n.spillFile != nil {
				// Resident prefix exhausted: stream the spilled suffix in
				// insertion order (the file position carries across emitted
				// rows; only a new probe rewinds it).
				if err := n.spillFile.StartRead(); err != nil {
					return nil, err
				}
				n.inFile = true
				n.fileOrd = 0
			}
		}
		if n.inFile {
			for {
				if err := n.ctx.tick(); err != nil {
					return nil, err
				}
				rec, err := n.spillFile.Next()
				if err != nil {
					return nil, err
				}
				if rec == nil {
					break
				}
				ord := n.fileOrd
				n.fileOrd++
				row, _, err := spill.DecodeRow(rec)
				if err != nil {
					return nil, err
				}
				ok, err := n.matches(row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				n.curMatch = true
				n.spillMatched[ord] = true
				switch n.op.Kind {
				case algebra.JoinSemi:
					probe := n.curProbe
					n.curProbe = nil
					return probe, nil
				case algebra.JoinAnti:
					n.curProbe = nil
					goto nextProbe
				default:
					return n.out.row(n.curProbe, row), nil
				}
			}
		}
		{
			probe := n.curProbe
			matched := n.curMatch
			n.curProbe = nil
			switch n.op.Kind {
			case algebra.JoinLeft, algebra.JoinFull:
				if !matched {
					return n.out.row(probe, nil), nil
				}
			case algebra.JoinAnti:
				if !matched {
					return probe, nil
				}
			}
		}
	nextProbe:
	}
}

// release drops the materialized right side, spill file and accounted bytes.
func (n *nlJoinIter) release() {
	n.rightRows = nil
	n.spillMatched = nil
	n.spillFile = nil
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
}

func (l *lateralJoinIter) Open(ctx *Context) error {
	l.ctx = ctx
	l.curProbe = nil
	if l.cond == nil && l.op.Cond != nil {
		l.cond = compilePred(l.op.Cond)
	}
	return l.left.Open(ctx)
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
			combined := value.Concat(l.curProbe, rrow)
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
			return value.Concat(probe, value.NullRow(nRight)), nil
		}
	}
}

func (l *lateralJoinIter) Close() error { return l.left.Close() }
