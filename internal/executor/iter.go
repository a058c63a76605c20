package executor

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/storage"
	"perm/internal/value"
)

// --- Scan ----------------------------------------------------------------------

// scanIter walks a table's rows in place with a storage cursor: the row
// versions visible at the statement's pinned snapshot (or its transaction's
// view), straight from the table's heap, with no lock and no copy. With no
// op it reads a worker's slot range of the coordinator's cursor, once.
type scanIter struct {
	op    *algebra.Scan
	cur   storage.Cursor
	prune *scanPrune // a scan stays in its 64-byte size class
}

// scanPrune is what a scan directly under a Select holds of it: the
// Select's conjuncts and, resolved to INT bounds at each Open, what lets the
// cursor skip the heap chunks that cannot hold a row they accept.
type scanPrune struct {
	terms []cmpTerm
	p     storage.Prune    // no bounds: this Open skips nothing
	bound [1]storage.Bound // p.Bounds' storage while one column is bounded
	owner *OpStats         // the scan's stats node; nil when uninstrumented
}

// pruneOf returns the pruning of a scan under a Select whose conjuncts are
// terms, or nil when they cannot let it skip chunks. They can only when every
// one compares an INT column with a constant or a parameter, the comparisons
// that raise no error: in owner > 3 AND id = 5, a skipped chunk would hide
// the error the first row raises.
func pruneOf(terms []cmpTerm, sch algebra.Schema) *scanPrune {
	if terms == nil {
		return nil
	}
	for _, t := range terms {
		if uint(t.col) >= uint(len(sch)) || sch[t.col].Type != value.KindInt {
			return nil
		}
	}
	return &scanPrune{terms: terms}
}

// resolve turns the conjuncts into this Open's bounds, with `?` bound. It
// leaves them empty, so nothing is skipped, when a conjunct may raise an
// error after all (a parameter not bound, or bound to a kind an INT does not
// compare with) or when no conjunct bounds anything.
func (pr *scanPrune) resolve(ctx *Context, cur *storage.Cursor) {
	pr.flush()
	pr.p.Bounds = nil
	bounds := pr.bound[:0]
	for i := range pr.terms {
		t := &pr.terms[i]
		v := t.val
		if t.byParam {
			if uint(t.param) >= uint(len(ctx.Params)) {
				return
			}
			v = ctx.Params[t.param]
		}
		lo, hi, ok := intRange(t.accept, v)
		if !ok {
			return
		}
		if lo == math.MinInt64 && hi == math.MaxInt64 {
			continue
		}
		j := 0
		for j < len(bounds) && bounds[j].Col != int(t.col) {
			j++
		}
		if j == len(bounds) {
			bounds = append(bounds, storage.Bound{Col: int(t.col), Lo: lo, Hi: hi})
		} else {
			bounds[j].Lo, bounds[j].Hi = max(bounds[j].Lo, lo), min(bounds[j].Hi, hi)
		}
	}
	if len(bounds) == 0 {
		return
	}
	pr.p.Bounds = bounds
	if pr.owner = ctx.owner; pr.owner != nil {
		pr.owner.Chunks += int64(cur.Chunks())
	}
}

// flush moves the chunks skipped so far to the stats node, at Close and at
// a re-Open.
func (pr *scanPrune) flush() {
	if pr.owner != nil {
		pr.owner.ChunksSkipped += int64(pr.p.Skipped)
	}
	pr.p.Skipped = 0
}

// intRange returns a closed range holding every INT i for which
// Compare(i, v) = c has bit c+1 set in accept (lo > hi: no INT does), or
// false when v is of a kind an INT does not compare with. The range may hold
// more: for <> it is every INT.
func intRange(accept uint8, v value.Value) (lo, hi int64, ok bool) {
	type span struct {
		lo, hi int64
		some   bool
	}
	// The INTs below v, equal to it and above it.
	var parts [3]span
	around := func(k int64) {
		parts = [3]span{{math.MinInt64, k - 1, k != math.MinInt64}, {k, k, true}, {k + 1, math.MaxInt64, k != math.MaxInt64}}
	}
	switch v.Kind() {
	case value.KindNull:
		return 1, 0, true
	case value.KindInt:
		around(v.Int())
	case value.KindFloat:
		// As value.Compare orders them: NaN above every number.
		switch f := v.Float(); {
		case f != f || f >= 1<<63:
			parts[0] = span{math.MinInt64, math.MaxInt64, true}
		case f < -(1 << 63):
			parts[2] = span{math.MinInt64, math.MaxInt64, true}
		case f == math.Floor(f):
			around(int64(f))
		default:
			fl := int64(math.Floor(f))
			parts[0] = span{math.MinInt64, fl, true}
			parts[2] = span{fl + 1, math.MaxInt64, true}
		}
	default:
		return 0, 0, false
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for c, p := range parts {
		if p.some && accept>>c&1 != 0 {
			lo, hi = min(lo, p.lo), max(hi, p.hi)
		}
	}
	return lo, hi, true
}

func (s *scanIter) Open(ctx *Context) (err error) {
	// The rows are immutable and shared with every other reader: downstream
	// operators must never write into them.
	if s.op != nil {
		s.cur, err = ctx.Scan(s.op.Table)
	}
	if s.prune != nil && err == nil {
		s.prune.resolve(ctx, &s.cur)
	}
	return err
}

func (s *scanIter) Next() (value.Row, error) {
	if pr := s.prune; pr != nil && pr.p.Bounds != nil {
		return s.cur.NextIn(&pr.p), nil
	}
	row := s.cur.Head()
	if row == nil {
		row = s.cur.Next()
	}
	return row, nil
}

func (s *scanIter) Close() error {
	if s.prune != nil {
		s.prune.flush()
	}
	if s.op != nil {
		s.cur = storage.Cursor{}
	}
	return nil
}

// rowIDScan is a RowID scan: it extends each row by its row id, the cursor
// position it was read at, into rows from maker. The Modify above it
// resolves the ids in the same cursor, so it prunes like any scan.
type rowIDScan struct {
	scanIter
	maker rowMaker
}

func (r *rowIDScan) Next() (value.Row, error) {
	row, _ := r.scanIter.Next()
	if row == nil {
		return nil, nil
	}
	out := r.maker.New(len(row) + 1)
	out[copy(out, row)] = value.NewInt(int64(r.cur.Pos()))
	return out, nil
}

// --- Modify --------------------------------------------------------------------

// modifyIter is the sink of an INSERT, UPDATE or DELETE plan. At Open it
// runs its input to the end inside one write of the table — the statement's
// transaction, or in autocommit one of its own, decided and committed under
// the table's writer lock — and buffers what the input says, resolving an
// UPDATE's or a DELETE's row ids in the cursor of the RowID scan that read
// them. Its one row is the count of rows written.
type modifyIter struct {
	op    *algebra.Modify
	input iterator
	scan  *rowIDScan // the RowID scan under an UPDATE or a DELETE
	n     int        // rows written; -1 once the count is out
	count [1]value.Value
}

func (m *modifyIter) Open(ctx *Context) error {
	t := ctx.Store.Table(m.op.Table)
	if t == nil {
		return fmt.Errorf("executor: table %q does not exist", m.op.Table)
	}
	txn, snap := ctx.Txn, ctx.SnapLSN
	defer func() { ctx.Txn, ctx.SnapLSN = txn, snap }()
	var err error
	m.n, err = t.Write(txn, func(x *storage.Txn) (int, error) {
		// The input, subqueries too, reads through the write's transaction.
		ctx.Txn, ctx.SnapLSN = x, x.Snap()
		if err := openOrClose(m.input, ctx); err != nil {
			return 0, err
		}
		defer m.input.Close()
		var rows []value.Row
		var picks []storage.Pick
		if err := drainRows(ctx, m.input, func(row value.Row) error {
			last := len(row) - 1
			switch m.op.Kind {
			case algebra.Insert:
				rows = append(rows, row)
			case algebra.Update:
				picks = append(picks, storage.Pick{ID: int(row[last].Int()), Row: row[:last:last]})
			default:
				picks = append(picks, storage.Pick{ID: int(row[last].Int())})
			}
			return nil
		}); err != nil {
			return 0, err
		}
		if m.op.Kind == algebra.Insert {
			return x.Insert(t, rows)
		}
		return x.Rewrite(t, &m.scan.cur, picks)
	})
	return err
}

func (m *modifyIter) Next() (value.Row, error) {
	if m.n < 0 {
		return nil, nil
	}
	m.count[0] = value.NewInt(int64(m.n))
	m.n = -1
	return m.count[:], nil
}

func (m *modifyIter) Close() error { return nil }

// --- Values --------------------------------------------------------------------

type valuesIter struct {
	op       *algebra.Values
	ctx      *Context
	pos      int
	compiled [][]compiledExpr
	alloc    value.RowAlloc
}

func (v *valuesIter) Open(ctx *Context) error {
	v.ctx = ctx
	v.pos = 0
	if v.compiled == nil {
		v.compiled = make([][]compiledExpr, len(v.op.Rows))
		for i, exprs := range v.op.Rows {
			v.compiled[i] = compileAll(exprs)
		}
	}
	return nil
}

func (v *valuesIter) Next() (value.Row, error) {
	if v.pos >= len(v.compiled) {
		return nil, nil
	}
	exprs := v.compiled[v.pos]
	v.pos++
	row := v.alloc.New(len(exprs))
	for i, ce := range exprs {
		val, err := ce(nil, v.ctx)
		if err != nil {
			return nil, err
		}
		row[i] = val
	}
	return row, nil
}

func (v *valuesIter) Close() error { return nil }

// --- Project -------------------------------------------------------------------

// rowMaker is where the operators that make rows in bulk — a projection, a
// join's emitter — get the row they fill next: by default a new row cut from
// the allocator, valid for as long as anyone holds it; with reuse (see
// builder.reuse) the one row the maker owns, valid until the next Next.
type rowMaker struct {
	alloc value.RowAlloc
	reuse bool
	row   value.Row // the reused row, made on first use
}

// poisonStaleRows is a test hook: a reusing maker hands out a fresh row each
// time and overwrites the one before with staleRow, so a consumer that kept a
// row it promised to drop fails loudly instead of passing by luck. Tests of
// this package set it; other packages' build with -tags stalerows.
var (
	poisonStaleRows bool
	staleRow        = value.NewString("<stale row>")
)

// New returns the row to fill, n wide.
func (m *rowMaker) New(n int) value.Row {
	if !m.reuse {
		return m.alloc.New(n)
	}
	if poisonStaleRows {
		for i := range m.row {
			m.row[i] = staleRow
		}
		m.row = nil
	}
	if m.row == nil || cap(m.row) < n {
		m.row = make(value.Row, n) // never nil: a nil row is end-of-stream
	}
	return m.row[:n:n]
}

type projectIter struct {
	op    *algebra.Project
	input iterator
	ctx   *Context
	exprs []compiledExpr
	// prefix: the expressions are columns 0..n-1 of the input, in order, so
	// the output row is the input row re-sliced. Rows are immutable, which
	// makes the alias as good as the copy.
	prefix bool
	rows   rowMaker
}

func (p *projectIter) Open(ctx *Context) error {
	p.ctx = ctx
	if p.exprs == nil {
		p.exprs = compileAll(p.op.Exprs)
	}
	return p.input.Open(ctx)
}

func (p *projectIter) Next() (value.Row, error) {
	in, err := p.input.Next()
	if err != nil || in == nil {
		return nil, err
	}
	if p.prefix {
		n := len(p.exprs)
		return in[:n:n], nil
	}
	out := p.rows.New(len(p.exprs))
	for i, ce := range p.exprs {
		v, err := ce(in, p.ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *projectIter) Close() error { return p.input.Close() }

// --- Filter --------------------------------------------------------------------

type filterIter struct {
	op    *algebra.Select
	input iterator
	ctx   *Context
	pred  compiledPred
}

func (f *filterIter) Open(ctx *Context) error {
	f.ctx = ctx
	if f.pred == nil { // the builder already fused a condition that fuses
		f.pred = wherePred(Compile(f.op.Cond))
	}
	return f.input.Open(ctx)
}

func (f *filterIter) Next() (value.Row, error) {
	for {
		if err := f.ctx.tick(); err != nil {
			return nil, err
		}
		in, err := f.input.Next()
		if err != nil || in == nil {
			return nil, err
		}
		ok, err := f.pred(in, f.ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			return in, nil
		}
	}
}

func (f *filterIter) Close() error { return f.input.Close() }

// --- Sort ----------------------------------------------------------------------

// sortIter is ORDER BY. Under budget it buffers and sorts; past the session's
// work_mem it becomes an external merge sort (sorted runs spilled through the
// context's spill pool, k-way merged on Next) with identical output,
// stability included — see extsort.go.
type sortIter struct {
	op     *algebra.Sort
	input  iterator
	buf    []sortKeyed // the sorted rows, when everything fit
	pos    int
	order  *sortOrder
	acct   memAcct
	reg    fileReg
	merger *merger
	slot   *sizeSlot // sizes the buffer
	reuse  bool      // the consumer drops each row before the next (builder.reuse)
}

// sortKeyed is one buffered row, extended by its computed ORDER BY keys if the
// order has any, and its place in the input.
type sortKeyed struct {
	row value.Row
	seq int
}

func (s *sortIter) Open(ctx *Context) error {
	s.release() // re-Open (lateral re-execution) must not leak prior state
	s.acct.ctx = ctx
	if err := openOrClose(s.input, ctx); err != nil {
		return err
	}
	defer s.input.Close()
	if s.order == nil {
		s.order = newSortOrder(s.op.Keys, len(s.op.Input.Schema()))
	}
	order := s.order

	var all []sortKeyed
	if n, _ := s.slot.size(ctx, sortKeyedBytes); n > 0 {
		all = takeSlab[sortKeyed](ctx.Mem, n)
	}
	defer func() { s.buf = all }() // released with the sort, on every path
	var keyAlloc value.RowAlloc
	// The order (keys, input sequence) is total, so an unstable sort under it
	// is the stable sort by keys.
	sortBatch := func() {
		slices.SortFunc(all, func(a, b sortKeyed) int {
			if c := order.compare(a.row, b.row); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}

	var runs []*spill.File
	var batchBytes int64
	var rec []byte
	// flushRun sorts the buffered batch and writes it out as one run.
	flushRun := func() error {
		if len(runs) == 0 {
			s.slot.record(len(all), 0)
		}
		sortBatch()
		f, err := s.reg.create(ctx)
		if err != nil {
			return err
		}
		runs = append(runs, f)
		for _, k := range all {
			rec = value.AppendRow(rec[:0], k.row)
			if err := f.Append(rec); err != nil {
				return err
			}
		}
		all = all[:0]
		s.acct.release(batchBytes)
		batchBytes = 0
		return nil
	}

	err := drainRows(ctx, s.input, func(row value.Row) error {
		if len(order.computed) > 0 {
			ext := keyAlloc.New(order.width + len(order.computed))
			copy(ext, row)
			for i, ke := range order.computed {
				v, err := ke(row, ctx)
				if err != nil {
					return err
				}
				ext[order.width+i] = v
			}
			row = ext
		}
		all = append(roomFor(ctx.Mem, all, 1), sortKeyed{row: row, seq: len(all)})
		n := rowBytes(row)
		s.acct.grow(n)
		batchBytes += n
		// Flush a run only once the local batch is budget-sized (and past the
		// row floor): the shared tracker being over — possibly from other
		// operators' bytes — must not shear this sort's runs down to the row
		// floor, or a tiny budget writes a spill file per few KiB of rows
		// and pays merge passes over all of them.
		if s.acct.spillable() && s.acct.over() && len(all) >= minSortRunRows &&
			batchBytes >= sortRunTargetBytes(ctx.Mem.Budget()) {
			return flushRun()
		}
		return nil
	})
	if err != nil {
		return err
	}

	if len(runs) == 0 {
		// Everything fit: the in-memory path, output aliasing the buffer.
		s.slot.record(len(all), 0)
		sortBatch()
		s.pos = 0
		return nil
	}
	if len(all) > 0 {
		if err := flushRun(); err != nil {
			return err
		}
	}
	s.merger, err = newMerger(ctx, &s.reg, order.runOrder(), runs, s.reuse)
	return err
}

func (s *sortIter) Next() (value.Row, error) {
	if s.merger != nil {
		return s.merger.Next()
	}
	if s.pos >= len(s.buf) {
		return nil, nil
	}
	row := s.buf[s.pos].row
	s.pos++
	return row[:s.order.width:s.order.width], nil
}

// release drops all sort state: buffered rows, accounting, spill files.
func (s *sortIter) release() {
	s.buf, s.pos = giveSlab(s.acct.mem(), s.buf), 0
	s.merger.Close()
	s.merger = nil
	s.reg.closeAll()
	s.acct.releaseAll()
}

func (s *sortIter) Close() error {
	s.release()
	return nil
}

// --- Limit ---------------------------------------------------------------------

type limitIter struct {
	op      *algebra.Limit
	input   iterator
	skipped int64
	emitted int64
}

func (l *limitIter) Open(ctx *Context) error {
	l.skipped, l.emitted = 0, 0
	return l.input.Open(ctx)
}

func (l *limitIter) Next() (value.Row, error) {
	for l.skipped < l.op.Offset {
		row, err := l.input.Next()
		if err != nil || row == nil {
			return nil, err
		}
		l.skipped++
	}
	if l.op.Count >= 0 && l.emitted >= l.op.Count {
		return nil, nil
	}
	row, err := l.input.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.emitted++
	return row, nil
}

func (l *limitIter) Close() error { return l.input.Close() }

// --- Distinct ------------------------------------------------------------------

// distinctIter streams first occurrences while its seen-set fits work_mem;
// past the budget it freezes the seen keys to disk and grace-partitions the
// remainder (see dedupState), producing the same rows in the same order.
type distinctIter struct {
	input iterator
	dedup dedupState
	done  bool // input exhausted: what is left comes from the partitions
}

func (d *distinctIter) Open(ctx *Context) error {
	d.done = false
	d.dedup.start(ctx)
	return d.input.Open(ctx)
}

func (d *distinctIter) Next() (value.Row, error) {
	for !d.done {
		row, err := d.input.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			d.done = true
			if err := d.dedup.d.finish(); err != nil {
				return nil, err
			}
			break
		}
		emit, err := d.dedup.offer(row)
		if err != nil {
			return nil, err
		}
		if emit {
			return row, nil
		}
	}
	return d.dedup.d.Next()
}

func (d *distinctIter) Close() error {
	d.dedup.release()
	return d.input.Close()
}

// --- Concat --------------------------------------------------------------------

// concatIter is UNION ALL: the left input's rows, then the right's. Under a
// distinctIter it is UNION DISTINCT.
type concatIter struct {
	left, right iterator
	onRight     bool
}

func (c *concatIter) Open(ctx *Context) error {
	c.onRight = false
	if err := c.left.Open(ctx); err != nil {
		return err
	}
	return c.right.Open(ctx)
}

func (c *concatIter) Next() (value.Row, error) {
	if !c.onRight {
		if row, err := c.left.Next(); err != nil || row != nil {
			return row, err
		}
		c.onRight = true
	}
	return c.right.Next()
}

func (c *concatIter) Close() error {
	c.left.Close()
	return c.right.Close()
}

// --- draining -------------------------------------------------------------------

// openOrClose opens an input its parent drains and closes itself, closing it
// at once when its Open fails: what it holds by then (tracked bytes, slabs,
// spill files) is released, though no one will Close it later.
func openOrClose(it iterator, ctx *Context) error {
	err := it.Open(ctx)
	if err != nil {
		it.Close()
	}
	return err
}

// drainRows pulls src to its end, handing each row to fn. Every operator that
// consumes a whole input before it emits runs its input through here, so this
// is the one place such a loop polls for cancellation (it emits nothing the
// materialization polls could see) and counts against the row budget.
func drainRows(ctx *Context, src interface{ Next() (value.Row, error) }, fn func(value.Row) error) error {
	n := 0
	for {
		if err := ctx.tick(); err != nil {
			return err
		}
		row, err := src.Next()
		if err != nil || row == nil {
			return err
		}
		n++
		if ctx.RowBudget > 0 && n > int(ctx.RowBudget) {
			return fmt.Errorf("executor: intermediate result exceeds row budget of %d rows", ctx.RowBudget)
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// reopenAndDrain runs a prebuilt iterator tree to completion under the
// current context. Iterators are re-openable: Open fully resets streaming
// state while keeping compiled expressions, which is what lets lateral joins
// and correlated subplans re-execute a subtree per outer row without
// rebuilding (and recompiling) it.
func reopenAndDrain(it iterator, ctx *Context) ([]value.Row, error) {
	if err := openOrClose(it, ctx); err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []value.Row
	if err := drainRows(ctx, it, func(row value.Row) error {
		rows = append(rows, row)
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// interruptMask spaces the cancellation polls: the channel select runs once
// every interruptMask+1 rows, which keeps the per-row overhead unmeasurable
// while still canceling runaway provenance joins within microseconds.
const interruptMask = 255
