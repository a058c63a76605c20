package executor

import (
	"cmp"
	"fmt"
	"slices"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// --- Scan ----------------------------------------------------------------------

// scanIter iterates a table's rows or, with no op, rows resolved beforehand:
// a worker's contiguous partition of the coordinator's snapshot, the shared
// materialized build side of a parallel join.
type scanIter struct {
	op   *algebra.Scan
	rows []value.Row
	pos  int
}

func (s *scanIter) Open(ctx *Context) (err error) {
	// The context resolves the rows visible to THIS statement: the versions
	// at its pinned snapshot LSN (or its transaction's read-your-writes
	// view). Steady-state reads alias the table's shared materialized view
	// without copying; the rows themselves are immutable and downstream
	// operators must never write into them.
	if s.op != nil {
		s.rows, err = ctx.TableRows(s.op.Table)
	}
	s.pos = 0
	return err
}

func (s *scanIter) Next() (value.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

func (s *scanIter) Close() error {
	if s.op != nil {
		s.rows = nil
	}
	return nil
}

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

// next returns the row to fill, n wide (every call of one maker asks the same).
func (m *rowMaker) next(n int) value.Row {
	if !m.reuse {
		return m.alloc.New(n)
	}
	if poisonStaleRows {
		for i := range m.row {
			m.row[i] = staleRow
		}
		m.row = nil
	}
	if m.row == nil {
		m.row = make(value.Row, n) // never nil: a nil row is end-of-stream
	}
	return m.row
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
	out := p.rows.next(len(p.exprs))
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
	if f.pred == nil {
		f.pred = compilePred(f.op.Cond)
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
	if err := s.input.Open(ctx); err != nil {
		return err
	}
	defer s.input.Close()
	if s.order == nil {
		s.order = newSortOrder(s.op.Keys, len(s.op.Input.Schema()))
	}
	order := s.order

	var all []sortKeyed
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
		sortBatch()
		f, err := s.reg.create(ctx)
		if err != nil {
			return err
		}
		runs = append(runs, f)
		for _, k := range all {
			rec = spill.AppendRow(rec[:0], k.row)
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
		all = append(roomFor(all, 1), sortKeyed{row: row, seq: len(all)})
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
		sortBatch()
		s.buf, s.pos = all, 0
		return nil
	}
	if len(all) > 0 {
		if err := flushRun(); err != nil {
			return err
		}
	}
	s.merger, err = newMerger(ctx, &s.reg, order.runOrder(), runs)
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
	s.buf, s.pos = nil, 0
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

// roomFor returns s with capacity for n more elements, doubling a slice that
// is full. The buffers a whole input drains into end up thousands of elements
// long, where append's own growth has slowed to 1.25× and a slice that ends
// at n elements has allocated some 4.5n on the way; doubling allocates 3n on
// average.
func roomFor[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
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
	if err := it.Open(ctx); err != nil {
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
