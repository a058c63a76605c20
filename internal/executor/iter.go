package executor

import (
	"fmt"
	"slices"
	"sort"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// --- Scan ----------------------------------------------------------------------

type scanIter struct {
	op   *algebra.Scan
	rows []value.Row
	pos  int
}

func (s *scanIter) Open(ctx *Context) error {
	// The context resolves the rows visible to THIS statement: the versions
	// at its pinned snapshot LSN (or its transaction's read-your-writes
	// view). Steady-state reads alias the table's shared materialized view
	// without copying; the rows themselves are immutable and downstream
	// operators must never write into them.
	rows, err := ctx.TableRows(s.op.Table)
	if err != nil {
		return err
	}
	s.rows = rows
	s.pos = 0
	return nil
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
	s.rows = nil
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

type projectIter struct {
	op    *algebra.Project
	input iterator
	ctx   *Context
	exprs []compiledExpr
	// prefix: the expressions are columns 0..n-1 of the input, in order, so
	// the output row is the input row re-sliced. Rows are immutable, which
	// makes the alias as good as the copy.
	prefix bool
	alloc  value.RowAlloc
}

func (p *projectIter) Open(ctx *Context) error {
	p.ctx = ctx
	if p.exprs == nil {
		p.exprs = compileAll(p.op.Exprs)
		p.prefix = true
		for i, e := range p.op.Exprs {
			if c, ok := e.(*algebra.ColIdx); !ok || c.Idx != i {
				p.prefix = false
				break
			}
		}
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
	out := p.alloc.New(len(p.exprs))
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

// sortIter is ORDER BY. Under budget it is the classic buffer-and-
// SliceStable; past the session's work_mem it becomes an external merge sort
// (sorted runs spilled through the context's spill pool, k-way merged on
// Next) with identical output, stability included — see extsort.go.
type sortIter struct {
	op       *algebra.Sort
	input    iterator
	rows     []value.Row
	pos      int
	keyExprs []compiledExpr
	acct     memAcct
	reg      fileReg
	merger   *merger
}

type sortKeyed struct {
	row  value.Row
	keys value.Row
	seq  int
}

func (s *sortIter) Open(ctx *Context) error {
	s.release() // re-Open (lateral re-execution) must not leak prior state
	s.acct.ctx = ctx
	if err := s.input.Open(ctx); err != nil {
		return err
	}
	defer s.input.Close()
	if s.keyExprs == nil {
		s.keyExprs = make([]compiledExpr, len(s.op.Keys))
		for i, k := range s.op.Keys {
			s.keyExprs[i] = Compile(k.Expr)
		}
	}
	keyExprs := s.keyExprs

	sortBatch := func(all []sortKeyed) {
		sort.SliceStable(all, func(i, j int) bool {
			if c := sortKeyCompare(s.op.Keys, all[i].keys, all[j].keys); c != 0 {
				return c < 0
			}
			return all[i].seq < all[j].seq
		})
	}

	var all []sortKeyed
	var keyAlloc value.RowAlloc
	var runs []*spill.File
	var batchBytes int64
	var rec []byte
	// flushRun sorts the buffered batch and writes it out as one run.
	flushRun := func() error {
		sortBatch(all)
		f, err := s.reg.create(ctx)
		if err != nil {
			return err
		}
		runs = append(runs, f)
		for _, k := range all {
			rec = runRecord(rec[:0], k.keys, k.row)
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
		keys := keyAlloc.New(len(keyExprs))
		for i, ke := range keyExprs {
			v, err := ke(row, ctx)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		all = append(all, sortKeyed{row: row, keys: keys, seq: len(all)})
		n := rowBytes(row) + rowBytes(keys)
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
		// Everything fit: the classic in-memory path, output aliasing the
		// buffered rows.
		sortBatch(all)
		s.rows = make([]value.Row, len(all))
		for i, k := range all {
			s.rows[i] = k.row
		}
		s.pos = 0
		return nil
	}
	if len(all) > 0 {
		if err := flushRun(); err != nil {
			return err
		}
	}
	s.merger, err = newMerger(ctx, &s.reg, runOrder(s.op.Keys), runs)
	return err
}

func (s *sortIter) Next() (value.Row, error) {
	if s.merger != nil {
		return s.merger.Next()
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

// release drops all sort state: buffered rows, accounting, spill files.
func (s *sortIter) release() {
	s.rows = nil
	s.pos = 0
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
