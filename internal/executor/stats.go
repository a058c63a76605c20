package executor

import (
	"time"

	"perm/internal/algebra"
	"perm/internal/value"
)

// OpStats is the runtime profile of one operator in an instrumented
// execution (EXPLAIN ANALYZE, SET trace). A stats tree mirrors the iterator
// tree; pass-through algebra nodes (BaseRel, ProvDone) get no node, exactly
// as they get no iterator.
//
// Instrumentation is strictly opt-in: an uninstrumented build carries nil
// stats nodes, wraps nothing, and adds zero work to the per-row path.
type OpStats struct {
	// Op is the algebra node this operator executes — the key EXPLAIN
	// ANALYZE uses to annotate the optimized plan tree.
	Op       algebra.Op
	Children []*OpStats

	// Opens counts Open calls: >1 means the operator sat under a lateral
	// join and was re-executed once per outer row.
	Opens int64
	// Rows is the total row count this operator produced across all opens.
	Rows int64
	// OpenNs and NextNs are inclusive wall time (children included, like
	// EXPLAIN ANALYZE in Postgres): time spent in Open, and in the Next loop.
	OpenNs int64
	NextNs int64

	// MemCur/MemPeak track operator-attributed work_mem bytes (exact, via
	// the operator's memory accounts). Zero for non-blocking operators.
	MemCur  int64
	MemPeak int64

	// SpillFiles/SpillBytes are subtree-inclusive spill-pool deltas: every
	// temp file and byte written while this subtree executed. The root's
	// numbers therefore equal the statement's totals (what SHOW
	// memory_status reports as the session delta).
	SpillFiles int64
	SpillBytes int64

	// BuildRows is the materialized build-side cardinality of a hash or
	// nested-loop join (0 for other operators and lateral joins, which
	// stream the right side per outer row).
	BuildRows int64

	// Workers is the fan-out degree of an operator that ran partition-wise
	// (0 when it ran serial). WorkerRows/WorkerNs are the per-worker output
	// row counts and wall times, indexed by worker; they are written only
	// after the workers are joined, so instrumented reads never race. The
	// operators beneath it then carry totals across workers: rows and times
	// summed, Opens counting one per worker.
	Workers    int
	WorkerRows []int64
	WorkerNs   []int64

	baseFiles int64
	baseBytes int64
	based     bool
}

// TotalNs is the operator's inclusive wall time: open + next loop.
func (n *OpStats) TotalNs() int64 { return n.OpenNs + n.NextNs }

// Walk visits the node and its subtree preorder.
func (n *OpStats) Walk(f func(*OpStats)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// absorbWorkers publishes a joined fan-out on the operator's node: the
// per-worker rollup, and every worker's private stats tree summed operator by
// operator into the displayed subtree, so each operator shows its total
// however many goroutines ran it. Callers invoke it only after the workers are
// joined.
func (n *OpStats) absorbWorkers(roots []*OpStats, rows, ns []int64) {
	n.Workers, n.WorkerRows, n.WorkerNs = len(roots), rows, ns
	shown := map[algebra.Op]*OpStats{}
	n.Walk(func(d *OpStats) { shown[d.Op] = d })
	for _, root := range roots {
		root.Walk(func(w *OpStats) {
			d := shown[w.Op]
			if d == nil {
				return // the worker's sentinel root
			}
			d.MemPeak += w.MemPeak
			if d != n {
				// n's own rows and times are the coordinator's, measured by
				// its statIter like any operator's.
				d.Opens += w.Opens
				d.Rows += w.Rows
				d.OpenNs += w.OpenNs
				d.NextNs += w.NextNs
			}
		})
	}
}

// node creates a stats child under parent, or nil when uninstrumented.
func node(parent *OpStats, op algebra.Op) *OpStats {
	if parent == nil {
		return nil
	}
	n := &OpStats{Op: op}
	parent.Children = append(parent.Children, n)
	return n
}

// wrapStat wraps an iterator with its stats collector; a nil node returns
// the iterator untouched, keeping the disabled path allocation-identical.
func wrapStat(it iterator, n *OpStats) iterator {
	if n == nil {
		return it
	}
	return &statIter{inner: it, n: n}
}

// statIter decorates one iterator with counters. Timing is inclusive: a
// parent's Next time contains its children's, so self time is parent minus
// sum-of-children at render time.
type statIter struct {
	inner iterator
	n     *OpStats
	ctx   *Context
}

func (s *statIter) Open(ctx *Context) error {
	s.ctx = ctx
	if !s.n.based {
		s.n.based = true
		if ctx.Mem != nil {
			p := ctx.Mem.Pool()
			s.n.baseFiles, s.n.baseBytes = p.Files(), p.Bytes()
		}
	}
	s.n.Opens++
	prev := ctx.owner
	ctx.owner = s.n
	t0 := time.Now()
	err := s.inner.Open(ctx)
	s.n.OpenNs += time.Since(t0).Nanoseconds()
	ctx.owner = prev
	s.collectSpill()
	return err
}

func (s *statIter) Next() (value.Row, error) {
	prev := s.ctx.owner
	s.ctx.owner = s.n
	t0 := time.Now()
	row, err := s.inner.Next()
	s.n.NextNs += time.Since(t0).Nanoseconds()
	s.ctx.owner = prev
	if row != nil {
		s.n.Rows++
	}
	return row, err
}

func (s *statIter) Close() error {
	s.collectSpill()
	if s.ctx == nil {
		return s.inner.Close()
	}
	prev := s.ctx.owner
	s.ctx.owner = s.n
	err := s.inner.Close()
	s.ctx.owner = prev
	return err
}

// collectSpill refreshes the subtree-inclusive spill deltas from the
// session pool's cumulative counters.
func (s *statIter) collectSpill() {
	if s.ctx == nil || s.ctx.Mem == nil {
		return
	}
	p := s.ctx.Mem.Pool()
	s.n.SpillFiles = p.Files() - s.n.baseFiles
	s.n.SpillBytes = p.Bytes() - s.n.baseBytes
}
