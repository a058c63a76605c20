package engine

import (
	"fmt"
	"strings"
	"time"

	"perm/internal/algebra"
	"perm/internal/executor"
	"perm/internal/planner"
	"perm/internal/sql"
	"perm/internal/value"
)

// Explanation carries the artifacts the Perm browser shows for one query
// (Figure 4): the original SQL, the rewritten SQL, ASCII algebra trees for
// the original and rewritten query, the rewrite decisions, and — with
// EXPLAIN ANALYZE — the per-stage timings of Figure 3.
type Explanation struct {
	OriginalSQL   string
	RewrittenSQL  string
	OriginalTree  string
	RewrittenTree string
	OptimizedTree string
	Decisions     []string
	Timings       Timings
	RowCount      int
	Analyzed      bool
	// EXPLAIN ANALYZE extras: the optimized tree annotated with measured
	// per-operator counters, the stats tree itself (tests and tools read
	// the raw numbers), and statement-level totals.
	AnalyzedTree               string
	Stats                      *executor.OpStats
	SpillFiles, SpillBytes     int64
	SubplanHits, SubplanMisses int64
	// OpenDur is the executor-open slice of Execute (blocking operators'
	// up-front work); the drain phase is Execute - OpenDur.
	OpenDur time.Duration
}

// Explain produces the browser artifacts for a query without running it.
func (s *Session) Explain(sel *sql.SelectStmt) (*Explanation, error) {
	return s.explain(sel, false)
}

// ExplainAnalyze additionally executes the query and reports stage timings.
func (s *Session) ExplainAnalyze(sel *sql.SelectStmt) (*Explanation, error) {
	return s.explain(sel, true)
}

func (s *Session) explain(sel *sql.SelectStmt, analyze bool) (*Explanation, error) {
	ex := &Explanation{OriginalSQL: sql.FormatStatement(sel), Analyzed: analyze}

	// One store pins resolution, costing and execution (see analyzeOn).
	store := s.db.Store()
	orig, err := s.analyzeOriginalOn(store, sel)
	if err != nil {
		return nil, err
	}
	ex.OriginalTree = algebra.Tree(orig)

	t0 := time.Now()
	plan, decisions, rewriteDur, err := s.analyzeOn(store, sel, nil)
	if err != nil {
		return nil, err
	}
	ex.Timings.Analyze = time.Since(t0)
	ex.Timings.Rewrite = rewriteDur
	ex.Decisions = decisions
	ex.RewrittenTree = algebra.Tree(plan)
	ex.RewrittenSQL = algebra.ToSQL(plan)

	t1 := time.Now()
	opt := s.planOn(store, plan)
	ex.Timings.Plan = time.Since(t1)
	pl := planner.New(store.Catalog())
	ex.OptimizedTree = algebra.AnnotatedTree(opt, func(op algebra.Op) string {
		return fmt.Sprintf("(rows≈%.0f)", pl.EstimateRows(op))
	})

	if analyze {
		ctx := s.execContextOn(store)
		defer ctx.Release()
		t2 := time.Now()
		stream, root, err := executor.OpenInstrumented(ctx, opt)
		if err != nil {
			return nil, err
		}
		ex.OpenDur = time.Since(t2)
		rows, err := stream.Drain()
		if err != nil {
			stream.Close()
			return nil, err
		}
		ex.Timings.Execute = time.Since(t2)
		ex.RowCount = len(rows)
		ex.Stats = root
		ex.SpillFiles, ex.SpillBytes = root.SpillFiles, root.SpillBytes
		ex.SubplanHits, ex.SubplanMisses = int64(ctx.SubplanHits), int64(ctx.SubplanMisses)
		ex.AnalyzedTree = analyzedTree(opt, root, pl)
	}
	return ex, nil
}

// analyzedTree renders the optimized plan annotated with the measured
// per-operator counters — the EXPLAIN ANALYZE payload — each beside the
// planner's estimate for the operator, so the estimator's error reads off
// one line. Stats nodes are matched to plan nodes by operator identity;
// pass-through nodes (BaseRel, ProvDone) executed no iterator and carry no
// annotation.
func analyzedTree(plan algebra.Op, root *executor.OpStats, pl *planner.Planner) string {
	byOp := map[algebra.Op]*executor.OpStats{}
	root.Walk(func(n *executor.OpStats) { byOp[n.Op] = n })
	return algebra.AnnotatedTree(plan, func(op algebra.Op) string {
		n := byOp[op]
		if n == nil {
			return ""
		}
		if n.Opens == 0 {
			return "(never executed)"
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "(rows=%d est≈%.0f", n.Rows, pl.EstimateRows(op))
		if n.Opens > 1 {
			fmt.Fprintf(&sb, " loops=%d", n.Opens)
		}
		fmt.Fprintf(&sb, " time=%s open=%s",
			time.Duration(n.TotalNs()).Round(time.Microsecond),
			time.Duration(n.OpenNs).Round(time.Microsecond))
		if n.MemPeak > 0 {
			fmt.Fprintf(&sb, " mem=%s", fmtBytes(n.MemPeak))
		}
		if n.SpillFiles > 0 {
			fmt.Fprintf(&sb, " spill=%d/%s", n.SpillFiles, fmtBytes(n.SpillBytes))
		}
		if n.BuildRows > 0 {
			fmt.Fprintf(&sb, " build=%d", n.BuildRows)
		}
		if n.Workers > 0 {
			fmt.Fprintf(&sb, " workers=%d", n.Workers)
			parts := make([]string, 0, len(n.WorkerRows))
			for w := range n.WorkerRows {
				var ns int64
				if w < len(n.WorkerNs) {
					ns = n.WorkerNs[w]
				}
				parts = append(parts, fmt.Sprintf("%d@%s", n.WorkerRows[w],
					time.Duration(ns).Round(time.Microsecond)))
			}
			fmt.Fprintf(&sb, " per-worker=[%s]", strings.Join(parts, " "))
		}
		sb.WriteByte(')')
		return sb.String()
	})
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// runExplain renders an Explanation as a one-column result, the way EXPLAIN
// output comes back from a SQL interface.
func (s *Session) runExplain(st *sql.ExplainStmt) (*Result, error) {
	ex, err := s.explain(st.Target, st.Analyze)
	if err != nil {
		return nil, err
	}
	var lines []string
	add := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	add("Original query: %s", ex.OriginalSQL)
	add("Original algebra tree:")
	lines = append(lines, strings.Split(strings.TrimRight(ex.OriginalTree, "\n"), "\n")...)
	if len(ex.Decisions) > 0 {
		add("Provenance rewrite decisions:")
		for _, d := range ex.Decisions {
			add("  %s", d)
		}
	}
	add("Rewritten algebra tree:")
	lines = append(lines, strings.Split(strings.TrimRight(ex.RewrittenTree, "\n"), "\n")...)
	add("Rewritten SQL: %s", ex.RewrittenSQL)
	add("Optimized plan:")
	lines = append(lines, strings.Split(strings.TrimRight(ex.OptimizedTree, "\n"), "\n")...)
	if ex.Analyzed {
		add("Analyzed plan (measured):")
		lines = append(lines, strings.Split(strings.TrimRight(ex.AnalyzedTree, "\n"), "\n")...)
		add("Stage timings: analyze=%v (rewrite=%v) plan=%v open=%v execute=%v",
			ex.Timings.Analyze, ex.Timings.Rewrite, ex.Timings.Plan, ex.OpenDur, ex.Timings.Execute)
		add("Rows: %d", ex.RowCount)
		if ex.SpillFiles > 0 {
			add("Spill: %d file(s), %s", ex.SpillFiles, fmtBytes(ex.SpillBytes))
		}
		if ex.SubplanHits+ex.SubplanMisses > 0 {
			add("Subplan cache: %d hit(s), %d miss(es)", ex.SubplanHits, ex.SubplanMisses)
		}
	}
	rows := make([]value.Row, len(lines))
	for i, l := range lines {
		rows[i] = value.Row{value.NewString(l)}
	}
	return &Result{
		Columns: []string{"QUERY PLAN"},
		Schema:  algebra.Schema{{Name: "QUERY PLAN", Type: value.KindString}},
		Rows:    rows,
		Tag:     "EXPLAIN",
	}, nil
}
