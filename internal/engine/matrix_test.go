package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"perm/internal/resultmatrix"
)

// The result matrix's session cells: each test runs the one corpus in its
// cells against the one reference (see package resultmatrix), in parallel
// with the others. The paths a statement travels to a client are the
// server's.

// runCells runs each cell on load's matrix as a parallel subtest named
// name(c).
func runCells(t *testing.T, load func(*testing.T) *resultmatrix.Matrix, cells []resultmatrix.Cell, name func(resultmatrix.Cell) string) {
	t.Parallel()
	m := load(t)
	for _, c := range cells {
		t.Run(name(c), func(t *testing.T) {
			t.Parallel()
			c.Run(t, m)
		})
	}
}

// TestParallelDifferential: the corpus at degrees 1, 2 and 8 under the
// default work_mem and 4 KiB. Under the default, the shapes that fan out run
// on at least as many workers as the degree; at degree 1 nothing fans out.
func TestParallelDifferential(t *testing.T) {
	var cells []resultmatrix.Cell
	for _, degree := range []int{1, 2, 8} {
		for _, workMem := range []int64{0, resultmatrix.TinyWorkMem} {
			cells = append(cells, resultmatrix.Cell{WorkMem: workMem, Degree: degree, Traced: workMem == 0 || degree == 1})
		}
	}
	runCells(t, resultmatrix.Load, cells, func(c resultmatrix.Cell) string {
		return fmt.Sprintf("parallelism=%d/tiny=%v", c.Degree, c.WorkMem != 0)
	})
}

// TestSpillDifferential: the corpus under 1 MiB, which some operators
// outgrow and others do not, at degrees 1, 2 and 8.
func TestSpillDifferential(t *testing.T) {
	var cells []resultmatrix.Cell
	for _, degree := range []int{1, 2, 8} {
		cells = append(cells, resultmatrix.Cell{WorkMem: 1 << 20, Degree: degree, Traced: degree == 1})
	}
	runCells(t, resultmatrix.Load, cells, resultmatrix.Cell.String)
}

// TestSlabRecyclingNeverChangesResults: the corpus three times, shuffled, in
// one session, with streams closed early, a statement failing mid-build and
// a cancelled one between the statements; the session keeps slabs for the
// next.
func TestSlabRecyclingNeverChangesResults(t *testing.T) {
	var cells []resultmatrix.Cell
	for _, workMem := range []int64{1 << 20, resultmatrix.TinyWorkMem, 0} {
		for _, degree := range []int{1, 2} {
			cells = append(cells, resultmatrix.Cell{WorkMem: workMem, Degree: degree, Reused: true})
		}
	}
	runCells(t, resultmatrix.Load, cells, resultmatrix.Cell.String)
}

// TestSizeHintsNeverChangeResults: the plan-cached cells that grow, whose
// size hints go stale in both directions.
func TestSizeHintsNeverChangeResults(t *testing.T) {
	var cells []resultmatrix.Cell
	for _, workMem := range []int64{resultmatrix.TinyWorkMem, 0} {
		for _, degree := range []int{1, 2} {
			cells = append(cells, resultmatrix.Cell{WorkMem: workMem, Degree: degree, Grows: true})
		}
	}
	runCells(t, resultmatrix.Growing, cells, resultmatrix.Cell.String)
}

// TestParallelErrorAgreement: the failing statements, each in a fresh
// session at degrees 1, 2 and 8, fail with the reference's message and leave
// no tracked byte behind.
func TestParallelErrorAgreement(t *testing.T) {
	var cells []resultmatrix.Cell
	for _, degree := range []int{1, 2, 8} {
		cells = append(cells, resultmatrix.Cell{Degree: degree, Fresh: true})
	}
	runCells(t, func(t *testing.T) *resultmatrix.Matrix {
		return resultmatrix.Load(t).Where(func(st resultmatrix.Stmt) bool { return st.Fails })
	}, cells, resultmatrix.Cell.String)
}

// runBounded runs the bounded shape named shape, each statement in a fresh
// session under 128 KiB at degrees 1 and 4: it spills, and its peak stays
// within twice the budget.
func runBounded(t *testing.T, shape string) {
	var cells []resultmatrix.Cell
	for _, degree := range []int{1, 4} {
		cells = append(cells, resultmatrix.Cell{WorkMem: resultmatrix.BoundedWorkMem, Degree: degree, Fresh: true})
	}
	runCells(t, func(t *testing.T) *resultmatrix.Matrix {
		m := resultmatrix.Load(t).Where(func(st resultmatrix.Stmt) bool { return st.Bounded == shape })
		if len(m.Stmts) == 0 {
			t.Fatalf("no %s shape in the corpus", shape)
		}
		return m
	}, cells, resultmatrix.Cell.String)
}

// TestSpill100kProvenance: a sort, a grouping with a DISTINCT aggregate and a
// set operation under provenance.
func TestSpill100kProvenance(t *testing.T) { runBounded(t, "provenance") }

// TestParallelJoinBuildSpillRegression: a hash join's build side.
func TestParallelJoinBuildSpillRegression(t *testing.T) { runBounded(t, "join build") }

// TestParallelDistinctSpillRegression: per-group DISTINCT seen-sets.
func TestParallelDistinctSpillRegression(t *testing.T) { runBounded(t, "distinct") }

// TestDistinctAggregatesWithOptimizerOff: a session with the optimizer off
// still lowers DISTINCT aggregates, which the executor does not run, and the
// corpus's statements holding one return the reference's bytes under the
// default work_mem and 4 KiB. (The order of a provenance join-back's rows is
// the optimizer's choice, so those statements sit out.)
func TestDistinctAggregatesWithOptimizerOff(t *testing.T) {
	t.Parallel()
	m := resultmatrix.Load(t).Where(func(st resultmatrix.Stmt) bool {
		return strings.Contains(st.SQL, "(DISTINCT ") && !strings.Contains(st.SQL, "PROVENANCE")
	})
	if len(m.Stmts) < 5 {
		t.Fatalf("%d statements with a DISTINCT aggregate in the corpus", len(m.Stmts))
	}
	for _, workMem := range []int64{0, resultmatrix.TinyWorkMem} {
		s, dir := m.DB.NewSession(), t.TempDir()
		s.SetTempDir(dir)
		if workMem != 0 {
			s.SetWorkMem(workMem)
		}
		if _, err := s.Execute(`SET optimizer = off`); err != nil {
			t.Fatal(err)
		}
		for i, st := range m.Stmts {
			resultmatrix.Check(t, dir, fmt.Sprintf("%s (work_mem %d, optimizer off)", st.SQL, workMem), m.Want[i], resultmatrix.Drain(s.Query(st.SQL, st.Args...)))
		}
		s.Close()
	}
}
