package planner

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

// optimize_more_test.go covers the planner branches the query-driven tests
// miss: projection merging, cheap-expression substitution limits, and the
// estimator's remaining operator cases.

func TestProjectMergeCollapsesChains(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	// Three stacked projections of plain column references must merge.
	raw := planOf(t, s, `SELECT y FROM (SELECT x AS y FROM (SELECT a AS x FROM t) AS i) AS o`)
	opt := p.Optimize(raw)
	projects := 0
	algebra.Walk(opt, func(op algebra.Op) {
		if _, ok := op.(*algebra.Project); ok {
			projects++
		}
	})
	if projects > 1 {
		t.Errorf("projection chain not merged (%d projects):\n%s", projects, algebra.Tree(opt))
	}
	if len(rowsOf(t, s, raw)) != len(rowsOf(t, s, opt)) {
		t.Error("merge changed results")
	}
}

func TestNoSubstitutionThroughExpensiveExprs(t *testing.T) {
	// A filter above a projection computing a function must NOT duplicate
	// the function call into the filter (cheap() guard) — the Select stays
	// above the Project.
	s := env(t)
	p := New(s.Catalog())
	raw := planOf(t, s, `SELECT v FROM (SELECT a + b AS v FROM t) AS x WHERE v > 10 AND v < 100`)
	opt := p.Optimize(raw)
	// Results must hold either way.
	if len(rowsOf(t, s, raw)) != len(rowsOf(t, s, opt)) {
		t.Error("optimization changed results")
	}
}

func TestFoldCast(t *testing.T) {
	e := algebra.Expr(&algebra.Cast{E: &algebra.Const{Val: value.NewString("5")}, To: value.KindInt})
	folded, changed := FoldConstants(e)
	if !changed {
		t.Fatal("cast of constant must fold")
	}
	if c, ok := folded.(*algebra.Const); !ok || c.Val.Int() != 5 {
		t.Errorf("folded = %v", folded)
	}
}

func TestFoldNegAndNot(t *testing.T) {
	neg, _ := FoldConstants(&algebra.Neg{E: &algebra.Const{Val: value.NewInt(3)}})
	if c, ok := neg.(*algebra.Const); !ok || c.Val.Int() != -3 {
		t.Errorf("neg folded = %v", neg)
	}
	not, _ := FoldConstants(&algebra.Not{E: &algebra.Const{Val: value.NewBool(true)}})
	if c, ok := not.(*algebra.Const); !ok || c.Val.Bool() {
		t.Errorf("not folded = %v", not)
	}
	notNull, _ := FoldConstants(&algebra.Not{E: &algebra.Const{Val: value.Null}})
	if c, ok := notNull.(*algebra.Const); !ok || !c.Val.IsNull() {
		t.Errorf("NOT NULL folded = %v", notNull)
	}
}

func TestAndOrNotFolded(t *testing.T) {
	// AND/OR deliberately do not constant-fold (3VL short-circuits at
	// runtime are already cheap); the fold must leave them intact.
	e := &algebra.Bin{Op: sql.OpAnd,
		L: &algebra.Const{Val: value.NewBool(true)},
		R: &algebra.Const{Val: value.NewBool(false)}}
	folded, _ := FoldConstants(e)
	if _, ok := folded.(*algebra.Const); ok {
		t.Error("AND must not fold")
	}
}

func TestEstimateSetOpsAndSemi(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	tScan := planOf(t, s, `SELECT a FROM t`)
	uScan := planOf(t, s, `SELECT a FROM u`)
	if est := p.EstimateRows(algebra.NewSetOp(algebra.UnionAll, tScan, uScan)); est != 41 {
		t.Errorf("union all estimate = %v, want 41", est)
	}
	if est := p.EstimateRows(algebra.NewSetOp(algebra.IntersectDistinct, tScan, uScan)); est <= 0 || est > 20 {
		t.Errorf("intersect estimate = %v", est)
	}
	if est := p.EstimateRows(algebra.NewSetOp(algebra.ExceptAll, tScan, uScan)); est != 10 {
		t.Errorf("except estimate = %v, want 10", est)
	}
	if est := p.EstimateRows(&algebra.Values{Rows: make([][]algebra.Expr, 3)}); est != 3 {
		t.Errorf("values estimate = %v", est)
	}
	if est := p.EstimateRows(&algebra.Distinct{Input: tScan}); est != 10 {
		t.Errorf("distinct estimate = %v", est)
	}
	if est := p.EstimateRows(&algebra.BaseRel{Input: tScan}); est != 20 {
		t.Errorf("baserel estimate = %v", est)
	}
	if est := p.EstimateRows(&algebra.ProvDone{Input: tScan}); est != 20 {
		t.Errorf("provdone estimate = %v", est)
	}
}

func TestOptimizeIsIdempotent(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	raw := planOf(t, s, `SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 50 AND u.c > 1000 ORDER BY t.a`)
	once := p.Optimize(raw)
	twice := p.Optimize(once)
	if algebra.Tree(once) != algebra.Tree(twice) {
		t.Errorf("optimizer not idempotent:\nonce:\n%s\ntwice:\n%s",
			algebra.Tree(once), algebra.Tree(twice))
	}
}
