package planner

import (
	"sort"
	"testing"

	"perm/internal/algebra"
	"perm/internal/analyzer"
	"perm/internal/catalog"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

func env(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	tab, err := s.CreateTable(&catalog.TableDef{Name: "t", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		tab.Insert(value.Row{value.NewInt(i), value.NewInt(i * 10)})
	}
	tab2, err := s.CreateTable(&catalog.TableDef{Name: "u", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt}, {Name: "c", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(10); i <= 30; i++ {
		tab2.Insert(value.Row{value.NewInt(i), value.NewInt(i * 100)})
	}
	if err := s.Analyze(""); err != nil {
		t.Fatal(err)
	}
	return s
}

func planOf(t *testing.T, s *storage.Store, q string) algebra.Op {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	op, err := analyzer.New(s.Catalog()).AnalyzeSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func rowsOf(t *testing.T, s *storage.Store, op algebra.Op) []string {
	t.Helper()
	res, err := executor.Run(executor.NewContext(s), op)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestOptimizePreservesResults is the planner's core soundness property.
func TestOptimizePreservesResults(t *testing.T) {
	s := env(t)
	queries := []string{
		`SELECT a, b FROM t WHERE a > 5 AND b < 150`,
		`SELECT t.a, u.c FROM t JOIN u ON t.a = u.a WHERE t.b > 50 AND u.c < 2500`,
		`SELECT x.s FROM (SELECT a + b AS s FROM t) AS x WHERE x.s > 100`,
		`SELECT count(*), a % 3 FROM t GROUP BY a % 3 HAVING count(*) > 2`,
		`SELECT a FROM t WHERE 1 + 1 = 2`,
		`SELECT a FROM t WHERE a IN (SELECT a FROM u) ORDER BY a DESC LIMIT 3`,
		`SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE t.b >= 100`,
	}
	p := New(s.Catalog())
	for _, q := range queries {
		raw := planOf(t, s, q)
		opt := p.Optimize(raw)
		a, b := rowsOf(t, s, raw), rowsOf(t, s, opt)
		if len(a) != len(b) {
			t.Errorf("%q: optimized plan changed results (%d vs %d rows)", q, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%q: row %d differs", q, i)
				break
			}
		}
	}
}

func TestPredicatePushdownIntoJoin(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	raw := planOf(t, s, `SELECT t.a FROM t JOIN u ON t.a = u.a WHERE t.b > 50 AND u.c > 1000`)
	opt := p.Optimize(raw)
	// After pushdown, some Select must sit directly above a Scan.
	pushed := 0
	algebra.Walk(opt, func(op algebra.Op) {
		if sel, ok := op.(*algebra.Select); ok {
			if _, ok := sel.Input.(*algebra.Scan); ok {
				pushed++
			}
		}
	})
	if pushed < 2 {
		t.Errorf("conjuncts not pushed to scans (pushed=%d):\n%s", pushed, algebra.Tree(opt))
	}
}

func TestNoPushdownThroughOuterJoin(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	raw := planOf(t, s, `SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.c IS NULL`)
	opt := p.Optimize(raw)
	// The IS NULL filter must NOT appear below the left join's right side.
	algebra.Walk(opt, func(op algebra.Op) {
		if j, ok := op.(*algebra.Join); ok && j.Kind == algebra.JoinLeft {
			algebra.Walk(j.Right, func(inner algebra.Op) {
				if _, bad := inner.(*algebra.Select); bad {
					t.Error("filter pushed through outer join")
				}
			})
		}
	})
	// And results stay correct.
	if len(rowsOf(t, s, raw)) != len(rowsOf(t, s, opt)) {
		t.Error("outer join results changed")
	}
}

func TestConstantFolding(t *testing.T) {
	e := algebra.Expr(&algebra.Bin{Op: sql.OpAdd,
		L: &algebra.Const{Val: value.NewInt(1)},
		R: &algebra.Bin{Op: sql.OpMul,
			L: &algebra.Const{Val: value.NewInt(2)},
			R: &algebra.Const{Val: value.NewInt(3)}}})
	folded, changed := FoldConstants(e)
	if !changed {
		t.Fatal("no folding happened")
	}
	c, ok := folded.(*algebra.Const)
	if !ok || c.Val.Int() != 7 {
		t.Errorf("folded = %v", folded)
	}
}

func TestFoldIsNull(t *testing.T) {
	e := algebra.Expr(&algebra.IsNull{E: &algebra.Const{Val: value.Null}})
	folded, _ := FoldConstants(e)
	if c, ok := folded.(*algebra.Const); !ok || !c.Val.Bool() {
		t.Errorf("folded = %v", folded)
	}
}

func TestTrivialFilterRemoved(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	opt := p.Optimize(planOf(t, s, `SELECT a FROM t WHERE 1 = 1`))
	algebra.Walk(opt, func(op algebra.Op) {
		if _, ok := op.(*algebra.Select); ok {
			t.Error("trivially-true filter must be removed")
		}
	})
}

func TestFilterMerging(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	// Nested derived table creates stacked filters after pushdown.
	opt := p.Optimize(planOf(t, s,
		`SELECT a FROM (SELECT a FROM t WHERE a > 2) AS x WHERE a < 10`))
	selects := 0
	algebra.Walk(opt, func(op algebra.Op) {
		if _, ok := op.(*algebra.Select); ok {
			selects++
		}
	})
	if selects > 1 {
		t.Errorf("filters not merged (%d selects):\n%s", selects, algebra.Tree(opt))
	}
}

func TestEstimateRows(t *testing.T) {
	s := env(t)
	p := New(s.Catalog())
	if got := p.EstimateRows(planOf(t, s, `SELECT a FROM t`)); got != 20 {
		t.Errorf("scan estimate = %v, want 20", got)
	}
	sel := p.EstimateRows(planOf(t, s, `SELECT a FROM t WHERE a > 5`))
	if sel >= 20 || sel <= 0 {
		t.Errorf("filter estimate = %v", sel)
	}
	agg := p.EstimateRows(planOf(t, s, `SELECT count(*) FROM t`))
	if agg != 1 {
		t.Errorf("scalar agg estimate = %v", agg)
	}
	join := p.EstimateRows(planOf(t, s, `SELECT 1 FROM t JOIN u ON t.a = u.a`))
	if join <= 0 || join > 20*21 {
		t.Errorf("join estimate = %v", join)
	}
	cross := p.EstimateRows(planOf(t, s, `SELECT 1 FROM t, u`))
	if cross != 20*21 {
		t.Errorf("cross estimate = %v", cross)
	}
	lim := p.EstimateRows(planOf(t, s, `SELECT a FROM t LIMIT 3`))
	if lim != 3 {
		t.Errorf("limit estimate = %v", lim)
	}
	unknown := p.EstimateRows(&algebra.Scan{Table: "nope", Sch: algebra.Schema{{Name: "x"}}})
	if unknown != 1000 {
		t.Errorf("unknown table default = %v", unknown)
	}
}

func TestOptimizeProvenancePlans(t *testing.T) {
	// The optimizer must keep provenance plans (with ProvDone etc.) correct.
	s := env(t)
	st, _ := sql.Parse(`SELECT PROVENANCE a, b FROM t WHERE a <= 3`)
	an := analyzer.New(s.Catalog())
	an.Rewrite = func(req analyzer.ProvRequest) (algebra.Op, error) {
		return req.Input, nil // identity hook for structure testing
	}
	raw, err := an.AnalyzeSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	p := New(s.Catalog())
	opt := p.Optimize(raw)
	if len(rowsOf(t, s, raw)) != len(rowsOf(t, s, opt)) {
		t.Error("results changed")
	}
}
