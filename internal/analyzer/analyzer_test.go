package analyzer

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/value"
)

// testCatalog builds: t(a int, b text), u(a int, c float), and a view
// v AS SELECT a FROM t.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.CreateTable(&catalog.TableDef{Name: "t", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindString},
	}}))
	must(c.CreateTable(&catalog.TableDef{Name: "u", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt},
		{Name: "c", Type: value.KindFloat},
	}}))
	must(c.CreateView(&catalog.ViewDef{Name: "v", Text: "SELECT a FROM t"}))
	return c
}

func analyze(t *testing.T, input string) (algebra.Op, error) {
	t.Helper()
	st, err := sql.Parse(input)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(testCatalog(t)).AnalyzeSelect(st.(*sql.SelectStmt))
}

func mustAnalyze(t *testing.T, input string) algebra.Op {
	t.Helper()
	op, err := analyze(t, input)
	if err != nil {
		t.Fatalf("analyze(%q): %v", input, err)
	}
	return op
}

func TestResolveSimple(t *testing.T) {
	op := mustAnalyze(t, "SELECT a, b FROM t")
	sch := op.Schema()
	if len(sch) != 2 || sch[0].Name != "a" || sch[0].Type != value.KindInt ||
		sch[1].Type != value.KindString {
		t.Errorf("schema = %v", sch)
	}
}

func TestResolveQualifiedAndAlias(t *testing.T) {
	op := mustAnalyze(t, "SELECT x.a, x.b AS bee FROM t AS x")
	sch := op.Schema()
	if sch[1].Name != "bee" {
		t.Errorf("schema = %v", sch)
	}
	if _, err := analyze(t, "SELECT t.a FROM t AS x"); err == nil {
		t.Error("original name must be hidden by alias")
	}
}

func TestResolveAmbiguous(t *testing.T) {
	_, err := analyze(t, "SELECT a FROM t, u")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("err = %v", err)
	}
	// Qualification disambiguates.
	mustAnalyze(t, "SELECT t.a, u.a FROM t, u")
}

func TestResolveMissing(t *testing.T) {
	_, err := analyze(t, "SELECT zz FROM t")
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("err = %v", err)
	}
	_, err = analyze(t, "SELECT a FROM missing")
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("err = %v", err)
	}
}

func TestStarExpansion(t *testing.T) {
	op := mustAnalyze(t, "SELECT * FROM t, u")
	if len(op.Schema()) != 4 {
		t.Errorf("schema = %v", op.Schema())
	}
	op = mustAnalyze(t, "SELECT u.* FROM t, u")
	if len(op.Schema()) != 2 || op.Schema()[1].Name != "c" {
		t.Errorf("schema = %v", op.Schema())
	}
	if _, err := analyze(t, "SELECT w.* FROM t"); err == nil {
		t.Error("star on unknown relation must fail")
	}
}

func TestViewUnfolding(t *testing.T) {
	op := mustAnalyze(t, "SELECT a FROM v WHERE a > 1")
	found := false
	algebra.Walk(op, func(o algebra.Op) {
		if s, ok := o.(*algebra.Scan); ok && s.Table == "t" {
			found = true
		}
	})
	if !found {
		t.Error("view must unfold to a scan of t")
	}
}

func TestRecursiveViewDetected(t *testing.T) {
	c := testCatalog(t)
	if err := c.CreateView(&catalog.ViewDef{Name: "rec", Text: "SELECT a FROM rec"}); err != nil {
		t.Fatal(err)
	}
	st, _ := sql.Parse("SELECT a FROM rec")
	_, err := New(c).AnalyzeSelect(st.(*sql.SelectStmt))
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Errorf("err = %v", err)
	}
}

func TestAggregationShape(t *testing.T) {
	op := mustAnalyze(t, "SELECT b, count(*), sum(a) FROM t GROUP BY b HAVING count(*) > 1")
	// Expect Project over Select(HAVING) over Agg.
	proj, ok := op.(*algebra.Project)
	if !ok {
		t.Fatalf("top = %T", op)
	}
	sel, ok := proj.Input.(*algebra.Select)
	if !ok {
		t.Fatalf("below project = %T", proj.Input)
	}
	agg, ok := sel.Input.(*algebra.Agg)
	if !ok {
		t.Fatalf("below having = %T", sel.Input)
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Errorf("agg = %+v", agg)
	}
}

func TestAggregateDeduplication(t *testing.T) {
	op := mustAnalyze(t, "SELECT count(*), count(*) + 1 FROM t")
	var agg *algebra.Agg
	algebra.Walk(op, func(o algebra.Op) {
		if a, ok := o.(*algebra.Agg); ok {
			agg = a
		}
	})
	if agg == nil || len(agg.Aggs) != 1 {
		t.Errorf("count(*) must be computed once, agg = %+v", agg)
	}
}

func TestBareColumnOutsideGroupByRejected(t *testing.T) {
	_, err := analyze(t, "SELECT a, count(*) FROM t GROUP BY b")
	if err == nil || !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("err = %v", err)
	}
}

func TestGroupByExpressionMatch(t *testing.T) {
	// A whole expression matching a group expression is allowed.
	mustAnalyze(t, "SELECT a + 1, count(*) FROM t GROUP BY a + 1")
	if _, err := analyze(t, "SELECT a + 2, count(*) FROM t GROUP BY a + 1"); err == nil {
		t.Error("non-matching expression must fail")
	}
}

func TestGroupByPositionAndAlias(t *testing.T) {
	mustAnalyze(t, "SELECT b, count(*) FROM t GROUP BY 1")
	mustAnalyze(t, "SELECT b AS grp, count(*) FROM t GROUP BY grp")
	if _, err := analyze(t, "SELECT b, count(*) FROM t GROUP BY 5"); err == nil {
		t.Error("position out of range must fail")
	}
}

// TestGroupByRefusesAggregates: a group expression is analyzed with
// aggregates disallowed, so an aggregate in GROUP BY is refused there, by
// name, however it is reached: written out, through a select-list alias or
// by position.
func TestGroupByRefusesAggregates(t *testing.T) {
	const want = "GROUP BY: aggregate function count is not allowed here"
	for _, q := range []string{
		"SELECT count(*) FROM t GROUP BY count(*)",
		"SELECT count(*) AS n FROM t GROUP BY n",
		"SELECT b, count(*) FROM t GROUP BY 2",
	} {
		if _, err := analyze(t, q); err == nil || err.Error() != want {
			t.Errorf("analyze(%q) error = %v, want %q", q, err, want)
		}
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	_, err := analyze(t, "SELECT a FROM t WHERE count(*) > 1")
	if err == nil {
		t.Errorf("aggregate in WHERE must fail")
	}
}

func TestNestedAggregateRejected(t *testing.T) {
	_, err := analyze(t, "SELECT sum(count(*)) FROM t")
	if err == nil {
		t.Error("nested aggregates must fail")
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	op := mustAnalyze(t, "SELECT b FROM t ORDER BY a")
	// Output schema must not contain the hidden sort column.
	if len(op.Schema()) != 1 || op.Schema()[0].Name != "b" {
		t.Errorf("schema = %v", op.Schema())
	}
	// But a Sort node must exist below.
	foundSort := false
	algebra.Walk(op, func(o algebra.Op) {
		if _, ok := o.(*algebra.Sort); ok {
			foundSort = true
		}
	})
	if !foundSort {
		t.Error("sort missing")
	}
}

func TestOrderByDistinctRestriction(t *testing.T) {
	_, err := analyze(t, "SELECT DISTINCT b FROM t ORDER BY a")
	if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
		t.Errorf("err = %v", err)
	}
}

func TestOrderByPosition(t *testing.T) {
	mustAnalyze(t, "SELECT a, b FROM t ORDER BY 2 DESC")
	if _, err := analyze(t, "SELECT a FROM t ORDER BY 3"); err == nil {
		t.Error("position out of range must fail")
	}
}

func TestWhereMustBeBoolean(t *testing.T) {
	_, err := analyze(t, "SELECT a FROM t WHERE a + 1")
	if err == nil || !strings.Contains(err.Error(), "boolean") {
		t.Errorf("err = %v", err)
	}
}

func TestSetOpArity(t *testing.T) {
	_, err := analyze(t, "SELECT a, b FROM t UNION SELECT a FROM u")
	if err == nil || !strings.Contains(err.Error(), "same number of columns") {
		t.Errorf("err = %v", err)
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	op := mustAnalyze(t, "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)")
	foundOuter := false
	algebra.Walk(op, func(o algebra.Op) {
		if s, ok := o.(*algebra.Select); ok {
			if sp, ok2 := s.Cond.(*algebra.Subplan); ok2 && sp.Correlated {
				foundOuter = true
			}
		}
	})
	if !foundOuter {
		t.Error("correlated subplan not detected")
	}
}

func TestUncorrelatedSubqueryNotFlagged(t *testing.T) {
	op := mustAnalyze(t, "SELECT a FROM t WHERE a IN (SELECT a FROM u)")
	algebra.Walk(op, func(o algebra.Op) {
		if s, ok := o.(*algebra.Select); ok {
			if sp, ok2 := s.Cond.(*algebra.Subplan); ok2 && sp.Correlated {
				t.Error("uncorrelated subquery flagged correlated")
			}
		}
	})
}

func TestTwoLevelsUpRejected(t *testing.T) {
	_, err := analyze(t, `SELECT a FROM t WHERE EXISTS (
		SELECT 1 FROM u WHERE EXISTS (SELECT 1 FROM v WHERE v.a = t.a))`)
	if err == nil || !strings.Contains(err.Error(), "one level") {
		t.Errorf("err = %v", err)
	}
}

func TestScalarSubqueryColumnCount(t *testing.T) {
	_, err := analyze(t, "SELECT a FROM t WHERE a = (SELECT a, c FROM u)")
	if err == nil || !strings.Contains(err.Error(), "one column") {
		t.Errorf("err = %v", err)
	}
}

func TestUsingJoin(t *testing.T) {
	op := mustAnalyze(t, "SELECT t.a, u.c FROM t JOIN u USING (a)")
	var join *algebra.Join
	algebra.Walk(op, func(o algebra.Op) {
		if j, ok := o.(*algebra.Join); ok {
			join = j
		}
	})
	if join == nil || join.Cond == nil {
		t.Fatal("USING must desugar to an equality condition")
	}
	if _, err := analyze(t, "SELECT 1 FROM t JOIN u USING (b)"); err == nil {
		t.Error("USING column must exist on both sides")
	}
}

func TestProvenanceWithoutRewriterFails(t *testing.T) {
	_, err := analyze(t, "SELECT PROVENANCE a FROM t")
	if err == nil || !strings.Contains(err.Error(), "rewriter") {
		t.Errorf("err = %v", err)
	}
}

func TestRewriteHookInvoked(t *testing.T) {
	c := testCatalog(t)
	an := New(c)
	calls := 0
	an.Rewrite = func(req ProvRequest) (algebra.Op, error) {
		calls++
		if req.Contribution != sql.Copy {
			t.Errorf("contribution = %v, want COPY", req.Contribution)
		}
		return req.Input, nil
	}
	st, _ := sql.Parse("SELECT PROVENANCE ON CONTRIBUTION (COPY) a FROM t")
	if _, err := an.AnalyzeSelect(st.(*sql.SelectStmt)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("hook called %d times", calls)
	}
}

func TestStripProvenance(t *testing.T) {
	c := testCatalog(t)
	an := New(c)
	an.StripProvenance = true
	st, _ := sql.Parse("SELECT PROVENANCE a FROM t")
	op, err := an.AnalyzeSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	algebra.Walk(op, func(o algebra.Op) {
		if _, ok := o.(*algebra.ProvDone); ok {
			t.Error("StripProvenance must not produce ProvDone nodes")
		}
	})
}

func TestExternalProvSpec(t *testing.T) {
	c := testCatalog(t)
	an := New(c)
	st, _ := sql.Parse("SELECT a, b FROM t PROVENANCE (b)")
	op, err := an.AnalyzeSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	// The b column must be flagged as provenance in the FROM item, and
	// selected through.
	sch := op.Schema()
	if !sch[1].IsProv || sch[1].ProvRel != "t" {
		t.Errorf("schema = %+v", sch)
	}
	// Unknown attribute errors.
	st, _ = sql.Parse("SELECT a FROM t PROVENANCE (zz)")
	if _, err := an.AnalyzeSelect(st.(*sql.SelectStmt)); err == nil {
		t.Error("unknown provenance attribute must fail")
	}
}

func TestBaseRelationNode(t *testing.T) {
	op := mustAnalyze(t, "SELECT a FROM v BASERELATION")
	found := false
	algebra.Walk(op, func(o algebra.Op) {
		if _, ok := o.(*algebra.BaseRel); ok {
			found = true
		}
	})
	if !found {
		t.Error("BASERELATION must produce a BaseRel node")
	}
}

func TestLimitOffset(t *testing.T) {
	op := mustAnalyze(t, "SELECT a FROM t LIMIT 5 OFFSET 2")
	lim, ok := op.(*algebra.Limit)
	if !ok || lim.Count != 5 || lim.Offset != 2 {
		t.Errorf("op = %+v", op)
	}
	if _, err := analyze(t, "SELECT a FROM t LIMIT a"); err == nil {
		t.Error("non-constant LIMIT must fail")
	}
}

func TestFromlessSelect(t *testing.T) {
	op := mustAnalyze(t, "SELECT 1 + 2 AS three")
	sch := op.Schema()
	if len(sch) != 1 || sch[0].Name != "three" {
		t.Errorf("schema = %v", sch)
	}
}

func TestCaseTypeInference(t *testing.T) {
	op := mustAnalyze(t, "SELECT CASE WHEN a > 0 THEN 1 ELSE 2.5 END FROM t")
	if op.Schema()[0].Type != value.KindFloat {
		t.Errorf("case type = %v, want float", op.Schema()[0].Type)
	}
}

func TestFunctionArity(t *testing.T) {
	if _, err := analyze(t, "SELECT substr(b) FROM t"); err == nil {
		t.Error("substr/1 must fail")
	}
	if _, err := analyze(t, "SELECT nosuchfn(a) FROM t"); err == nil {
		t.Error("unknown function must fail")
	}
}

func TestAnalyzeExprStandalone(t *testing.T) {
	an := New(testCatalog(t))
	sch := algebra.Schema{{Name: "x", Type: value.KindInt}}
	e, err := sql.ParseExpr("x * 2 > 4")
	if err != nil {
		t.Fatal(err)
	}
	re, err := an.AnalyzeExpr(e, sch)
	if err != nil {
		t.Fatal(err)
	}
	if re.Type() != value.KindBool {
		t.Errorf("type = %v", re.Type())
	}
}
