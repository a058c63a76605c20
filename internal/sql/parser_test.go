package sql

import (
	"strings"
	"testing"

	"perm/internal/value"
)

func parseSelect(t *testing.T, input string) *SelectStmt {
	t.Helper()
	st, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", input, st)
	}
	return sel
}

func coreOf(t *testing.T, sel *SelectStmt) *SelectCore {
	t.Helper()
	core, ok := sel.Body.(*SelectCore)
	if !ok {
		t.Fatalf("body is %T, want *SelectCore", sel.Body)
	}
	return core
}

func TestParseSimpleSelect(t *testing.T) {
	sel := parseSelect(t, "SELECT a, b AS bee FROM t WHERE a > 1")
	core := coreOf(t, sel)
	if len(core.Items) != 2 || core.Items[1].Alias != "bee" {
		t.Errorf("items = %+v", core.Items)
	}
	if core.Where == nil {
		t.Error("missing WHERE")
	}
	ref, ok := core.From[0].(*TableRef)
	if !ok || ref.Name != "t" {
		t.Errorf("from = %+v", core.From)
	}
}

func TestParseSelectProvenance(t *testing.T) {
	sel := parseSelect(t, "SELECT PROVENANCE a FROM t")
	core := coreOf(t, sel)
	if !core.Provenance || core.Contribution != DefaultContribution {
		t.Errorf("core = %+v", core)
	}
}

func TestParseContributionSemantics(t *testing.T) {
	sel := parseSelect(t, "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text FROM v")
	core := coreOf(t, sel)
	if !core.Provenance || core.Contribution != Influence {
		t.Errorf("core = %+v", core)
	}
	sel = parseSelect(t, "SELECT PROVENANCE ON CONTRIBUTION (COPY) a FROM t")
	if coreOf(t, sel).Contribution != Copy {
		t.Error("COPY not parsed")
	}
	if _, err := Parse("SELECT PROVENANCE ON CONTRIBUTION (WHATEVER) a FROM t"); err == nil {
		t.Error("unknown semantics must fail")
	}
}

func TestParseBaseRelation(t *testing.T) {
	sel := parseSelect(t, "SELECT PROVENANCE text FROM v1 BASERELATION WHERE count > 3")
	core := coreOf(t, sel)
	ref := core.From[0].(*TableRef)
	if !ref.Prov.BaseRelation {
		t.Error("BASERELATION not parsed")
	}
}

func TestParseExternalProvenance(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t AS x PROVENANCE (p1, p2) BASERELATION")
	ref := coreOf(t, sel).From[0].(*TableRef)
	if ref.Alias != "x" || !ref.Prov.HasProvAttrs || len(ref.Prov.ProvAttrs) != 2 {
		t.Errorf("ref = %+v", ref)
	}
	if !ref.Prov.BaseRelation {
		t.Error("annotations must combine in any order")
	}
}

func TestParseJoins(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM a JOIN b ON a.x = b.x
		LEFT JOIN c USING (y) CROSS JOIN d`)
	core := coreOf(t, sel)
	j1, ok := core.From[0].(*JoinExpr)
	if !ok || j1.Kind != CrossJoin {
		t.Fatalf("outermost join = %+v", core.From[0])
	}
	j2 := j1.Left.(*JoinExpr)
	if j2.Kind != LeftJoin || len(j2.Using) != 1 {
		t.Errorf("left join = %+v", j2)
	}
	j3 := j2.Left.(*JoinExpr)
	if j3.Kind != InnerJoin || j3.On == nil {
		t.Errorf("inner join = %+v", j3)
	}
}

func TestParseJoinRequiresCondition(t *testing.T) {
	if _, err := Parse("SELECT * FROM a JOIN b"); err == nil {
		t.Error("JOIN without ON/USING must fail")
	}
}

func TestParseSetOpsPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v")
	body, ok := sel.Body.(*SetOpBody)
	if !ok || body.Op != Union {
		t.Fatalf("top = %+v", sel.Body)
	}
	right, ok := body.Right.(*SetOpBody)
	if !ok || right.Op != Intersect {
		t.Errorf("INTERSECT must bind tighter than UNION, right = %+v", body.Right)
	}
}

func TestParseUnionAll(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t UNION ALL SELECT a FROM u EXCEPT SELECT a FROM w")
	body := sel.Body.(*SetOpBody)
	if body.Op != Except || body.All {
		t.Errorf("top = %+v", body)
	}
	left := body.Left.(*SetOpBody)
	if left.Op != Union || !left.All {
		t.Errorf("left = %+v", left)
	}
}

func TestParseOrderLimit(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5")
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset missing")
	}
}

func TestParseGroupHaving(t *testing.T) {
	sel := parseSelect(t, "SELECT count(*), x FROM t GROUP BY x HAVING count(*) > 2")
	core := coreOf(t, sel)
	if len(core.GroupBy) != 1 || core.Having == nil {
		t.Errorf("core = %+v", core)
	}
	fc := core.Items[0].Expr.(*FuncCall)
	if !fc.Star || fc.Name != "count" {
		t.Errorf("count(*) = %+v", fc)
	}
}

func TestParseDistinctAggregate(t *testing.T) {
	sel := parseSelect(t, "SELECT count(DISTINCT x) FROM t")
	fc := coreOf(t, sel).Items[0].Expr.(*FuncCall)
	if !fc.Distinct || len(fc.Args) != 1 {
		t.Errorf("fc = %+v", fc)
	}
}

func TestParseSubqueries(t *testing.T) {
	sel := parseSelect(t, `SELECT a FROM (SELECT a FROM t) AS s
		WHERE a IN (SELECT b FROM u)
		AND EXISTS (SELECT 1 FROM w WHERE w.x = s.a)
		AND a > (SELECT min(b) FROM u)`)
	core := coreOf(t, sel)
	if _, ok := core.From[0].(*SubqueryRef); !ok {
		t.Errorf("from = %T", core.From[0])
	}
	// WHERE is (IN AND EXISTS) AND compare.
	and1 := core.Where.(*BinExpr)
	if and1.Op != OpAnd {
		t.Fatalf("where = %+v", core.Where)
	}
}

func TestParseExpressionsPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	add := e.(*BinExpr)
	if add.Op != OpAdd {
		t.Fatalf("top = %+v", e)
	}
	if mul := add.R.(*BinExpr); mul.Op != OpMul {
		t.Errorf("right = %+v", add.R)
	}

	e, _ = ParseExpr("NOT a = b OR c")
	or := e.(*BinExpr)
	if or.Op != OpOr {
		t.Fatalf("top = %+v", e)
	}
	if not := or.L.(*UnaryExpr); not.Op != "not" {
		t.Errorf("NOT must bind tighter than OR: %+v", or.L)
	}
}

func TestParseCase(t *testing.T) {
	e, err := ParseExpr("CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END")
	if err != nil {
		t.Fatal(err)
	}
	ce := e.(*CaseExpr)
	if len(ce.Whens) != 2 || ce.Else == nil || ce.Operand != nil {
		t.Errorf("case = %+v", ce)
	}
	e, _ = ParseExpr("CASE x WHEN 1 THEN 'one' END")
	ce = e.(*CaseExpr)
	if ce.Operand == nil || len(ce.Whens) != 1 || ce.Else != nil {
		t.Errorf("operand case = %+v", ce)
	}
}

func TestParseBetweenLikeIsNull(t *testing.T) {
	e, err := ParseExpr("a BETWEEN 1 AND 10 AND b NOT LIKE 'x%' AND c IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	// top-level AND chain of three comparisons
	and := e.(*BinExpr)
	if and.Op != OpAnd {
		t.Fatalf("top = %+v", e)
	}
	if isn := and.R.(*IsNullExpr); !isn.Not {
		t.Errorf("IS NOT NULL = %+v", and.R)
	}
}

func TestParseIsDistinctFrom(t *testing.T) {
	e, err := ParseExpr("a IS NOT DISTINCT FROM b")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*BinExpr)
	if b.Op != OpNotDistinct {
		t.Errorf("got %+v", e)
	}
	e, _ = ParseExpr("a IS DISTINCT FROM b")
	u := e.(*UnaryExpr)
	if u.Op != "not" {
		t.Errorf("IS DISTINCT FROM must negate: %+v", e)
	}
}

func TestParseInList(t *testing.T) {
	e, err := ParseExpr("x NOT IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	in := e.(*InExpr)
	if !in.Not || len(in.List) != 3 {
		t.Errorf("in = %+v", in)
	}
}

func TestParseCast(t *testing.T) {
	e, err := ParseExpr("CAST(x AS integer)")
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*CastExpr)
	if c.TypeName != "integer" {
		t.Errorf("cast = %+v", c)
	}
}

func TestParseLiterals(t *testing.T) {
	cases := map[string]value.Value{
		"42":    value.NewInt(42),
		"-7":    value.NewInt(-7),
		"3.25":  value.NewFloat(3.25),
		"'txt'": value.NewString("txt"),
		"TRUE":  value.NewBool(true),
		"false": value.NewBool(false),
		"NULL":  value.Null,
	}
	for in, want := range cases {
		e, err := ParseExpr(in)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", in, err)
			continue
		}
		lit, ok := e.(*Literal)
		if !ok {
			t.Errorf("ParseExpr(%q) = %T", in, e)
			continue
		}
		if lit.Val.Kind() != want.Kind() || (!want.IsNull() && value.Distinct(lit.Val, want)) {
			t.Errorf("ParseExpr(%q) = %v, want %v", in, lit.Val, want)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE t (a int NOT NULL, b varchar(20), c double precision)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if len(ct.Columns) != 3 || !ct.Columns[0].NotNull || ct.Columns[2].TypeName != "double precision" {
		t.Errorf("create = %+v", ct)
	}
}

func TestParseCreateTableAs(t *testing.T) {
	st, err := Parse("CREATE TABLE p AS SELECT PROVENANCE a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.AsSelect == nil {
		t.Error("CTAS select missing")
	}
}

func TestParseCreateView(t *testing.T) {
	st, err := Parse("CREATE VIEW v AS SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	cv := st.(*CreateViewStmt)
	if cv.Name != "v" || cv.Text == "" {
		t.Errorf("view = %+v", cv)
	}
	// The stored text must re-parse.
	if _, err := Parse(cv.Text); err != nil {
		t.Errorf("stored view text %q does not parse: %v", cv.Text, err)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	st, err = Parse("INSERT INTO t SELECT * FROM u")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*InsertStmt).Select == nil {
		t.Error("INSERT SELECT missing")
	}
}

func TestParseDeleteUpdate(t *testing.T) {
	st, err := Parse("DELETE FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DeleteStmt).Where == nil {
		t.Error("where missing")
	}
	st, err = Parse("UPDATE t SET a = a + 1, b = 'x' WHERE b IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if len(up.Sets) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
}

func TestParseSetShowExplain(t *testing.T) {
	st, err := Parse("SET provenance_contribution = 'copy'")
	if err != nil {
		t.Fatal(err)
	}
	if s := st.(*SetStmt); s.Name != "provenance_contribution" || s.Value != "copy" {
		t.Errorf("set = %+v", s)
	}
	st, _ = Parse("SHOW optimizer")
	if st.(*ShowStmt).Name != "optimizer" {
		t.Error("show")
	}
	st, err = Parse("EXPLAIN ANALYZE SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*ExplainStmt).Analyze {
		t.Error("explain analyze flag")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("SELECT 1; SELECT 2;; SELECT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("got %d statements", len(stmts))
	}
}

func TestParseValues(t *testing.T) {
	sel := parseSelect(t, "VALUES (1, 'a'), (2, 'b')")
	body, ok := sel.Body.(*SetOpBody)
	if !ok || body.Op != Union || !body.All {
		t.Fatalf("VALUES desugars to UNION ALL, got %+v", sel.Body)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a t ORDER",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"INSERT INTO",
		"SELECT a FROM t GROUP",
		"SELECT CASE END",
		"FOO BAR",
		"SELECT 1 2 3",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseSchemaQualified(t *testing.T) {
	sel := parseSelect(t, "SELECT public.s.i FROM public.s")
	core := coreOf(t, sel)
	if ref := core.From[0].(*TableRef); ref.Name != "s" {
		t.Errorf("schema qualifier must drop: %+v", ref)
	}
	cr := core.Items[0].Expr.(*ColRef)
	if cr.Table != "s" || cr.Name != "i" {
		t.Errorf("colref = %+v", cr)
	}
}

// TestFormatRoundTrip checks that printing and re-parsing a statement yields
// a stable fixpoint (format(parse(format(parse(q)))) == format(parse(q))).
func TestFormatRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT a, b AS bee FROM t WHERE (a > 1) AND (b LIKE 'x%')`,
		`SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`,
		`SELECT PROVENANCE ON CONTRIBUTION (COPY) a FROM t BASERELATION`,
		`SELECT count(*), x FROM t GROUP BY x HAVING count(*) > 2 ORDER BY x DESC LIMIT 3`,
		`SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y`,
		`SELECT a FROM (SELECT a FROM t) AS s PROVENANCE (a)`,
		`SELECT CASE WHEN a IS NULL THEN 0 ELSE a END FROM t`,
		`SELECT a FROM t WHERE a IN (SELECT b FROM u) AND EXISTS (SELECT 1 FROM w)`,
		`SELECT a FROM t WHERE a BETWEEN 1 AND 2 OR a IS NOT NULL`,
		`INSERT INTO t (a) VALUES (1), (2)`,
		`CREATE VIEW v AS SELECT a FROM t`,
		`UPDATE t SET a = 1 WHERE b = 'x'`,
		`DELETE FROM t WHERE a IS NULL`,
		`SELECT a FROM t INTERSECT ALL SELECT a FROM u`,
		`SELECT DISTINCT a, sum(b) FROM t GROUP BY a`,
		`SELECT CAST(a AS float) FROM t WHERE x IS NOT DISTINCT FROM y`,
	}
	for _, q := range queries {
		st1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		f1 := FormatStatement(st1)
		st2, err := Parse(f1)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v\nformatted: %s", q, err, f1)
			continue
		}
		f2 := FormatStatement(st2)
		if f1 != f2 {
			t.Errorf("format not a fixpoint:\n1: %s\n2: %s", f1, f2)
		}
	}
}

func TestFormatQuotesReservedIdents(t *testing.T) {
	st, err := Parse(`SELECT "select", "Mixed" FROM "order"`)
	if err != nil {
		t.Fatal(err)
	}
	f := FormatStatement(st)
	if !strings.Contains(f, `"select"`) || !strings.Contains(f, `"Mixed"`) || !strings.Contains(f, `"order"`) {
		t.Errorf("formatted: %s", f)
	}
}
