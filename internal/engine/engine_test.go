package engine

import (
	"strings"
	"testing"

	"perm/internal/sql"
	"perm/internal/value"
)

func session(t *testing.T) *Session {
	t.Helper()
	return NewDB().NewSession()
}

func exec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b text NOT NULL)`)
	res := exec(t, s, `INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	if res.Tag != "INSERT 2" {
		t.Errorf("tag = %s", res.Tag)
	}
	res = exec(t, s, `SELECT * FROM t ORDER BY a`)
	if len(res.Rows) != 2 || res.Rows[0][1].Str() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Tag != "SELECT 2" {
		t.Errorf("tag = %s", res.Tag)
	}
}

func TestInsertColumnList(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b text, c int)`)
	exec(t, s, `INSERT INTO t (c, a) VALUES (30, 1)`)
	res := exec(t, s, `SELECT a, b, c FROM t`)
	if res.Rows[0][0].Int() != 1 || !res.Rows[0][1].IsNull() || res.Rows[0][2].Int() != 30 {
		t.Errorf("row = %v", res.Rows[0])
	}
	if _, err := s.Execute(`INSERT INTO t (zz) VALUES (1)`); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestInsertSelect(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE src (a int)`)
	exec(t, s, `CREATE TABLE dst (a int)`)
	exec(t, s, `INSERT INTO src VALUES (1), (2), (3)`)
	res := exec(t, s, `INSERT INTO dst SELECT a * 10 FROM src WHERE a > 1`)
	if res.Tag != "INSERT 2" {
		t.Errorf("tag = %s", res.Tag)
	}
}

func TestNotNullEnforced(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int NOT NULL)`)
	if _, err := s.Execute(`INSERT INTO t VALUES (NULL)`); err == nil {
		t.Error("NOT NULL must be enforced")
	}
}

func TestDeleteUpdate(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b int)`)
	exec(t, s, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	res := exec(t, s, `UPDATE t SET b = b + 1 WHERE a >= 2`)
	if res.Tag != "UPDATE 2" {
		t.Errorf("tag = %s", res.Tag)
	}
	res = exec(t, s, `DELETE FROM t WHERE b = 21`)
	if res.Tag != "DELETE 1" {
		t.Errorf("tag = %s", res.Tag)
	}
	res = exec(t, s, `SELECT sum(b) FROM t`)
	if res.Rows[0][0].Int() != 41 {
		t.Errorf("sum = %v", res.Rows[0])
	}
}

func TestDropAndIfExists(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `DROP TABLE t`)
	if _, err := s.Execute(`DROP TABLE t`); err == nil {
		t.Error("double drop must fail")
	}
	exec(t, s, `DROP TABLE IF EXISTS t`)
	exec(t, s, `CREATE VIEW v AS SELECT 1 AS one`)
	exec(t, s, `DROP VIEW v`)
	exec(t, s, `DROP VIEW IF EXISTS v`)
}

func TestViewLifecycle(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1), (2)`)
	exec(t, s, `CREATE VIEW doubled AS SELECT a * 2 AS d FROM t`)
	res := exec(t, s, `SELECT d FROM doubled ORDER BY d`)
	if len(res.Rows) != 2 || res.Rows[1][0].Int() != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Views see later inserts (unfolded at use).
	exec(t, s, `INSERT INTO t VALUES (5)`)
	res = exec(t, s, `SELECT count(*) FROM doubled`)
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("count = %v", res.Rows[0])
	}
	if _, err := s.Execute(`CREATE VIEW bad AS SELECT zz FROM t`); err == nil {
		t.Error("invalid view definition must fail at CREATE")
	}
}

func TestSettingsValidation(t *testing.T) {
	s := session(t)
	exec(t, s, `SET provenance_contribution = 'copy'`)
	res := exec(t, s, `SHOW provenance_contribution`)
	if res.Rows[0][0].Str() != "copy" {
		t.Errorf("setting = %v", res.Rows[0])
	}
	if _, err := s.Execute(`SET provenance_contribution = 'bogus'`); err == nil {
		t.Error("invalid setting value must fail")
	}
	if _, err := s.Execute(`SET nonsense = 'x'`); err == nil {
		t.Error("unknown setting must fail")
	}
	if _, err := s.Execute(`SHOW nonsense`); err == nil {
		t.Error("unknown SHOW must fail")
	}
}

func TestSessionIsolation(t *testing.T) {
	db := NewDB()
	s1, s2 := db.NewSession(), db.NewSession()
	if _, err := s1.Execute(`SET optimizer = 'off'`); err != nil {
		t.Fatal(err)
	}
	if s2.Setting("optimizer") != "on" {
		t.Error("settings must be per-session")
	}
	// But data is shared.
	if _, err := s1.Execute(`CREATE TABLE shared (a int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Execute(`INSERT INTO shared VALUES (1)`); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultContributionSetting(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b int)`)
	exec(t, s, `INSERT INTO t VALUES (1, 2)`)
	exec(t, s, `SET provenance_contribution = 'copy'`)
	// Without ON CONTRIBUTION the session default applies: b is not copied,
	// so its provenance attribute is masked.
	res := exec(t, s, `SELECT PROVENANCE a FROM t`)
	bIdx := -1
	for i, c := range res.Columns {
		if c == "prov_public_t_b" {
			bIdx = i
		}
	}
	if bIdx < 0 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if !res.Rows[0][bIdx].IsNull() {
		t.Errorf("COPY default not applied: %v", res.Rows[0])
	}
	// Explicit ON CONTRIBUTION (INFLUENCE) overrides the session default.
	res = exec(t, s, `SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) a FROM t`)
	if res.Rows[0][bIdx].IsNull() {
		t.Errorf("explicit INFLUENCE not applied: %v", res.Rows[0])
	}
}

func TestEagerProvenanceCTAS(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b int)`)
	exec(t, s, `INSERT INTO t VALUES (1, 10), (1, 20), (2, 30)`)
	exec(t, s, `CREATE TABLE p AS SELECT PROVENANCE sum(b), a FROM t GROUP BY a`)
	res := exec(t, s, `SELECT count(*) FROM p`)
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("materialized witness rows = %v", res.Rows[0])
	}
	// Stored provenance is a plain table with prov_ columns.
	res = exec(t, s, `SELECT prov_public_t_b FROM p WHERE a = 1 ORDER BY 1`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 10 || res.Rows[1][0].Int() != 20 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCTASDuplicateColumnNames(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	// Star over a self-join duplicates the column name "a".
	exec(t, s, `CREATE TABLE dup AS SELECT * FROM t AS x, t AS y`)
	def := s.db.Catalog().Table("dup")
	if def.Columns[0].Name == def.Columns[1].Name {
		t.Errorf("CTAS must deduplicate column names: %+v", def.Columns)
	}
}

func TestExplainStatement(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	res := exec(t, s, `EXPLAIN SELECT PROVENANCE a FROM t`)
	text := ""
	for _, row := range res.Rows {
		text += row[0].Str() + "\n"
	}
	for _, want := range []string{"Original algebra tree", "Rewritten algebra tree", "Rewritten SQL", "prov_public_t_a"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	res = exec(t, s, `EXPLAIN ANALYZE SELECT a FROM t`)
	text = ""
	for _, row := range res.Rows {
		text += row[0].Str() + "\n"
	}
	if !strings.Contains(text, "Stage timings") || !strings.Contains(text, "Rows: 1") {
		t.Errorf("EXPLAIN ANALYZE output:\n%s", text)
	}
}

func TestExplainRewrittenSQLRuns(t *testing.T) {
	// The rewritten SQL shown in the browser must itself execute and produce
	// the same rows as the provenance query (round-trip through the SQL
	// generator).
	s := session(t)
	exec(t, s, `CREATE TABLE r (i int)`)
	exec(t, s, `CREATE TABLE s2 (i int)`)
	exec(t, s, `INSERT INTO r VALUES (1), (2)`)
	exec(t, s, `INSERT INTO s2 VALUES (1), (2), (3)`)
	q := `SELECT PROVENANCE r.i FROM r JOIN s2 ON r.i = s2.i`
	st, _ := sql.Parse(q)
	ex, err := s.Explain(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	direct := exec(t, s, q)
	roundtrip := exec(t, s, ex.RewrittenSQL)
	if len(direct.Rows) != len(roundtrip.Rows) {
		t.Fatalf("rewritten SQL returns %d rows, direct %d", len(roundtrip.Rows), len(direct.Rows))
	}
	for i := range direct.Rows {
		if direct.Rows[i].Key() != roundtrip.Rows[i].Key() {
			t.Errorf("row %d differs: %v vs %v", i, direct.Rows[i], roundtrip.Rows[i])
		}
	}
}

func TestAnalyzeStatement(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1), (2)`)
	exec(t, s, `ANALYZE t`)
	if s.db.Catalog().TableStats("t").RowCount != 2 {
		t.Error("ANALYZE did not refresh stats")
	}
	exec(t, s, `ANALYZE`)
}

func TestScriptStopsOnError(t *testing.T) {
	s := session(t)
	results, err := s.ExecuteScript(`
		CREATE TABLE t (a int);
		INSERT INTO t VALUES (1);
		SELECT zz FROM t;
		INSERT INTO t VALUES (2);
	`)
	if err == nil {
		t.Fatal("script error must propagate")
	}
	if len(results) != 2 {
		t.Errorf("partial results = %d, want 2", len(results))
	}
	res := exec(t, s, `SELECT count(*) FROM t`)
	if res.Rows[0][0].Int() != 1 {
		t.Error("statement after error must not run")
	}
}

func TestTimingsPopulated(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	res := exec(t, s, `SELECT PROVENANCE a FROM t`)
	if res.Timings.Analyze <= 0 || res.Timings.Execute <= 0 {
		t.Errorf("timings = %+v", res.Timings)
	}
	if res.Timings.Rewrite <= 0 {
		t.Errorf("rewrite time missing: %+v", res.Timings)
	}
	if res.Timings.Total() <= 0 {
		t.Error("total must be positive")
	}
}

func TestOptimizerToggle(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	exec(t, s, `SET optimizer = 'off'`)
	res := exec(t, s, `SELECT a FROM t WHERE a > 1 ORDER BY a`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestValuesKindInResult(t *testing.T) {
	s := session(t)
	res := exec(t, s, `SELECT 1 AS a, 'x' AS b, 2.5 AS c, NULL AS d, TRUE AS e`)
	kinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindNull, value.KindBool}
	for i, k := range kinds {
		if res.Rows[0][i].Kind() != k {
			t.Errorf("column %d kind = %v, want %v", i, res.Rows[0][i].Kind(), k)
		}
	}
}
