package engine

import (
	"strings"
	"testing"
)

// sqllogic_test.go is a compact sqllogictest-style battery: each case runs a
// setup script and asserts the rendered rows of one query. It covers SQL
// surface breadth cheaply — one behavior per case.

// renderRows canonicalizes a result: one line per row, cells joined by '|'.
func renderRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

const logicSetup = `
	CREATE TABLE nums (n int, s text);
	INSERT INTO nums VALUES (1, 'one'), (2, 'two'), (3, 'three'), (4, NULL), (NULL, 'none');
	CREATE TABLE pairs (a int, b int);
	INSERT INTO pairs VALUES (1, 1), (1, 2), (2, 4), (3, 9);
`

func TestSQLLogic(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  string
	}{
		{"arith precedence", `SELECT 2 + 3 * 4`, "14"},
		{"int division", `SELECT 7 / 2`, "3"},
		{"float division", `SELECT 7.0 / 2`, "3.5"},
		{"modulo", `SELECT 7 % 3`, "1"},
		{"concat operator", `SELECT 'a' || 'b' || 'c'`, "abc"},
		{"concat null", `SELECT 'a' || NULL IS NULL`, "true"},
		{"case searched", `SELECT CASE WHEN 1 > 2 THEN 'x' ELSE 'y' END`, "y"},
		{"case operand", `SELECT CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END`, "b"},
		{"cast text to int", `SELECT CAST('41' AS int) + 1`, "42"},
		{"between", `SELECT n FROM nums WHERE n BETWEEN 2 AND 3 ORDER BY n`, "2\n3"},
		{"not between", `SELECT n FROM nums WHERE n NOT BETWEEN 2 AND 3 ORDER BY n`, "1\n4"},
		{"like prefix", `SELECT s FROM nums WHERE s LIKE 't%' ORDER BY s`, "three\ntwo"},
		{"like underscore", `SELECT s FROM nums WHERE s LIKE '_ne' ORDER BY s`, "one"},
		{"in list", `SELECT n FROM nums WHERE n IN (1, 3, 5) ORDER BY n`, "1\n3"},
		{"is null", `SELECT s FROM nums WHERE n IS NULL`, "none"},
		{"is not null count", `SELECT count(n) FROM nums`, "4"},
		{"count star vs col", `SELECT count(*), count(n), count(s) FROM nums`, "5|4|4"},
		{"sum avg", `SELECT sum(n), avg(n) FROM nums`, "10|2.5"},
		{"min max", `SELECT min(n), max(n) FROM nums`, "1|4"},
		{"count distinct", `SELECT count(DISTINCT a) FROM pairs`, "3"},
		{"sum distinct", `SELECT sum(DISTINCT a) FROM pairs`, "6"},
		{"distinct aggregates over empty", `SELECT count(DISTINCT a), sum(DISTINCT a) FROM pairs WHERE a > 100`, "0|null"},
		{"distinct aggregates of all-null group", `SELECT s, count(DISTINCT n), sum(DISTINCT n), count(*) FROM nums WHERE s = 'none' GROUP BY s`, "none|0|null|1"},
		{"min max distinct", `SELECT a, min(DISTINCT b), count(DISTINCT b), max(DISTINCT b) FROM pairs GROUP BY a ORDER BY a`, "1|1|2|2\n2|4|1|4\n3|9|1|9"},
		{"distinct aggregate in subquery", `SELECT n FROM nums WHERE n = (SELECT count(DISTINCT a) FROM pairs)`, "3"},
		{"group by having", `SELECT a, count(*) FROM pairs GROUP BY a HAVING count(*) > 1`, "1|2"},
		{"group by expression", `SELECT n % 2, count(*) FROM nums WHERE n IS NOT NULL GROUP BY n % 2 ORDER BY 1`, "0|2\n1|2"},
		{"order by desc nulls", `SELECT n FROM nums ORDER BY n DESC`, "4\n3\n2\n1\nnull"},
		{"order by asc nulls first", `SELECT n FROM nums ORDER BY n`, "null\n1\n2\n3\n4"},
		{"limit offset", `SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2 OFFSET 1`, "2\n3"},
		{"distinct", `SELECT DISTINCT a FROM pairs ORDER BY a`, "1\n2\n3"},
		{"union distinct", `SELECT a FROM pairs UNION SELECT b FROM pairs ORDER BY 1`, "1\n2\n3\n4\n9"},
		{"union all count", `SELECT count(*) FROM (SELECT a FROM pairs UNION ALL SELECT b FROM pairs) AS u`, "8"},
		{"intersect", `SELECT a FROM pairs INTERSECT SELECT b FROM pairs ORDER BY 1`, "1\n2"},
		{"except", `SELECT b FROM pairs EXCEPT SELECT a FROM pairs ORDER BY 1`, "4\n9"},
		{"cross join count", `SELECT count(*) FROM nums, pairs`, "20"},
		{"inner join", `SELECT s FROM nums JOIN pairs ON nums.n = pairs.b WHERE pairs.a = 1 ORDER BY s`, "one\ntwo"},
		{"left join null pad", `SELECT nums.n, pairs.b FROM nums LEFT JOIN pairs ON nums.n = pairs.a AND pairs.b > 3 ORDER BY nums.n`, "null|null\n1|null\n2|4\n3|9\n4|null"},
		{"using join", `SELECT count(*) FROM pairs p1 JOIN pairs p2 USING (a)`, "6"},
		{"scalar subquery", `SELECT (SELECT max(b) FROM pairs)`, "9"},
		{"exists", `SELECT n FROM nums WHERE EXISTS (SELECT 1 FROM pairs WHERE pairs.a = nums.n) ORDER BY n`, "1\n2\n3"},
		{"not exists", `SELECT n FROM nums WHERE n IS NOT NULL AND NOT EXISTS (SELECT 1 FROM pairs WHERE pairs.a = nums.n)`, "4"},
		{"in subquery", `SELECT n FROM nums WHERE n IN (SELECT b FROM pairs) ORDER BY n`, "1\n2\n4"},
		{"not in with null needle", `SELECT count(*) FROM nums WHERE n NOT IN (SELECT a FROM pairs)`, "1"},
		{"correlated scalar", `SELECT n, (SELECT sum(b) FROM pairs WHERE pairs.a = nums.n) FROM nums WHERE n < 3 ORDER BY n`, "1|3\n2|4"},
		{"coalesce", `SELECT coalesce(n, 0) FROM nums ORDER BY 1`, "0\n1\n2\n3\n4"},
		{"nullif", `SELECT nullif(n, 2) FROM nums WHERE n IS NOT NULL ORDER BY n`, "1\nnull\n3\n4"},
		{"upper substr", `SELECT upper(substr(s, 1, 2)) FROM nums WHERE n = 1`, "ON"},
		{"values", `VALUES (1, 'a'), (2, 'b')`, "1|a\n2|b"},
		{"from-less select", `SELECT 1 + 1, 'x'`, "2|x"},
		{"is distinct from", `SELECT count(*) FROM nums WHERE n IS DISTINCT FROM 1`, "4"},
		{"is not distinct from null", `SELECT count(*) FROM nums WHERE n IS NOT DISTINCT FROM NULL`, "1"},
		{"any quantifier", `SELECT count(*) FROM nums WHERE n < ANY (SELECT a FROM pairs)`, "2"},
		{"all quantifier", `SELECT count(*) FROM nums WHERE n >= ALL (SELECT a FROM pairs)`, "2"},
		{"nested derived tables", `SELECT x FROM (SELECT n + 1 AS x FROM (SELECT n FROM nums WHERE n <= 2) AS i) AS o ORDER BY x`, "2\n3"},
		{"where three valued", `SELECT count(*) FROM nums WHERE n > 2 OR s = 'one'`, "3"},
		{"order by alias", `SELECT n AS k FROM nums WHERE n IS NOT NULL ORDER BY k DESC LIMIT 1`, "4"},
		{"right join null pad", `SELECT pairs.b, nums.s FROM nums RIGHT JOIN pairs ON nums.n = pairs.b ORDER BY pairs.b`, "1|one\n2|two\n4|null\n9|null"},
		{"full join", `SELECT count(*) FROM nums FULL JOIN pairs ON nums.n = pairs.a`, "6"},
		{"except all bag", `SELECT count(*) FROM (SELECT a FROM pairs EXCEPT ALL SELECT b FROM pairs) AS e`, "2"},
		{"intersect all bag", `SELECT count(*) FROM (SELECT a FROM pairs INTERSECT ALL SELECT b FROM pairs) AS i`, "2"},
		{"having without group by", `SELECT count(*) FROM pairs HAVING count(*) > 3`, "4"},
		{"having filters all", `SELECT count(*) FROM pairs HAVING count(*) > 100`, ""},
		{"group by alias", `SELECT a AS grp, count(*) FROM pairs GROUP BY grp ORDER BY grp`, "1|2\n2|1\n3|1"},
		{"aggregate of expression", `SELECT sum(b - a) FROM pairs`, "9"},
		{"order by expression", `SELECT n FROM nums WHERE n IS NOT NULL ORDER BY 0 - n`, "4\n3\n2\n1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewDB().NewSession()
			if _, err := s.ExecuteScript(logicSetup); err != nil {
				t.Fatal(err)
			}
			res, err := s.Execute(c.query)
			if err != nil {
				t.Fatalf("query %q: %v", c.query, err)
			}
			got := renderRows(res)
			if got != c.want {
				t.Errorf("query %q:\ngot:\n%s\nwant:\n%s", c.query, got, c.want)
			}
		})
	}
}

// TestSQLLogicProvenance is the same battery style for provenance queries:
// each case asserts row count and a spot-checked cell.
func TestSQLLogicProvenance(t *testing.T) {
	cases := []struct {
		name     string
		query    string
		wantRows int
	}{
		{"scan", `SELECT PROVENANCE n FROM nums`, 5},
		{"filter", `SELECT PROVENANCE n FROM nums WHERE n > 2`, 2},
		{"project expr", `SELECT PROVENANCE n * 2 FROM nums WHERE n = 1`, 1},
		{"join", `SELECT PROVENANCE s FROM nums JOIN pairs ON nums.n = pairs.a`, 4},
		{"group", `SELECT PROVENANCE count(*), a FROM pairs GROUP BY a`, 4},
		{"scalar agg", `SELECT PROVENANCE sum(b) FROM pairs`, 4},
		{"union all", `SELECT PROVENANCE a FROM pairs UNION ALL SELECT b FROM pairs`, 8},
		{"union distinct", `SELECT PROVENANCE a FROM pairs UNION SELECT b FROM pairs`, 8},
		{"distinct", `SELECT PROVENANCE DISTINCT a FROM pairs`, 4},
		{"in subquery", `SELECT PROVENANCE n FROM nums WHERE n IN (SELECT a FROM pairs)`, 4},
		{"exists", `SELECT PROVENANCE n FROM nums WHERE EXISTS (SELECT 1 FROM pairs WHERE pairs.a = nums.n)`, 4},
		{"limit", `SELECT PROVENANCE n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2`, 2},
		{"copy", `SELECT PROVENANCE ON CONTRIBUTION (COPY) n FROM nums`, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewDB().NewSession()
			if _, err := s.ExecuteScript(logicSetup); err != nil {
				t.Fatal(err)
			}
			res, err := s.Execute(c.query)
			if err != nil {
				t.Fatalf("query %q: %v", c.query, err)
			}
			if len(res.Rows) != c.wantRows {
				t.Errorf("query %q: %d rows, want %d\n%v", c.query, len(res.Rows), c.wantRows, res.Rows)
			}
			// Every provenance case must flag at least one provenance column.
			found := false
			for _, col := range res.Schema {
				if col.IsProv {
					found = true
				}
			}
			if !found {
				t.Errorf("query %q: no provenance columns in %v", c.query, res.Columns)
			}
		})
	}
}
