package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// sortedRows renders a result as a sorted multiset: the planner's join rules
// may change the order of an unordered result, never its content.
func sortedRows(res *Result) string {
	lines := strings.Split(strings.TrimRight(renderRows(res), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(res.Columns, "|") + "\n" + strings.Join(lines, "\n")
}

// TestJoinPlanningKeepsResults runs comma joins, ON joins and outer joins
// over the inputs where join semantics are easiest to get wrong — NULL keys
// under = and under IS NOT DISTINCT FROM, duplicate keys on both sides, int
// keys against float keys, an empty input — with the optimizer on and off,
// at default work_mem and at 4 KiB, and requires the same multiset each way.
func TestJoinPlanningKeepsResults(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `CREATE TABLE l (k int, f float, a text)`)
	mustExecSpill(t, s, `CREATE TABLE r (k int, f float, b text)`)
	mustExecSpill(t, s, `CREATE TABLE wide (k int, f float, c text)`)
	mustExecSpill(t, s, `CREATE TABLE none (k int, f float, d text)`)
	mustExecSpill(t, s, `INSERT INTO l VALUES (1, 1.0, 'l1'), (1, 1.0, 'l1b'), (2, 2.5, 'l2'), (NULL, NULL, 'lnull'), (NULL, 3.0, 'lnull2'), (4, 4.0, 'l4')`)
	mustExecSpill(t, s, `INSERT INTO r VALUES (1, 1.0, 'r1'), (1, 1.0, 'r1b'), (1, 2.0, 'r1c'), (2, 2.0, 'r2'), (NULL, NULL, 'rnull'), (5, 4.0, 'r5')`)
	// wide is 100 times l's size, so joins against it commute; its keys
	// repeat and some are NULL.
	var b strings.Builder
	b.WriteString(`INSERT INTO wide VALUES `)
	for i := 0; i < 600; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		if i%50 == 0 {
			fmt.Fprintf(&b, "(NULL, NULL, 'w%d')", i)
		} else {
			fmt.Fprintf(&b, "(%d, %d.0, 'w%d')", i%6, i%6, i)
		}
	}
	mustExecSpill(t, s, b.String())

	queries := []string{
		// comma joins: equality, NULL-safe equality, int against float, theta
		`SELECT l.a, r.b FROM l, r WHERE l.k = r.k`,
		`SELECT l.a, r.b FROM l, r WHERE l.k IS NOT DISTINCT FROM r.k`,
		`SELECT l.a, r.b FROM l, r WHERE l.k = r.f`,
		`SELECT l.a, r.b FROM l, r WHERE l.f = r.k AND l.a < r.b`,
		`SELECT l.a, r.b FROM l, r WHERE l.k < r.k`,
		`SELECT l.a, r.b, w.c FROM l, r, wide w WHERE l.k = r.k AND r.k = w.k AND w.f < 2`,
		// build-side commutes of every kind, with NULL and duplicate keys
		`SELECT l.a, w.c FROM l JOIN wide w ON l.k = w.k`,
		`SELECT l.a, w.c FROM l JOIN wide w ON l.k IS NOT DISTINCT FROM w.k AND l.f IS NOT DISTINCT FROM w.f`,
		`SELECT l.a, w.c FROM l LEFT JOIN wide w ON l.k = w.f`,
		`SELECT l.a, w.c FROM l RIGHT JOIN wide w ON l.k = w.k AND w.f > 3`,
		`SELECT l.a, w.c FROM l FULL JOIN wide w ON l.f = w.k`,
		`SELECT PROVENANCE l.a, w.c FROM l, wide w WHERE l.k = w.k`,
		`SELECT PROVENANCE k, count(*), max(c) FROM wide GROUP BY k`,
		// an empty input on either side
		`SELECT l.a, n.d FROM l, none n WHERE l.k = n.k`,
		`SELECT l.a, n.d FROM none n JOIN l ON l.k = n.k`,
		`SELECT l.a, n.d FROM l LEFT JOIN none n ON l.k = n.k`,
		`SELECT w.c, n.d FROM none n RIGHT JOIN wide w ON w.k = n.k`,
		`SELECT w.c, n.d FROM none n FULL JOIN wide w ON w.f = n.f`,
	}
	for _, q := range queries {
		mustExecSpill(t, s, `SET optimizer = off`)
		want := sortedRows(mustExecSpill(t, s, q))
		mustExecSpill(t, s, `SET optimizer = on`)
		for _, workMem := range []int{0, tinyWorkMem} {
			mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, workMem))
			if got := sortedRows(mustExecSpill(t, s, q)); got != want {
				t.Errorf("%q at work_mem %d: the optimized plan answers differently\noptimizer off:\n%.1500s\noptimizer on:\n%.1500s", q, workMem, want, got)
			}
		}
		mustExecSpill(t, s, `SET work_mem = 0`)
	}
}
