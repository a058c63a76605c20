package engine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/value"
)

// seedObsDB builds a two-table join workload big enough that per-operator
// counters are non-trivial.
func seedObsDB(t *testing.T) *Session {
	t.Helper()
	s := session(t)
	exec(t, s, `CREATE TABLE dept (id int, name text)`)
	exec(t, s, `CREATE TABLE emp (id int, dept int, salary int)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty')`)
	exec(t, s, b.String())
	b.Reset()
	b.WriteString(`INSERT INTO emp VALUES `)
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		d := i%2 + 1
		b.WriteString("(")
		b.WriteString(itoa(i))
		b.WriteString(", ")
		b.WriteString(itoa(d))
		b.WriteString(", ")
		b.WriteString(itoa(1000 + i))
		b.WriteString(")")
	}
	exec(t, s, b.String())
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d [20]byte
	i := len(d)
	for n > 0 {
		i--
		d[i] = byte('0' + n%10)
		n /= 10
	}
	return string(d[i:])
}

func parseSelect(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		t.Fatalf("%q is not a select", q)
	}
	return sel
}

// opCount is one operator of a measured tree, flattened for comparison
// across runs (each run plans afresh, so nodes cannot be matched by identity).
type opCount struct {
	op   string
	rows int64
}

// analyzeCounts runs EXPLAIN ANALYZE and returns the measured tree in
// preorder, failing if any operator of the fully drained query never ran, and
// the widest fan-out any operator reported.
func analyzeCounts(t *testing.T, s *Session, q string) (ex *Explanation, counts []opCount, workers int) {
	t.Helper()
	ex, err := s.ExplainAnalyze(parseSelect(t, q))
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	if !ex.Analyzed || ex.Stats == nil {
		t.Fatalf("analyzed explanation missing stats: %+v", ex)
	}
	ex.Stats.Walk(func(n *executor.OpStats) {
		if n.Opens == 0 {
			t.Errorf("operator %T never opened in a fully drained query", n.Op)
		}
		counts = append(counts, opCount{fmt.Sprintf("%T", n.Op), n.Rows})
		if n.Workers > workers {
			workers = n.Workers
		}
	})
	if strings.Contains(ex.AnalyzedTree, "(never executed)") {
		t.Errorf("analyzed tree has unexecuted operators:\n%s", ex.AnalyzedTree)
	}
	return ex, counts, workers
}

// TestExplainAnalyzeCounters checks the measured tree against actual
// execution on a provenance-rewritten join: the root's row count must equal
// the query's result cardinality, and every scan must report the rows it
// actually produced.
func TestExplainAnalyzeCounters(t *testing.T) {
	s := seedObsDB(t)
	q := `SELECT PROVENANCE d.name, e.salary FROM dept d, emp e WHERE d.id = e.dept`

	want := exec(t, s, q)
	ex, counts, _ := analyzeCounts(t, s, q)
	if ex.RowCount != len(want.Rows) {
		t.Fatalf("RowCount = %d, actual rows = %d", ex.RowCount, len(want.Rows))
	}
	if got := ex.Stats.Rows; got != int64(len(want.Rows)) {
		t.Errorf("root operator rows = %d, actual = %d", got, len(want.Rows))
	}

	// The tree saw the base tables: 200 emp rows and 3 dept rows enter
	// somewhere.
	if len(counts) < 3 {
		t.Fatalf("expected at least scan+scan+join operators, got %d nodes", len(counts))
	}
	saw200, saw3 := false, false
	for _, c := range counts {
		if c.rows == 200 {
			saw200 = true
		}
		if c.rows == 3 {
			saw3 = true
		}
	}
	if !saw200 || !saw3 {
		t.Errorf("scan cardinalities not observed (counts = %v)", counts)
	}

	// The rendered tree carries the measured annotations, and beside every
	// measured row count the estimate it is to be read against.
	if !strings.Contains(ex.AnalyzedTree, "rows=") || !strings.Contains(ex.AnalyzedTree, "time=") {
		t.Errorf("analyzed tree missing annotations:\n%s", ex.AnalyzedTree)
	}
	if n, est := strings.Count(ex.AnalyzedTree, "(rows="), len(regexp.MustCompile(`\(rows=\d+ est≈\d+ `).FindAllString(ex.AnalyzedTree, -1)); n == 0 || n != est {
		t.Errorf("%d measured operators, %d of them with an estimate beside the measurement:\n%s", n, est, ex.AnalyzedTree)
	}
	// 200 emp rows come out of a scan estimated at exactly 200 (the catalog
	// keeps the row count), so this pair is known.
	if !strings.Contains(ex.AnalyzedTree, "(rows=200 est≈200 ") {
		t.Errorf("emp scan does not read rows=200 est≈200:\n%s", ex.AnalyzedTree)
	}

	// And the SQL-level EXPLAIN ANALYZE output includes the analyzed section.
	res := exec(t, s, "EXPLAIN ANALYZE "+q)
	var out strings.Builder
	for _, r := range res.Rows {
		out.WriteString(r[0].Str())
		out.WriteByte('\n')
	}
	for _, needle := range []string{"Analyzed plan (measured):", "Stage timings:", "Rows: "} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", needle, out.String())
		}
	}

	t.Run("across degrees", func(t *testing.T) { explainTotalsAcrossDegrees(t, s) })
}

// explainTotalsAcrossDegrees: the measured tree is the same whichever way the
// statement ran. At parallelism 2, over a probe side big enough to fan out
// and over one small enough to fall back, every operator must report what the
// serial run reports — workers' private counters are summed into the
// displayed tree, and the fallback is instrumented like any other subtree.
func explainTotalsAcrossDegrees(t *testing.T, s *Session) {
	small := []string{
		`SELECT PROVENANCE d.name, e.salary FROM emp e, dept d WHERE d.id = e.dept`,
		`SELECT dept, count(*), sum(salary) FROM emp WHERE id % 3 = 0 GROUP BY dept`,
	}
	big := append([]string{
		`SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept = d.id WHERE e.salary % 2 = 0`,
		`SELECT id + 1, salary FROM emp WHERE salary % 5 = 0`,
	}, small...)
	check := func(queries []string, wantWorkers int) {
		t.Helper()
		for _, q := range queries {
			exec(t, s, `SET parallelism = 1`)
			_, serial, _ := analyzeCounts(t, s, q)
			exec(t, s, `SET parallelism = 2`)
			_, par, workers := analyzeCounts(t, s, q)
			if workers != wantWorkers {
				t.Errorf("%q: widest fan-out = %d workers, want %d", q, workers, wantWorkers)
			}
			if fmt.Sprint(par) != fmt.Sprint(serial) {
				t.Errorf("%q: measured tree differs by degree\nparallelism=1: %v\nparallelism=2: %v", q, serial, par)
			}
		}
	}
	check(small, 0) // 200 probe rows: below the fan-out floor
	var b strings.Builder
	b.WriteString(`INSERT INTO emp VALUES `)
	for i := 200; i < 2200; i++ {
		if i > 200 {
			b.WriteString(", ")
		}
		b.WriteString("(" + itoa(i) + ", " + itoa(i%2+1) + ", " + itoa(1000+i) + ")")
	}
	exec(t, s, b.String())
	check(big, 2)
}

// TestExplainAnalyzeSpillCounters forces spilling with a tiny work_mem and
// checks the statement-level spill totals against the session's pool
// counters (SHOW memory_status), which track the same bytes.
func TestExplainAnalyzeSpillCounters(t *testing.T) {
	s := seedObsDB(t)
	// An external sort needs at least minSortRunRows buffered before it
	// spills; 2000 rows under a 512-byte budget guarantees several runs.
	var b strings.Builder
	b.WriteString(`INSERT INTO emp VALUES `)
	for i := 200; i < 2200; i++ {
		if i > 200 {
			b.WriteString(", ")
		}
		b.WriteString("(" + itoa(i) + ", " + itoa(i%2+1) + ", " + itoa(1000+i) + ")")
	}
	exec(t, s, b.String())
	exec(t, s, `SET work_mem = 512`)

	before := exec(t, s, `SHOW memory_status`)
	bFiles, bBytes := before.Rows[0][3].Int(), before.Rows[0][4].Int()

	q := `SELECT id, dept, salary FROM emp ORDER BY salary DESC, id`
	ex, err := s.ExplainAnalyze(parseSelect(t, q))
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	after := exec(t, s, `SHOW memory_status`)
	aFiles, aBytes := after.Rows[0][3].Int(), after.Rows[0][4].Int()

	if aFiles == bFiles {
		t.Fatalf("expected the sort to spill under work_mem=512 (files %d -> %d)", bFiles, aFiles)
	}
	if ex.SpillFiles != aFiles-bFiles {
		t.Errorf("explanation spill files = %d, memory_status delta = %d", ex.SpillFiles, aFiles-bFiles)
	}
	if ex.SpillBytes != aBytes-bBytes {
		t.Errorf("explanation spill bytes = %d, memory_status delta = %d", ex.SpillBytes, aBytes-bBytes)
	}
	if !strings.Contains(ex.AnalyzedTree, "spill=") {
		t.Errorf("analyzed tree missing spill annotation:\n%s", ex.AnalyzedTree)
	}
}

// TestTraceLifecycle drives SET trace / SHOW last_trace the way a client
// would: no trace before one is recorded, a full stage profile after, and
// the same surface keeps working for the next statement.
func TestTraceLifecycle(t *testing.T) {
	s := seedObsDB(t)

	if _, err := s.Execute(`SHOW last_trace`); err == nil {
		t.Fatal("SHOW last_trace before any trace must fail")
	}
	exec(t, s, `SET trace = on`)

	q := `SELECT name FROM dept ORDER BY name`
	exec(t, s, q)
	res := exec(t, s, `SHOW last_trace`)
	if len(res.Rows) != 1 {
		t.Fatalf("last_trace rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if got := row[0].Str(); got != q {
		t.Errorf("traced sql = %q, want %q", got, q)
	}
	rowsIdx := colIndex(t, res.Columns, "rows")
	if row[rowsIdx].Int() != 3 {
		t.Errorf("traced rows = %d, want 3", row[rowsIdx].Int())
	}
	totalIdx := colIndex(t, res.Columns, "total_us")
	if row[totalIdx].Int() < 0 {
		t.Errorf("total_us = %d", row[totalIdx].Int())
	}
	// Column list, schema and row must agree in arity: generic table
	// renderers size by the column list and index cells by position, so a
	// column added to the schema but not the list panics the client.
	if len(res.Columns) != len(res.Schema) || len(row) != len(res.Columns) {
		t.Fatalf("last_trace arity mismatch: %d columns, %d schema fields, %d row cells",
			len(res.Columns), len(res.Schema), len(row))
	}
	if i := colIndex(t, res.Columns, "parallel_ops"); row[i].Int() != 0 {
		t.Errorf("serial statement parallel_ops = %d, want 0", row[i].Int())
	}
	if i := colIndex(t, res.Columns, "parallel_workers"); row[i].Int() != 0 {
		t.Errorf("serial statement parallel_workers = %d, want 0", row[i].Int())
	}

	// The trace relates to the *traced* statement: SHOW itself is untraced
	// utility output, so the recorded SQL must still be the SELECT.
	res = exec(t, s, `SHOW last_trace`)
	if got := res.Rows[0][0].Str(); got != q {
		t.Errorf("trace overwritten by SHOW: %q", got)
	}

	exec(t, s, `SET trace = off`)
	exec(t, s, `SELECT 1`)
	res = exec(t, s, `SHOW last_trace`)
	if got := res.Rows[0][0].Str(); got != q {
		t.Errorf("trace recorded while off: %q", got)
	}
}

func colIndex(t *testing.T, cols []string, name string) int {
	t.Helper()
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	t.Fatalf("column %q not in %v", name, cols)
	return -1
}

// TestSlowQueryLog checks the threshold and the sink: with slow_query_ms = 0
// every statement is logged (Postgres convention), with it negative nothing
// is, and bind parameters are reported only as a count.
func TestSlowQueryLog(t *testing.T) {
	s := seedObsDB(t)
	var got []SlowQuery
	s.SetSlowQueryLog(func(q SlowQuery) { got = append(got, q) })

	exec(t, s, `SELECT count(*) FROM emp`)
	if len(got) != 0 {
		t.Fatalf("slow log fired while disabled: %+v", got)
	}

	exec(t, s, `SET slow_query_ms = 0`)
	exec(t, s, `SELECT count(*) FROM emp`)
	// The SET itself may have been logged too (threshold 0 logs everything
	// after it takes effect); the SELECT must be the most recent record.
	if len(got) == 0 {
		t.Fatal("slow log did not fire at threshold 0")
	}
	last := got[len(got)-1]
	if last.SQL != `SELECT count(*) FROM emp` {
		t.Errorf("logged sql = %q", last.SQL)
	}
	if last.Rows != 1 {
		t.Errorf("logged rows = %d", last.Rows)
	}

	// Parameterized statements log the parameter count, never the values.
	n := len(got)
	prep, err := s.Prepare(`SELECT count(*) FROM emp WHERE salary > ?`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	rows, err := prep.Query(value.NewInt(1100))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, err := rows.DrainResult(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(got) <= n {
		t.Fatal("parameterized query not logged")
	}
	last = got[len(got)-1]
	if last.Params != 1 {
		t.Errorf("logged params = %d, want 1", last.Params)
	}
	if strings.Contains(last.SQL, "1100") {
		t.Errorf("bind value leaked into slow log: %q", last.SQL)
	}

	exec(t, s, `SET slow_query_ms = off`)
	n = len(got)
	exec(t, s, `SELECT 1`)
	if len(got) != n {
		t.Errorf("slow log fired while re-disabled")
	}
}

// TestInstrumentationOffByDefault pins the zero-cost contract: without SET
// trace the streamed path must not build a stats tree at all (the iterator
// tree is unwrapped — EXPLAIN ANALYZE is the only other way to pay for
// counters).
func TestInstrumentationOffByDefault(t *testing.T) {
	s := seedObsDB(t)
	rows, err := s.Query(`SELECT count(*) FROM emp`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rows.obs != nil {
		t.Error("deep-observation sidecar allocated with trace off")
	}
	if _, err := rows.DrainResult(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	exec(t, s, `SET trace = on`)
	rows, err = s.Query(`SELECT count(*) FROM emp`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rows.obs == nil || rows.obs.stats == nil {
		t.Error("stats tree missing with trace on")
	}
	if _, err := rows.DrainResult(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestEngineStatsSurface smoke-checks SHOW engine_stats: the process
// counters exist and queries move them.
func TestEngineStatsSurface(t *testing.T) {
	s := seedObsDB(t)
	res := exec(t, s, `SHOW engine_stats`)
	vals := map[string]string{}
	for _, r := range res.Rows {
		vals[r[0].Str()] = r[1].Str()
	}
	for _, name := range []string{
		"perm_engine_queries_total",
		"perm_engine_query_seconds_count",
		"perm_engine_plan_cache_misses_total",
		"perm_spill_files_total",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("engine_stats missing %s", name)
		}
	}
	if vals["perm_engine_queries_total"] == "0" {
		t.Error("queries counter did not move")
	}
}
