package engine

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Intra-query parallelism coverage: parallel execution must be byte-identical
// to serial across degrees, memory budgets, and provenance rewriting; workers
// must observe interrupts and deadlines promptly; and no goroutine or spill
// file may outlive its query.

// seedParallelDB extends the spill fixture with a small table for bounded
// joins with no equi key. big has 6000 rows and other 3000 — both above the
// executor's fan-out floor.
func seedParallelDB(t testing.TB) *DB {
	t.Helper()
	db := seedSpillDB(t, 6000)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `CREATE TABLE small (w int)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO small VALUES `)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d)", i*3%40)
	}
	mustExecSpill(t, s, b.String())
	return db
}

// parallelSuite spans every parallel operator plus shapes that must fall back
// to the serial path and still agree: gather chains, partition-wise joins with
// and without an equi key, partition-wise aggregation, DISTINCT aggregates and
// float sums (ineligible), subqueries, sorts, and provenance rewrites.
// fansOut marks the shapes that must really run on workers at degree >= 2
// under a wide budget; the rest may fall back. The planner turns the comma
// joins' equality into the join condition, so they run as hash joins.
var parallelSuite = []struct {
	q       string
	fansOut bool
}{
	// gather: scan/filter/project chains
	{`SELECT k, v FROM big WHERE v % 3 = 0`, true},
	{`SELECT k + v, s FROM big WHERE k < 25`, true},
	// partition-wise hash join
	{`SELECT b.k, b.v, o.v FROM big b, other o WHERE b.v = o.v`, true},
	{`SELECT b.k, o.s FROM big b JOIN other o ON b.v = o.v WHERE b.k % 2 = 0`, true},
	{`SELECT b.v, o.v FROM big b LEFT JOIN other o ON b.v = o.v WHERE b.v < 500`, true},
	// partition-wise theta and cross joins (no equi key)
	{`SELECT b.v, sm.w FROM big b, small sm WHERE b.v % 97 < sm.w AND b.v % 11 = 0`, true},
	{`SELECT count(*) FROM big b, small sm`, true},
	// partition-wise aggregation with worker-order partial merge
	{`SELECT k, count(*), sum(v), min(s), max(v) FROM big GROUP BY k`, true},
	{`SELECT k % 7, count(*), avg(v) FROM big WHERE v % 2 = 0 GROUP BY k % 7`, true},
	{`SELECT count(*), sum(v), min(v), max(s) FROM big`, true},
	// serial-fallback shapes (DISTINCT aggregates, sorts, subqueries)
	{`SELECT k, count(DISTINCT s) FROM big GROUP BY k`, false},
	{`SELECT k, v FROM big ORDER BY v DESC, k LIMIT 100`, false},
	{`SELECT DISTINCT k FROM big`, false},
	{`SELECT k FROM big WHERE v IN (SELECT v FROM other) ORDER BY k LIMIT 50`, false},
	// provenance-rewritten plans through the same operators
	{`SELECT PROVENANCE k, v FROM big WHERE v % 5 = 0`, true},
	{`SELECT PROVENANCE b.k, o.v FROM big b, other o WHERE b.v = o.v`, true},
	{`SELECT PROVENANCE k, count(*), sum(v) FROM big GROUP BY k`, true},
}

// TestParallelDifferential pins the headline contract: for every query in the
// suite, every (parallelism, work_mem) combination must produce bytes
// identical to the serial wide-budget run — including the forced-spill
// configurations, where parallel operators either spill per worker (joins) or
// fall back to the serial spilling path (aggregation). The trace proves the
// wide-budget runs at degree >= 2 really fanned out, so the suite cannot pass
// by falling back everywhere.
func TestParallelDifferential(t *testing.T) {
	db := seedParallelDB(t)
	base := db.NewSession()
	defer base.Close()
	mustExecSpill(t, base, `SET parallelism = 1`)
	want := make(map[string]string, len(parallelSuite))
	for _, c := range parallelSuite {
		want[c.q] = renderFull(mustExecSpill(t, base, c.q))
	}

	for _, deg := range []int{1, 2, 8} {
		for _, tiny := range []bool{false, true} {
			name := fmt.Sprintf("parallelism=%d/tiny=%v", deg, tiny)
			t.Run(name, func(t *testing.T) {
				s := db.NewSession()
				defer s.Close()
				dir := t.TempDir()
				s.SetTempDir(dir)
				mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
				mustExecSpill(t, s, `SET trace = on`)
				if tiny {
					mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, tinyWorkMem))
				}
				for _, c := range parallelSuite {
					got := renderFull(mustExecSpill(t, s, c.q))
					if got != want[c.q] {
						t.Fatalf("diverged on %q:\nwant:\n%.2000s\ngot:\n%.2000s", c.q, want[c.q], got)
					}
					if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
						t.Fatalf("%q left %d files in temp dir (err %v)", c.q, len(ents), err)
					}
					tr := s.LastTrace()
					if deg == 1 && tr.ParallelOps != 0 {
						t.Errorf("%q fanned out (%d ops) at parallelism 1", c.q, tr.ParallelOps)
					}
					if deg > 1 && !tiny && c.fansOut && (tr.ParallelOps == 0 || tr.ParallelWorkers < int64(deg)) {
						t.Errorf("%q never fanned out at parallelism %d: %d ops, %d workers",
							c.q, deg, tr.ParallelOps, tr.ParallelWorkers)
					}
				}
				if ms := s.MemStatus(); ms.Tracked != 0 {
					t.Fatalf("tracked memory leaked: %d bytes", ms.Tracked)
				}
			})
		}
	}
}

// TestParallelDefaultDegree: a fresh session is serial on any host — the
// setting says so and the executor agrees — and only SET parallelism = 0
// hands it every core.
func TestParallelDefaultDegree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET trace = on`)
	q := `SELECT k, v FROM big WHERE v % 3 = 0`

	if got := mustExecSpill(t, s, `SHOW parallelism`).Rows[0][0].Str(); got != "1" {
		t.Errorf("default SHOW parallelism = %q, want 1", got)
	}
	mustExecSpill(t, s, q)
	if tr := s.LastTrace(); tr.ParallelOps != 0 || tr.ParallelWorkers != 0 {
		t.Errorf("default session fanned out: %d ops, %d workers", tr.ParallelOps, tr.ParallelWorkers)
	}

	mustExecSpill(t, s, `SET parallelism = 0`)
	mustExecSpill(t, s, q)
	if tr := s.LastTrace(); tr.ParallelOps != 1 || tr.ParallelWorkers != 4 {
		t.Errorf("parallelism 0 on 4 procs: %d ops, %d workers, want 1 and 4", tr.ParallelOps, tr.ParallelWorkers)
	}
}

// snapshotShapes are one gather, one partition-wise join and one
// partition-wise aggregate, each sensitive to a single extra row in big.
var snapshotShapes = []string{
	`SELECT k, v, s FROM big WHERE v = 99999`,
	`SELECT b.v, sm.w FROM big b JOIN small sm ON b.k = sm.w WHERE b.v = 99999`,
	`SELECT count(*), max(v) FROM big`,
}

// renderShapes runs snapshotShapes at the given degree and flattens the
// results, checking that the big-table statements really fanned out.
func renderShapes(t *testing.T, s *Session, deg int) string {
	t.Helper()
	mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
	mustExecSpill(t, s, `SET trace = on`)
	var b strings.Builder
	for _, q := range snapshotShapes {
		b.WriteString(renderFull(mustExecSpill(t, s, q)))
		if tr := s.LastTrace(); deg > 1 && tr.ParallelOps == 0 {
			t.Errorf("%q did not fan out at parallelism %d", q, deg)
		}
	}
	return b.String()
}

// TestParallelReadYourWrites: partitions are cut from the rows the statement
// sees, so inside a transaction every parallel shape reads the transaction's
// own uncommitted insert, exactly as the serial path does.
func TestParallelReadYourWrites(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `BEGIN`)
	mustExecSpill(t, s, `INSERT INTO big VALUES (7, 99999, 'mine')`)
	serial := renderShapes(t, s, 1)
	if !strings.Contains(serial, "mine") || !strings.Contains(serial, "6001|99999") {
		t.Fatalf("serial run does not read its own write:\n%s", serial)
	}
	if par := renderShapes(t, s, 2); par != serial {
		t.Errorf("parallelism 2 inside the transaction diverged from serial:\nwant:\n%s\ngot:\n%s", serial, par)
	}
	mustExecSpill(t, s, `ROLLBACK`)
	if after := renderShapes(t, s, 2); strings.Contains(after, "99999") {
		t.Errorf("rolled-back insert still visible:\n%s", after)
	}
}

// TestParallelPinnedSnapshot: a reader whose snapshot was pinned before
// another session's commit — an open cursor, or an open transaction — must
// not see that commit at any degree. Its partitions come from the pinned
// snapshot, not from the table as of fan-out time.
func TestParallelPinnedSnapshot(t *testing.T) {
	db := seedParallelDB(t)
	q := `SELECT k, v, s FROM big WHERE v % 1000 = 999`
	type reader struct {
		cursor *Rows
		txn    *Session
		out    strings.Builder
	}
	readers := make([]reader, 2)
	for i := range readers {
		cs := db.NewSession()
		defer cs.Close()
		mustExecSpill(t, cs, fmt.Sprintf(`SET parallelism = %d`, i+1))
		rows, err := cs.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		first, err := rows.Next()
		if err != nil || first == nil {
			t.Fatalf("parallelism=%d: first row = %v, err %v", i+1, first, err)
		}
		fmt.Fprintln(&readers[i].out, first)
		readers[i].cursor = rows
		readers[i].txn = db.NewSession()
		defer readers[i].txn.Close()
		mustExecSpill(t, readers[i].txn, `BEGIN`)
	}

	writer := db.NewSession()
	defer writer.Close()
	mustExecSpill(t, writer, `INSERT INTO big VALUES (3, 99999, 'late')`)

	for i := range readers {
		r := &readers[i]
		for {
			row, err := r.cursor.Next()
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				break
			}
			fmt.Fprintln(&r.out, row)
		}
		r.out.WriteString(renderShapes(t, r.txn, i+1))
		mustExecSpill(t, r.txn, `ROLLBACK`)
		if strings.Contains(r.out.String(), "99999") {
			t.Errorf("parallelism=%d: reader saw a commit later than its snapshot:\n%s", i+1, r.out.String())
		}
	}
	if readers[0].out.String() != readers[1].out.String() {
		t.Errorf("pinned-snapshot reads differ by degree:\nparallelism=1:\n%s\nparallelism=2:\n%s",
			readers[0].out.String(), readers[1].out.String())
	}
}

// TestParallelErrorAgreement: a query that fails must fail identically at
// every degree (same error text), not hang or half-succeed.
func TestParallelErrorAgreement(t *testing.T) {
	db := seedParallelDB(t)
	q := `SELECT b.v / (o.v - o.v) FROM big b, other o WHERE b.v = o.v`
	var want string
	for i, deg := range []int{1, 2, 8} {
		s := db.NewSession()
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		_, err := s.Execute(q)
		if err == nil {
			s.Close()
			t.Fatalf("parallelism=%d: expected division error, got success", deg)
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("parallelism=%d error diverged:\nwant %q\ngot  %q", deg, want, err.Error())
		}
		if ms := s.MemStatus(); ms.Tracked != 0 {
			t.Fatalf("parallelism=%d leaked %d tracked bytes after error", deg, ms.Tracked)
		}
		s.Close()
	}
}

// TestParallelInterrupt arms the session kill channel mid-query: every worker
// must observe the interrupt and the statement must unwind promptly even with
// workers parked in the exchange.
func TestParallelInterrupt(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 4`)
	kill := make(chan struct{})
	s.SetInterrupt(kill)
	done := make(chan error, 1)
	go func() {
		_, err := s.Execute(`SELECT count(*) FROM big b1, big b2 WHERE b1.v + b2.v >= 0`)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(kill)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("expected interrupt error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted parallel query did not unwind within 10s")
	}
	if ms := s.MemStatus(); ms.Tracked != 0 {
		t.Fatalf("interrupt leaked %d tracked bytes", ms.Tracked)
	}
}

// TestParallelDeadline: the wall-clock deadline must cancel parallel workers
// exactly as it cancels the serial loops.
func TestParallelDeadline(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 4`)
	s.SetDeadline(time.Now().Add(50 * time.Millisecond))
	defer s.SetDeadline(time.Time{})
	_, err := s.Execute(`SELECT count(*) FROM big b1, big b2 WHERE b1.v + b2.v >= 0`)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("expected deadline interrupt, got %v", err)
	}
}

// TestParallelGoroutineLeak runs parallel queries to completion, abandons one
// mid-stream (workers parked on full exchange queues must exit through the
// quit channel), and requires the goroutine count to settle back to the
// baseline.
func TestParallelGoroutineLeak(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 8`)
	before := runtime.NumGoroutine()

	for _, q := range []string{
		`SELECT b.k, b.v, o.v FROM big b, other o WHERE b.v = o.v`,
		`SELECT k, count(*), sum(v) FROM big GROUP BY k`,
	} {
		mustExecSpill(t, s, q)
	}
	rows, err := s.Query(`SELECT k, v FROM big WHERE v % 2 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rows.Next(); err != nil {
			t.Fatal(err)
		}
	}
	rows.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestParallelJoinBuildSpillRegression is the build-side memory-bug
// regression: a hash join whose build side dwarfs work_mem must account it,
// spill, stay within ~2x the budget, and produce byte-identical rows — at
// every parallelism degree (the parallel join detects the overflow and takes
// the serial grace path).
func TestParallelJoinBuildSpillRegression(t *testing.T) {
	const budget = 131072
	db := seedParallelDB(t)
	base := db.NewSession()
	defer base.Close()
	q := `SELECT b.k, b.v, o.s FROM big b JOIN other o ON b.v = o.v`
	want := renderFull(mustExecSpill(t, base, q))
	for _, deg := range []int{1, 4} {
		s := db.NewSession()
		s.SetTempDir(t.TempDir())
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, budget))
		got := renderFull(mustExecSpill(t, s, q))
		if got != want {
			t.Fatalf("parallelism=%d: forced-spill join diverged", deg)
		}
		ms := s.MemStatus()
		if ms.SpillFiles == 0 {
			t.Fatalf("parallelism=%d: join build side never spilled: %+v", deg, ms)
		}
		if ms.Peak > 2*budget {
			t.Fatalf("parallelism=%d: peak tracked bytes %d exceed 2x budget %d", deg, ms.Peak, 2*budget)
		}
		s.Close()
	}
}

// TestParallelDistinctSpillRegression is the resident-DISTINCT memory-bug
// regression: per-group seen-sets far beyond work_mem must shed to sorted
// element runs and stay within ~2x the budget, byte-identical to the
// unbounded run.
func TestParallelDistinctSpillRegression(t *testing.T) {
	const budget = 131072
	db := NewDB()
	seed := db.NewSession()
	mustExecSpill(t, seed, `CREATE TABLE d (g int, x int)`)
	for off := 0; off < 60000; off += 1000 {
		var b strings.Builder
		b.WriteString(`INSERT INTO d VALUES `)
		for i := 0; i < 1000; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", (off+i)%8, off+i)
		}
		mustExecSpill(t, seed, b.String())
	}
	seed.Close()

	q := `SELECT g, count(DISTINCT x), min(x), avg(x) FROM d GROUP BY g`
	base := db.NewSession()
	defer base.Close()
	want := renderFull(mustExecSpill(t, base, q))
	for _, deg := range []int{1, 4} {
		s := db.NewSession()
		s.SetTempDir(t.TempDir())
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, budget))
		got := renderFull(mustExecSpill(t, s, q))
		if got != want {
			t.Fatalf("parallelism=%d: forced-spill DISTINCT diverged", deg)
		}
		ms := s.MemStatus()
		if ms.SpillFiles == 0 {
			t.Fatalf("parallelism=%d: DISTINCT states never spilled: %+v", deg, ms)
		}
		if ms.Peak > 2*budget {
			t.Fatalf("parallelism=%d: peak tracked bytes %d exceed 2x budget %d", deg, ms.Peak, 2*budget)
		}
		s.Close()
	}
}

// TestParallelTraceCounters drives the observability surface of a parallel
// statement the way a client would: SET trace on, run a fan-out-eligible
// query, and read SHOW last_trace — the parallel_ops/parallel_workers
// columns must be present, positionally consistent with the schema and row
// (a mismatch panics generic table renderers like permshell's), and nonzero
// exactly when the statement actually fanned out.
func TestParallelTraceCounters(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 4`)
	mustExecSpill(t, s, `SET trace = on`)
	mustExecSpill(t, s, `SELECT v, v % 7 FROM big WHERE v % 3 <> 1`)
	res := mustExecSpill(t, s, `SHOW last_trace`)
	if len(res.Rows) != 1 {
		t.Fatalf("last_trace rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if len(res.Columns) != len(res.Schema) || len(row) != len(res.Columns) {
		t.Fatalf("last_trace arity mismatch: %d columns, %d schema fields, %d row cells",
			len(res.Columns), len(res.Schema), len(row))
	}
	ops := row[colIndex(t, res.Columns, "parallel_ops")].Int()
	workers := row[colIndex(t, res.Columns, "parallel_workers")].Int()
	if ops < 1 {
		t.Errorf("parallel_ops = %d, want >= 1", ops)
	}
	if workers < 2 {
		t.Errorf("parallel_workers = %d, want >= 2", workers)
	}

	// EXPLAIN ANALYZE instruments a parallel join + aggregation, so the
	// per-worker rollup is published from the join's release path too (the
	// counters must only be read after the workers are joined — this is
	// the regression surface for that ordering).
	res = mustExecSpill(t, s,
		`EXPLAIN ANALYZE SELECT b.v % 16, count(*), sum(b.v) FROM big b JOIN other o ON b.v = o.v GROUP BY b.v % 16`)
	var out strings.Builder
	for _, r := range res.Rows {
		out.WriteString(r[0].Str())
		out.WriteByte('\n')
	}
	if !strings.Contains(out.String(), "workers=") {
		t.Errorf("EXPLAIN ANALYZE of a parallel join missing workers= rollup:\n%s", out.String())
	}
}
