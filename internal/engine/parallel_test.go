package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Intra-query parallelism coverage: a session is serial by default, parallel
// plans read the statement's own snapshot, workers observe interrupts and
// deadlines promptly, no goroutine outlives its query, and the trace counts
// what fanned out. Parallel results against serial ones are the result
// matrix's (matrix_test.go).

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
