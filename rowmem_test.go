package perm_test

import (
	"fmt"
	"strings"
	"testing"

	"perm/internal/engine"
)

// rowMemSession returns a session over kv(k int, v text, w int) with n rows.
func rowMemSession(t *testing.T, n int) *engine.Session {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := engine.NewDB().NewSession()
	t.Cleanup(func() { s.Close() })
	exec := func(q string) {
		if _, err := s.Execute(q); err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
	}
	exec(`CREATE TABLE kv (k int, v text, w int)`)
	for lo := 0; lo < n; lo += 1024 {
		var vals []string
		for i := lo; i < min(lo+1024, n); i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'value %d', %d)", i, i, i%7))
		}
		exec(`INSERT INTO kv VALUES ` + strings.Join(vals, ", "))
	}
	return s
}

// allocsOf runs q once to plan and cache it, then counts the allocations of a
// plan-cache-hot execution returning want rows.
func allocsOf(t *testing.T, s *engine.Session, q string, want int) float64 {
	t.Helper()
	run := func() {
		if res, err := s.Execute(q); err != nil || len(res.Rows) != want {
			t.Fatalf("%s: %d rows, %v; want %d rows", q, len(res.Rows), err, want)
		}
	}
	run()
	return testing.AllocsPerRun(20, run)
}

// TestRowAllocationsPerStatement guards what the row allocator bought: a
// statement that gives birth to 4 096 rows — a projection that computes a
// column, so nothing can alias — allocates 64 times in the executor, not once
// per row: 37 chunks of rows (2+4+…+128 rows, then 128 each), 13 doublings of
// the result slice, and the statement's fixed cost, which is what the one-row
// twin of the statement allocates.
func TestRowAllocationsPerStatement(t *testing.T) {
	const n = 4096
	s := rowMemSession(t, n)
	fixed := allocsOf(t, s, `SELECT k + w, v FROM kv WHERE k = 77`, 1)
	if got := allocsOf(t, s, `SELECT k + w, v FROM kv`, n); got-fixed > 64 {
		t.Errorf("a computed projection over %d rows: %v allocations beyond the %v of its one-row twin, want at most 64", n, got-fixed, fixed)
	}
	// Leading columns alias the table's rows: no chunk is cut at all.
	if got := allocsOf(t, s, `SELECT k, v FROM kv`, n); got-fixed > 64-37 {
		t.Errorf("an aliasing projection over %d rows: %v allocations beyond the %v of the one-row statement, want at most %d", n, got-fixed, fixed, 64-37)
	}
}

// TestOneRowStatementAllocations: cutting rows from chunks must not tax the
// statements that return one row — the allocator's first chunk is two rows of
// 16-byte values, less than the one row of 40-byte values it replaced. The
// bounds are the counts measured at 9b1f94e, the commit before the allocator.
func TestOneRowStatementAllocations(t *testing.T) {
	s := rowMemSession(t, 256)
	for _, tc := range []struct {
		q   string
		max float64
	}{
		{`SELECT v, w + 1 FROM kv WHERE k = 77`, 23},
		{`SELECT PROVENANCE v, w + 1 FROM kv WHERE k = 77`, 26},
		{`SELECT count(*), max(v) FROM kv`, 21},
		{`SELECT 1, 'x'`, 17},
	} {
		if got := allocsOf(t, s, tc.q, 1); got > tc.max {
			t.Errorf("%s: %v allocations, %v at 9b1f94e", tc.q, got, tc.max)
		}
	}
}
