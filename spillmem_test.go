package perm_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/value"
)

// TestSpilledGroupByKeepsItsTable: a spilling aggregation folds every grace
// partition in one group table, emptied and kept, instead of growing a new
// one from eight entries per partition. A cached GROUP BY of 20 000 groups
// under 64 KiB of work_mem spills into well over eight partitions. Its second
// run may allocate what it allocates beside the table — each group's key row,
// output row and merged copy, its result slot, the spill files' bookkeeping,
// under 200 bytes a group — plus the table of the largest partition, which a
// 64 KiB fold holds within 64 KiB, and one doubling of it. Measured: 193
// bytes a group; 721 with a table per partition, 2 030 with two unpooled
// 64 KiB buffers per spill file.
func TestSpilledGroupByKeepsItsTable(t *testing.T) {
	if raceEnabled || staleRows {
		t.Skip("allocation counts are not meaningful under the race detector or poisoned rows")
	}
	const groups, workMem, besideTable = 20_000, 64 << 10, 200
	s := engine.NewDB().NewSession()
	defer s.Close()
	exec := func(q string) *engine.Result {
		t.Helper()
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
		return res
	}
	exec(`CREATE TABLE g (k int)`)
	for lo := 0; lo < groups; lo += 1000 {
		var vals []string
		for i := lo; i < lo+1000; i++ {
			vals = append(vals, fmt.Sprintf("(%d)", i))
		}
		exec(`INSERT INTO g VALUES ` + strings.Join(vals, ", "))
	}
	exec(fmt.Sprintf(`SET work_mem = %d`, workMem))
	const q = `SELECT k, count(*) FROM g GROUP BY k`
	exec(q) // planned and cached
	files := s.MemStatus().SpillFiles
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := exec(q)
	runtime.ReadMemStats(&after)
	if len(res.Rows) != groups {
		t.Fatalf("%d groups, want %d", len(res.Rows), groups)
	}
	if n := s.MemStatus().SpillFiles - files; n < 8 {
		t.Fatalf("the second run created %d spill files: it never spilled into 8 partitions", n)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(groups*besideTable+2*workMem)
	t.Logf("the second run allocated %d bytes, %.1f a group", got, float64(got)/groups)
	if got > limit {
		t.Errorf("the second run allocated %d bytes, want at most %d", got, limit)
	}
}

// TestSpilledGroupByReusesItsOrder: below level 0 a fold emits its groups in
// first-appearance order, which is the order it made them in (a partition
// file holds its rows in input order), so nothing is sorted and no order
// slice is made per fold. A warm prepared GROUP BY of 20 000 groups under
// 64 KiB of work_mem, drained through a borrowed stream, allocates each
// group's key row and its share of the merge, under 80 bytes a group.
// Measured: 58 bytes a group.
func TestSpilledGroupByReusesItsOrder(t *testing.T) {
	if raceEnabled || staleRows {
		t.Skip("allocation counts are not meaningful under the race detector or poisoned rows")
	}
	const groups, workMem, perGroup = 20_000, 64 << 10, 80
	s := engine.NewDB().NewSession()
	defer s.Close()
	exec := func(q string) {
		t.Helper()
		if _, err := s.Execute(q); err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
	}
	exec(`CREATE TABLE g (k int)`)
	for lo := 0; lo < groups; lo += 1000 {
		var vals []string
		for i := lo; i < lo+1000; i++ {
			vals = append(vals, fmt.Sprintf("(%d)", i))
		}
		exec(`INSERT INTO g VALUES ` + strings.Join(vals, ", "))
	}
	exec(fmt.Sprintf(`SET work_mem = %d`, workMem))
	p, err := s.Prepare(`SELECT k, count(*) FROM g WHERE k >= ? GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		rows, err := p.QueryBorrowed(value.NewInt(0))
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for ; ; n++ {
			row, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if row == nil {
				break
			}
		}
		if n != groups {
			t.Fatalf("%d groups, want %d", n, groups)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	files := s.MemStatus().SpillFiles
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if n := s.MemStatus().SpillFiles - files; n < 8 {
		t.Fatalf("the warm run created %d spill files: it never spilled into 8 partitions", n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("the warm run allocated %d bytes, %.1f a group", got, float64(got)/groups)
	if got > groups*perGroup {
		t.Errorf("the warm run allocated %d bytes, want at most %d", got, groups*perGroup)
	}
}
