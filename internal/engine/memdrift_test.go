package engine

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"perm/internal/value"
)

// TestWorkerErrorMidSpillNoAccountingDrift is the memory-accounting audit pin
// for SHOW memory_status under parallel statements: when a worker dies
// mid-spill — here a residual join condition that divides by zero on a
// matched pair, long after the join's build side went to disk — every
// per-worker memAcct must release exactly what it held. Any drift leaks into
// the session-shared tracker and silently shrinks every later statement's
// effective work_mem, so the test runs the failing statement repeatedly and
// asserts the tracked count returns to zero each time, at a spilling serial
// degree and a per-worker-spilling parallel degree.
func TestWorkerErrorMidSpillNoAccountingDrift(t *testing.T) {
	db := seedParallelDB(t)

	// other.v covers [0,500) ∪ [1000,1500) ∪ ... — b.v = 1200 has an
	// equi-match, so the residual condition is reached and errors there.
	const q = `SELECT b.k, o.s FROM big b JOIN other o ON b.v = o.v AND b.v / (b.v - 1200) >= 0`

	// The budget follows what the executor charges for the build side, the
	// 3000 rows of other, so it moves with the executor's own accounting. A
	// row costs rowBytes = slice header + three values + its ~10-byte string;
	// the gather materializes the shared build side at rowBytes + a slice
	// header per row. What a hash join charges for the same rows — row, slot,
	// key bytes and table entry, the expressions of executor/mem.go — is read
	// off the executor: the peak of the serial join under the default budget,
	// which it is far below. The budget sits halfway between the two: above
	// the shared build side (so the partition-wise join engages rather than
	// falling back to serial), below one join's table (so the serial join
	// spills), and so below shared side + one worker's re-charge (so each
	// worker's private join account overflows and spills through the grace
	// path).
	const buildRows = 3000
	rowBytes := int(unsafe.Sizeof(value.Row{})) + 3*int(unsafe.Sizeof(value.Value{})) + 10
	shared := buildRows * (rowBytes + int(unsafe.Sizeof(value.Row{})))
	ref := db.NewSession()
	mustExecSpill(t, ref, `SET parallelism = 1`)
	mustExecSpill(t, ref, `SELECT b.k, o.s FROM big b JOIN other o ON b.v = o.v`)
	table := int(ref.MemStatus().Peak)
	ref.Close()
	if table < shared+buildRows*int(unsafe.Sizeof(value.Row{})) {
		t.Fatalf("a hash join charged %d bytes for a build side the gather holds in %d: no budget separates them", table, shared)
	}
	budget := (shared + table) / 2

	for _, deg := range []int{1, 4} {
		s := db.NewSession()
		s.SetTempDir(t.TempDir())
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, budget))

		for i := 0; i < 3; i++ {
			_, err := s.Execute(q)
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("parallelism=%d run %d: want division-by-zero error, got %v", deg, i, err)
			}
			ms := s.MemStatus()
			if ms.Tracked != 0 {
				t.Fatalf("parallelism=%d run %d: tracked bytes after failed statement = %d, want 0 (per-worker account drift)", deg, i, ms.Tracked)
			}
		}
		ms := s.MemStatus()
		if ms.SpillFiles == 0 {
			t.Fatalf("parallelism=%d: statement never spilled — the test lost its mid-spill coverage: %+v", deg, ms)
		}

		// The session must be fully usable afterwards, with the whole budget:
		// the same join without the poisoned residual answers correctly.
		res := mustExecSpill(t, s, `SELECT count(*) FROM big b JOIN other o ON b.v = o.v`)
		if res.Rows[0][0].Int() == 0 {
			t.Fatalf("parallelism=%d: follow-up join returned no rows", deg)
		}
		if ms := s.MemStatus(); ms.Tracked != 0 {
			t.Fatalf("parallelism=%d: tracked bytes after follow-up statement = %d, want 0", deg, ms.Tracked)
		}
		s.Close()
	}
}
