package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestSizeHintsNeverChangeResults: a cached plan sizes its slabs from its last
// run, and that must only ever change capacity. One plan-cached session runs
// the forced-spill battery while the tables grow tenfold and shrink back, so
// every hint is stale in both directions, and each result must be
// byte-identical to a session without the plan cache — in memory and spilling,
// serial and parallel.
func TestSizeHintsNeverChangeResults(t *testing.T) {
	for _, workMem := range []int{DefaultWorkMem, tinyWorkMem} {
		for _, degree := range []int{1, 2} {
			t.Run(fmt.Sprintf("work_mem=%d/parallelism=%d", workMem, degree), func(t *testing.T) {
				db := NewDB()
				cached, ref := db.NewSession(), db.NewSession()
				defer cached.Close()
				defer ref.Close()
				mustExecSpill(t, cached, `CREATE TABLE big (k int, v int, s text)`)
				mustExecSpill(t, cached, `CREATE TABLE other (k int, v int, s text)`)
				for _, s := range []*Session{cached, ref} {
					mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, workMem))
					mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, degree))
				}
				mustExecSpill(t, ref, `SET plan_cache = 'off'`)
				for _, rows := range []int{300, 3000, 300} {
					resizeSpillTables(t, cached, rows)
					for _, q := range spillSuite {
						want := renderFull(mustExecSpill(t, ref, q))
						// The first run reads the hints of the last size, the
						// second those of this one.
						for run := 0; run < 2; run++ {
							if got := renderFull(mustExecSpill(t, cached, q)); got != want {
								t.Fatalf("%d rows, run %d: %q diverged from the uncached session:\nwant:\n%.1000s\ngot:\n%.1000s", rows, run, q, want, got)
							}
						}
					}
				}
				if hits, _, _ := cached.PlanCacheStats(); hits == 0 {
					t.Fatal("the cached session never hit its plan cache")
				}
			})
		}
	}
}

// resizeSpillTables refills big with n rows and other with n/2, in the shape
// seedSpillDB gives them: duplicated keys, distinct payloads.
func resizeSpillTables(t *testing.T, s *Session, n int) {
	t.Helper()
	for table, rows := range map[string]int{"big": n, "other": n / 2} {
		mustExecSpill(t, s, `DELETE FROM `+table)
		for lo := 0; lo < rows; lo += 1000 {
			var b strings.Builder
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
			for i := lo; i < min(lo+1000, rows); i++ {
				if i > lo {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %d, 'payload %d')", (i*7919)%50, i, i%97)
			}
			mustExecSpill(t, s, b.String())
		}
	}
}
