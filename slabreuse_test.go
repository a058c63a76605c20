package perm_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/value"
)

// TestPreparedGroupByJoinKeepsItsSlabs: a re-executed prepared GROUP BY over
// a 2 000-row join takes its hash tables, build rows and groups from the
// session, where its last run left them, so once warm it allocates less than
// a tenth of what its first run did. (Sized from its last run but allocated
// afresh, a warm run made 43 % of the first run's bytes.)
func TestPreparedGroupByJoinKeepsItsSlabs(t *testing.T) {
	if raceEnabled || staleRows {
		t.Skip("allocation counts are not meaningful under the race detector or poisoned rows")
	}
	s := engine.NewDB().NewSession()
	defer s.Close()
	for _, q := range []string{`CREATE TABLE a (k int, g int)`, `CREATE TABLE b (k int, v int)`, `SET parallelism = 1`} {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, table := range []string{"a", "b"} {
		var vals []string
		for i := 0; i < 2000; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
		}
		if _, err := s.Execute(`INSERT INTO ` + table + ` VALUES ` + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.Prepare(`SELECT a.g, count(*), sum(b.v) FROM a JOIN b ON a.k = b.k WHERE a.g >= ? GROUP BY a.g`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := p.Exec(value.NewInt(0))
		runtime.ReadMemStats(&after)
		if err != nil || len(res.Rows) != 10 {
			t.Fatalf("%v rows, %v", res, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	for i := 0; i < 3; i++ {
		run()
	}
	warm := run()
	t.Logf("first run %d bytes, warm run %d bytes", first, warm)
	if warm >= first/10 {
		t.Errorf("a warm run allocated %d bytes, the first %d: want under a tenth", warm, first)
	}
}
