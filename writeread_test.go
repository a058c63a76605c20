package perm_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/value"
)

// TestWriteThenReadBytesIndependentOfTableSize: a write costs what it
// changes. A prepared point UPDATE followed by a prepared point SELECT
// allocates the same bytes on a table of 20 000 rows as on one of 2 000,
// because a scan walks the row versions in place at its snapshot instead of
// copying the table's visible rows after every write. At 5ae6936, where the
// first read after a write copied them, this test measured 53 887 bytes per
// pair at 2 000 rows and 488 047 at 20 000.
func TestWriteThenReadBytesIndependentOfTableSize(t *testing.T) {
	if raceEnabled || staleRows {
		t.Skip("allocation counts are not meaningful under the race detector or poisoned rows")
	}
	perPair := func(rows int) float64 {
		s := engine.NewDB().NewSession()
		defer s.Close()
		if _, err := s.Execute(`CREATE TABLE acct (id int, owner text, bal int, grp int)`); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < rows; lo += 1000 {
			var vals []string
			for i := lo; i < lo+1000; i++ {
				vals = append(vals, fmt.Sprintf("(%d, 'owner%d', 100, %d)", i, i%500, i%16))
			}
			if _, err := s.Execute(`INSERT INTO acct VALUES ` + strings.Join(vals, ", ")); err != nil {
				t.Fatal(err)
			}
		}
		upd, err := s.Prepare(`UPDATE acct SET bal = bal + ? WHERE id = ?`)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := s.Prepare(`SELECT id, owner, bal, grp FROM acct WHERE id = ?`)
		if err != nil {
			t.Fatal(err)
		}
		pair := func(i int) {
			id := value.NewInt(int64(i * 7919 % rows))
			if res, err := upd.Exec(value.NewInt(1), id); err != nil || res.Tag != "UPDATE 1" {
				t.Fatalf("update: %v, %v", res, err)
			}
			if res, err := sel.Exec(id); err != nil || len(res.Rows) != 1 {
				t.Fatalf("select: %v, %v", res, err)
			}
		}
		for i := 0; i < 20; i++ { // plan cache and size hints warm
			pair(i)
		}
		const pairs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			pair(20 + i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / pairs
	}
	small, big := perPair(2_000), perPair(20_000)
	t.Logf("UPDATE then SELECT: %.0f bytes per pair at 2 000 rows, %.0f at 20 000", small, big)
	if big > small*1.1 {
		t.Fatalf("the pair allocates with the table: %.0f bytes at 2 000 rows, %.0f at 20 000 (more than 10%% apart)", small, big)
	}
}
