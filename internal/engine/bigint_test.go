package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestBigIntKeysStayDistinct: integers above 2^53 are distinct values with
// distinct canonical keys. Routing them through float64 gave neighbours one
// key, so every hash operator — DISTINCT, GROUP BY, count(DISTINCT),
// INTERSECT/EXCEPT, the hash join's buckets — merged 2^53 with 2^53+1 while
// `=` still told them apart. big holds n consecutive integers from 2^53 up;
// odd holds every second one. Checked in memory and under a 4 KiB work_mem,
// where the same keys also route the grace partitions.
func TestBigIntKeysStayDistinct(t *testing.T) {
	const base, n = int64(1) << 53, 2000
	db := NewDB()
	setup := db.NewSession()
	defer setup.Close()
	mustExecSpill(t, setup, `CREATE TABLE big (i int, j int)`)
	mustExecSpill(t, setup, `CREATE TABLE odd (i int)`)
	var all, odds []string
	for k := int64(0); k < n; k++ {
		all = append(all, fmt.Sprintf("(%d, %d)", base+k, k))
		if k%2 == 1 {
			odds = append(odds, fmt.Sprintf("(%d)", base+k))
		}
	}
	mustExecSpill(t, setup, `INSERT INTO big VALUES `+strings.Join(all, ", "))
	mustExecSpill(t, setup, `INSERT INTO odd VALUES `+strings.Join(odds, ", "))

	for _, workMem := range []int{0, tinyWorkMem} {
		t.Run(fmt.Sprintf("work_mem=%d", workMem), func(t *testing.T) {
			s := db.NewSession()
			defer s.Close()
			if workMem > 0 {
				s.SetTempDir(t.TempDir())
				mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, workMem))
			}
			rows := func(q string) [][]string {
				var out [][]string
				for _, r := range mustExecSpill(t, s, q).Rows {
					cells := make([]string, len(r))
					for i, v := range r {
						cells[i] = v.String()
					}
					out = append(out, cells)
				}
				return out
			}
			if got := rows(`SELECT DISTINCT i FROM big`); len(got) != n {
				t.Errorf("DISTINCT: %d rows, want %d", len(got), n)
			}
			groups := rows(`SELECT i, count(*) FROM big GROUP BY i`)
			if len(groups) != n {
				t.Errorf("GROUP BY: %d groups, want %d", len(groups), n)
			}
			for _, g := range groups {
				if g[1] != "1" {
					t.Errorf("GROUP BY: group %s has %s rows, want 1", g[0], g[1])
					break
				}
			}
			if got := rows(`SELECT count(DISTINCT i) FROM big`); got[0][0] != fmt.Sprint(n) {
				t.Errorf("count(DISTINCT): %s, want %d", got[0][0], n)
			}
			// The set operations must keep exactly the odd (INTERSECT) and
			// exactly the even (EXCEPT) integers, in big's order.
			for _, tc := range []struct {
				q     string
				first int64
			}{
				{`SELECT i FROM big INTERSECT SELECT i FROM odd`, base + 1},
				{`SELECT i FROM big EXCEPT SELECT i FROM odd`, base},
				{`SELECT i FROM big INTERSECT ALL SELECT i FROM odd`, base + 1},
				{`SELECT i FROM big EXCEPT ALL SELECT i FROM odd`, base},
			} {
				got := rows(tc.q)
				if len(got) != n/2 {
					t.Errorf("%s: %d rows, want %d", tc.q, len(got), n/2)
					continue
				}
				for k, r := range got {
					if want := fmt.Sprint(tc.first + 2*int64(k)); r[0] != want {
						t.Errorf("%s: row %d is %s, want %s", tc.q, k, r[0], want)
						break
					}
				}
			}
			join := rows(`SELECT big.j, odd.i FROM big JOIN odd ON big.i = odd.i`)
			if len(join) != n/2 {
				t.Errorf("equi-join: %d rows, want %d", len(join), n/2)
			}
			for k, r := range join {
				if r[0] != fmt.Sprint(2*k+1) || r[1] != fmt.Sprint(base+int64(2*k+1)) {
					t.Errorf("equi-join: row %d is %v", k, r)
					break
				}
			}
			if workMem > 0 && s.MemStatus().SpillFiles == 0 {
				t.Error("the 4 KiB session never spilled")
			}
		})
	}
}
