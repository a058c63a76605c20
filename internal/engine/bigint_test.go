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

// TestBigIntEqualsFloatExactly: an INT compared with a FLOAT compares by
// exact numeric value, the equality the hash key encodes. Through float64,
// 9007199254740993 = 9007199254740992.0 was true for `=` — so for WHERE and
// the nested loop — and false for the hash join's key, and the three
// disagreed on the same pair. All three must say false, and still say true
// for the pairs float64 holds exactly.
func TestBigIntEqualsFloatExactly(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `CREATE TABLE bi (i int)`)
	mustExecSpill(t, s, `CREATE TABLE bf (f float)`)
	mustExecSpill(t, s, `INSERT INTO bi VALUES (9007199254740993), (9007199254740992), (5), (-9223372036854775808)`)
	mustExecSpill(t, s, `INSERT INTO bf VALUES (9007199254740992.0), (5.0), (5.5), (-9223372036854775808.0)`)
	const want = "9007199254740992 5 -9223372036854775808"
	for name, q := range map[string]string{
		"WHERE":       `SELECT i FROM bi, bf WHERE i = f`,
		"hash join":   `SELECT i FROM bi JOIN bf ON i = f`,
		"nested loop": `SELECT i FROM bi JOIN bf ON NOT (i <> f)`,
		"IN":          `SELECT i FROM bi WHERE i IN (SELECT f FROM bf)`,
		"range":       `SELECT i FROM bi JOIN bf ON i >= f AND i <= f`,
		"literal":     `SELECT i FROM bi WHERE i = 9007199254740992.0 OR i = 5.0 OR i = -9223372036854775808.0`,
	} {
		for _, opt := range []string{"on", "off"} {
			mustExecSpill(t, s, `SET optimizer = `+opt)
			var got []string
			for _, r := range mustExecSpill(t, s, q).Rows {
				got = append(got, r[0].String())
			}
			if strings.Join(got, " ") != want {
				t.Errorf("%s (optimizer %s): %v, want %s", name, opt, got, want)
			}
		}
	}
	mustExecSpill(t, s, `SET optimizer = on`)
	// The order is exact too: 2^53+1 sorts strictly between 2^53 and 2^53+2.
	res := mustExecSpill(t, s, `SELECT count(*) FROM bi WHERE i > 9007199254740992.0 AND i < 9007199254740994.0`)
	if got := res.Rows[0][0].Int(); got != 1 {
		t.Errorf("9007199254740993 between its float neighbours: count = %d, want 1", got)
	}
}
