package perm_test

import (
	"fmt"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/value"
)

// TestPreparedWriteAllocations: a prepared write allocates no more now that
// it is a cached plan than it did when it ran beside the query pipeline: the
// bounds are the counts of the same runs at 2acdf45.
func TestPreparedWriteAllocations(t *testing.T) {
	if raceEnabled || staleRows {
		t.Skip("allocation counts are not meaningful under the race detector or poisoned rows")
	}
	s := engine.NewDB().NewSession()
	defer s.Close()
	exec := func(q string) {
		if _, err := s.Execute(q); err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
	}
	exec(`CREATE TABLE acct (id int, bal int)`)
	exec(`CREATE TABLE ev (id int, v text)`)
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 100)", i))
	}
	exec(`INSERT INTO acct VALUES ` + strings.Join(vals, ", "))
	type write struct {
		q, tag string
		args   func(i int64) []value.Value
		max    float64
	}
	for _, w := range []write{
		{`INSERT INTO ev VALUES (?, ?)`, "INSERT 1", func(i int64) []value.Value { return []value.Value{value.NewInt(i), value.NewString("x")} }, 30},
		{`UPDATE acct SET bal = bal + ? WHERE id = ?`, "UPDATE 1", func(int64) []value.Value { return []value.Value{value.NewInt(1), value.NewInt(777)} }, 47},
		{`DELETE FROM ev WHERE id >= ? AND id < ?`, "DELETE 1", func(i int64) []value.Value { return []value.Value{value.NewInt(i), value.NewInt(i + 1)} }, 41},
	} {
		p, err := s.Prepare(w.q)
		if err != nil {
			t.Fatal(err)
		}
		var i int64
		got := testing.AllocsPerRun(50, func() {
			if res, err := p.Exec(w.args(i)...); err != nil || res.Tag != w.tag {
				t.Fatalf("%s: %v, %v", w.q, res, err)
			}
			i++
		})
		t.Logf("%s: %v allocations", w.q, got)
		if got > w.max {
			t.Errorf("%s: %v allocations, %v at 2acdf45", w.q, got, w.max)
		}
	}
}
