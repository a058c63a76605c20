package planner

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/executor"
)

// TestLowerDistinct: each distinct argument gets one δ branch, shared by the
// aggregates over it; the plain aggregates, MIN/MAX(DISTINCT) among them,
// share one more; the branches join on the group columns, and the result is
// the aggregation's rows in its order, with its schema. A subquery's DISTINCT
// aggregate is lowered too, and a plan without one comes back as it was.
func TestLowerDistinct(t *testing.T) {
	s := env(t)
	q := `SELECT a % 3, count(DISTINCT b % 7), count(*), sum(DISTINCT b % 7), max(DISTINCT b), avg(DISTINCT a) FROM t GROUP BY a % 3`
	raw := planOf(t, s, q)
	low := LowerDistinct(raw)
	var aggs, distincts, joins int
	algebra.Walk(low, func(op algebra.Op) {
		switch o := op.(type) {
		case *algebra.Agg:
			aggs++
			if holdsDistinct(o) {
				t.Errorf("%v still holds a DISTINCT aggregate", o.Aggs)
			}
		case *algebra.Distinct:
			distincts++
		case *algebra.Join:
			joins++
			if !strings.Contains(o.Cond.String(), "IS NOT DISTINCT FROM") {
				t.Errorf("branches joined on %s", o.Cond)
			}
		}
	})
	if aggs != 3 || distincts != 2 || joins != 2 {
		t.Errorf("%d aggregations, %d δ, %d joins; want 3, 2, 2:\n%s", aggs, distincts, joins, algebra.Tree(low))
	}
	if !slices.Equal(low.Schema(), raw.Schema()) {
		t.Errorf("schema %v, want %v", low.Schema(), raw.Schema())
	}
	res, err := executor.Run(executor.NewContext(s), low)
	if err != nil {
		t.Fatal(err)
	}
	// a = 1..20, b = 10a: groups in first-appearance order 1, 2, 0.
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprint(r))
	}
	want := []string{"[1 7 7 21 190 10.0]", "[2 7 7 21 200 11.0]", "[0 6 6 21 180 10.5]"}
	if !slices.Equal(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}

	sub := LowerDistinct(planOf(t, s, `SELECT a FROM t WHERE a < (SELECT count(DISTINCT c) FROM u)`))
	if res, err := executor.Run(executor.NewContext(s), sub); err != nil || len(res.Rows) != 20 {
		t.Errorf("a subquery's DISTINCT aggregate: %v", err)
	}
	plain := planOf(t, s, `SELECT a, count(*) FROM t GROUP BY a`)
	if LowerDistinct(plain) != plain {
		t.Error("a plan without a DISTINCT aggregate was rebuilt")
	}
}
