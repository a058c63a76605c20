package executor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// seedSortStore builds a store with one narrow table big(k, v) of n rows,
// keys scrambled so the sort actually has to work.
func seedSortStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	tt, err := s.CreateTable(&catalog.TableDef{Name: "big", Columns: []catalog.Column{
		{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64((i * 7919) % n)), value.NewInt(int64(i)),
		})
	}
	if _, err := tt.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func sortBigPlan() *algebra.Sort {
	return &algebra.Sort{
		Input: &algebra.Scan{Table: "big", Alias: "big", Sch: algebra.Schema{
			{Name: "k", Table: "big", Type: value.KindInt},
			{Name: "v", Table: "big", Type: value.KindInt},
		}},
		Keys: []algebra.SortKey{{Expr: &algebra.ColIdx{Idx: 0, Typ: value.KindInt}}},
	}
}

// TestSortRunSizingTinyBudget is the budget-aware run-sizing regression: a
// micro work_mem (4 KiB) must not shear external-sort runs down to the
// minSortRunRows floor. Undersized runs mean a spill file per few KiB of
// input plus fan-in reduction passes that re-decode every row they touch —
// pure allocation churn. Runs are floored at minSortRunBytes, so this sort
// must finish in few, large runs: the test pins the spill-file count and the
// total allocation count, both of which regress by an integer factor if runs
// collapse back to row-floor sizing.
func TestSortRunSizingTinyBudget(t *testing.T) {
	const n = 20000
	s := seedSortStore(t, n)
	plan := sortBigPlan()

	ctx := NewContext(s)
	ctx.Mem = NewMemTracker(4096, t.TempDir())
	defer ctx.Mem.Cleanup()

	var res *Result
	allocs := allocsDuring(func() {
		var err error
		res, err = Run(ctx, plan)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	})

	if len(res.Rows) != n {
		t.Fatalf("sorted %d rows, want %d", len(res.Rows), n)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Int() > res.Rows[i][0].Int() {
			t.Fatalf("rows %d/%d out of order: %v > %v", i-1, i, res.Rows[i-1][0].Int(), res.Rows[i][0].Int())
		}
	}
	if tracked := ctx.Mem.Tracked(); tracked != 0 {
		t.Fatalf("tracked bytes after drain = %d, want 0", tracked)
	}

	// ~3.3 MB of input at >= 128 KiB per run is at most ~30 runs, merged in a
	// single fan-in (no reduction passes, no extra files). Row-floor runs of
	// 256 rows would produce ~79 run files plus reduction-pass output files.
	files := ctx.Mem.Pool().Files()
	if files == 0 {
		t.Fatal("sort never spilled under a 4 KiB budget")
	}
	if files > 40 {
		t.Errorf("spill files = %d, want <= 40 (budget-sized runs regressed to row-floor runs)", files)
	}

	// The allocation pin. Budget-sized runs measure ~n*4 allocations here;
	// row-floor runs add a reduction pass (a re-decode and re-encode of
	// mergeFanIn*minSortRunRows rows) and ~3x the file and buffer churn,
	// measuring ~n*6.5 — past this bound with margin on both sides.
	if limit := int64(n * 5); allocs > limit {
		t.Errorf("sort at 4 KiB work_mem made %d allocations, want <= %d", allocs, limit)
	}
	t.Logf("spill files=%d allocs=%d (n=%d)", files, allocs, n)
}

// allocsDuring counts heap allocations made by f on the calling goroutine.
func allocsDuring(f func()) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs)
}

// sortRefRows makes n rows (k, f, s, id) built to tie: k is one of five
// integers or NULL, f a number that is sometimes an INT and sometimes the
// FLOAT equal to it, s one of three strings, id the row's place in the input.
func sortRefRows(n int, seed int64) (*algebra.Values, []value.Row) {
	rng := rand.New(rand.NewSource(seed))
	in := &algebra.Values{Sch: algebra.Schema{{Name: "k", Type: value.KindInt}, {Name: "f", Type: value.KindFloat},
		{Name: "s", Type: value.KindString}, {Name: "id", Type: value.KindInt}}}
	rows := make([]value.Row, n)
	for i := range rows {
		k := value.Null
		if rng.Intn(6) > 0 {
			k = value.NewInt(int64(rng.Intn(5)))
		}
		var f value.Value
		switch x := rng.Intn(4); rng.Intn(3) {
		case 0:
			f = value.NewInt(int64(x))
		case 1:
			f = value.NewFloat(float64(x))
		default:
			f = value.NewFloat(float64(x) + 0.5)
		}
		rows[i] = value.Row{k, f, value.NewString(strings.Repeat("s", 1+rng.Intn(3))), value.NewInt(int64(i))}
		exprs := make([]algebra.Expr, len(rows[i]))
		for c, v := range rows[i] {
			exprs[c] = &algebra.Const{Val: v}
		}
		in.Rows = append(in.Rows, exprs)
	}
	return in, rows
}

// TestSortMatchesStableReference: the sort under the total order (keys, input
// sequence) returns, row for row, what a stable sort by the keys returns — the
// reference below is sort.SliceStable over value.CompareTotal, which the
// executor no longer contains — for plain-column and computed keys, DESC,
// NULLs, heavy ties and keys that mix INT with FLOAT, in memory and through
// the external sort at a 4 KiB work_mem.
func TestSortMatchesStableReference(t *testing.T) {
	const n = 6000
	in, rows := sortRefRows(n, 7)
	col := func(i int, k value.Kind) algebra.Expr { return &algebra.ColIdx{Idx: i, Typ: k} }
	// k % 3: a computed key that maps NULL to NULL and two of k's values to one.
	kMod3 := &algebra.Bin{Op: sql.OpMod, L: col(0, value.KindInt), R: intConst(3)}
	for _, tc := range []struct {
		name string
		keys []algebra.SortKey
		eval func(r value.Row) value.Row // the key values, for the reference
	}{
		{"one column, heavy ties", []algebra.SortKey{{Expr: col(0, value.KindInt)}},
			func(r value.Row) value.Row { return value.Row{r[0]} }},
		{"DESC with NULLs, then a mixed INT/FLOAT column", []algebra.SortKey{{Expr: col(0, value.KindInt), Desc: true}, {Expr: col(1, value.KindFloat)}},
			func(r value.Row) value.Row { return value.Row{r[0], r[1]} }},
		{"computed key", []algebra.SortKey{{Expr: kMod3}},
			func(r value.Row) value.Row { v, _ := value.Mod(r[0], value.NewInt(3)); return value.Row{v} }},
		{"column, computed DESC, column", []algebra.SortKey{{Expr: col(2, value.KindString)}, {Expr: kMod3, Desc: true}, {Expr: col(1, value.KindFloat), Desc: true}},
			func(r value.Row) value.Row { v, _ := value.Mod(r[0], value.NewInt(3)); return value.Row{r[2], v, r[1]} }},
	} {
		want := append([]value.Row(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := tc.eval(want[i]), tc.eval(want[j])
			for k := range a {
				if c := value.CompareTotal(a[k], b[k]); c != 0 {
					return (c < 0) != tc.keys[k].Desc
				}
			}
			return false
		})
		for _, budget := range []int64{0, 4096} {
			t.Run(fmt.Sprintf("%s/work_mem=%d", tc.name, budget), func(t *testing.T) {
				ctx := NewContext(nil)
				ctx.Mem = NewMemTracker(budget, t.TempDir())
				defer ctx.Mem.Cleanup()
				res, err := Run(ctx, &algebra.Sort{Input: in, Keys: tc.keys})
				if err != nil {
					t.Fatal(err)
				}
				if spilled := ctx.Mem.Pool().Files() > 0; spilled != (budget > 0) {
					t.Fatalf("spilled: %v at work_mem %d", spilled, budget)
				}
				if len(res.Rows) != n {
					t.Fatalf("%d rows, want %d", len(res.Rows), n)
				}
				for i, r := range res.Rows {
					if len(r) != 4 || cap(r) != 4 || r[3].Int() != want[i][3].Int() {
						t.Fatalf("row %d is %v (cap %d), the stable reference has %v", i, r, cap(r), want[i])
					}
				}
				if tracked := ctx.Mem.Tracked(); tracked != 0 {
					t.Errorf("tracked bytes after drain = %d", tracked)
				}
			})
		}
	}
}
