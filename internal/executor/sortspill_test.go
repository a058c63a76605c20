package executor

import (
	"runtime"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
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
