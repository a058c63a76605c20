package storage

import (
	"sync"
	"testing"

	"perm/internal/catalog"
	"perm/internal/value"
)

func intTable(t *testing.T, s *Store, name string, cols ...string) *Table {
	t.Helper()
	def := &catalog.TableDef{Name: name}
	for _, c := range cols {
		def.Columns = append(def.Columns, catalog.Column{Name: c, Type: value.KindInt})
	}
	tab, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestInsertAndScan(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a", "b")
	n, err := tab.Insert(value.Row{value.NewInt(1), value.NewInt(2)})
	if err != nil || n != 1 {
		t.Fatalf("Insert: %d, %v", n, err)
	}
	rows := tab.Snapshot()
	if len(rows) != 1 || rows[0][1].Int() != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestInsertTypeCoercion(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	if _, err := tab.Insert(value.Row{value.NewString("42")}); err != nil {
		t.Fatalf("string->int coercion on insert: %v", err)
	}
	if got := tab.Snapshot()[0][0]; got.Kind() != value.KindInt || got.Int() != 42 {
		t.Errorf("stored %v", got)
	}
	if _, err := tab.Insert(value.Row{value.NewString("nope")}); err == nil {
		t.Error("uncoercible insert must fail")
	}
}

func TestInsertArityAndNotNull(t *testing.T) {
	s := NewStore()
	def := &catalog.TableDef{Name: "t", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt, NotNull: true},
		{Name: "b", Type: value.KindString},
	}}
	tab, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(value.Row{value.NewInt(1)}); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := tab.Insert(value.Row{value.Null, value.NewString("x")}); err == nil {
		t.Error("NOT NULL violation must fail")
	}
	if _, err := tab.Insert(value.Row{value.NewInt(1), value.Null}); err != nil {
		t.Errorf("nullable column must accept NULL: %v", err)
	}
}

func TestInsertBatchAtomicity(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	_, err := tab.InsertBatch([]value.Row{
		{value.NewInt(1)},
		{value.NewString("bad")},
	})
	if err == nil {
		t.Fatal("batch with a bad row must fail")
	}
	if tab.RowCount() != 0 {
		t.Errorf("failed batch must not insert anything, have %d rows", tab.RowCount())
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	for i := 1; i <= 5; i++ {
		tab.Insert(value.Row{value.NewInt(int64(i))})
	}
	n, err := rewrite(nil, tab, func(r value.Row) (bool, error) { return r[0].Int()%2 == 0, nil }, nil)
	if err != nil || n != 2 {
		t.Fatalf("Delete: %d, %v", n, err)
	}
	if tab.RowCount() != 3 {
		t.Errorf("rows left = %d", tab.RowCount())
	}
	n, err = rewrite(nil, tab, nil, nil)
	if err != nil || n != 3 {
		t.Fatalf("Delete(nil): %d, %v", n, err)
	}
}

func TestUpdate(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	for i := 1; i <= 3; i++ {
		tab.Insert(value.Row{value.NewInt(int64(i))})
	}
	n, err := rewrite(nil, tab,
		func(r value.Row) (bool, error) { return r[0].Int() > 1, nil },
		func(r value.Row) (value.Row, error) {
			return value.Row{value.NewInt(r[0].Int() * 10)}, nil
		})
	if err != nil || n != 2 {
		t.Fatalf("Update: %d, %v", n, err)
	}
	rows := tab.Snapshot()
	if rows[0][0].Int() != 1 || rows[1][0].Int() != 20 || rows[2][0].Int() != 30 {
		t.Errorf("rows = %v", rows)
	}
}

func TestUpdateTypeChecked(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	tab.Insert(value.Row{value.NewInt(1)})
	_, err := rewrite(nil, tab, nil, func(r value.Row) (value.Row, error) {
		return value.Row{value.NewString("bad")}, nil
	})
	if err == nil {
		t.Error("update writing a bad value must fail")
	}
}

func TestStoreDropTable(t *testing.T) {
	s := NewStore()
	intTable(t, s, "t", "a")
	if err := s.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	if s.Table("t") != nil {
		t.Error("heap must be gone")
	}
	if err := s.DropTable("t"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestAnalyze(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a", "b")
	for i := 0; i < 10; i++ {
		tab.Insert(value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 2))})
	}
	if err := s.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	st := s.Catalog().TableStats("t")
	if st.RowCount != 10 {
		t.Errorf("rowcount = %d", st.RowCount)
	}
	if st.DistinctFrac["a"] != 1.0 {
		t.Errorf("distinct frac a = %v", st.DistinctFrac["a"])
	}
	if st.DistinctFrac["b"] != 0.2 {
		t.Errorf("distinct frac b = %v", st.DistinctFrac["b"])
	}
	if err := s.Analyze("missing"); err == nil {
		t.Error("analyzing a missing table must fail")
	}
}

// TestAnalyzeAllocatesPerDistinctValue: counting a column's distinct values
// costs an allocation per value seen for the first time, not one per row — a
// loaded table of 4 000 rows and 8 values is counted in a few dozen.
func TestAnalyzeAllocatesPerDistinctValue(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a", "b")
	const n = 4000
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % 8)), value.NewInt(int64(i % 3))}
	}
	if _, err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := s.Analyze("t"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/20 {
		t.Errorf("ANALYZE of %d rows with 8 and 3 distinct values: %v allocations, want well under one per row", n, allocs)
	}
	if st := s.Catalog().TableStats("t"); st.DistinctFrac["a"] != 8.0/n || st.DistinctFrac["b"] != 3.0/n {
		t.Errorf("distinct fractions %v", st.DistinctFrac)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	tab.Insert(value.Row{value.NewInt(1)})
	snap := tab.Snapshot()
	tab.Insert(value.Row{value.NewInt(2)})
	if len(snap) != 1 {
		t.Error("snapshot must not observe later inserts")
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tab.Insert(value.Row{value.NewInt(int64(i*100 + j))})
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = tab.Snapshot()
			}
		}()
	}
	wg.Wait()
	if tab.RowCount() != 400 {
		t.Errorf("rows = %d, want 400", tab.RowCount())
	}
}

// TestSnapshotCopyOnWrite pins the aliasing contract of Snapshot: the shared
// slice returned without copying must stay stable across every mutation kind
// (append, delete, update), since the executor streams it directly.
func TestSnapshotCopyOnWrite(t *testing.T) {
	s := NewStore()
	tab := intTable(t, s, "t", "a")
	for i := 1; i <= 3; i++ {
		tab.Insert(value.Row{value.NewInt(int64(i))})
	}
	snap := tab.Snapshot()

	if _, err := rewrite(nil, tab, func(r value.Row) (bool, error) { return r[0].Int() == 2, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rewrite(nil, tab, nil, func(r value.Row) (value.Row, error) {
		return value.Row{value.NewInt(r[0].Int() * 10)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	tab.Insert(value.Row{value.NewInt(99)})

	if len(snap) != 3 {
		t.Fatalf("snapshot length changed to %d", len(snap))
	}
	for i, want := range []int64{1, 2, 3} {
		if snap[i][0].Int() != want {
			t.Errorf("snapshot row %d = %v, want %d (mutation leaked into snapshot)", i, snap[i][0], want)
		}
	}
}
