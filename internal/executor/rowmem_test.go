package executor

import (
	"fmt"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/storage"
	"perm/internal/value"
)

// rowMemStore holds one table wide(k int, a text, b int) of n rows.
func rowMemStore(t *testing.T, n int) (*storage.Store, *algebra.Scan) {
	t.Helper()
	s := storage.NewStore()
	tab, err := s.CreateTable(&catalog.TableDef{Name: "wide", Columns: []catalog.Column{
		{Name: "k", Type: value.KindInt}, {Name: "a", Type: value.KindString}, {Name: "b", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("a-%d", i)), value.NewInt(int64(i % 7))}
	}
	if _, err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return s, &algebra.Scan{Table: "wide", Alias: "wide", Sch: algebra.Schema{
		{Name: "k", Table: "wide", Type: value.KindInt},
		{Name: "a", Table: "wide", Type: value.KindString},
		{Name: "b", Table: "wide", Type: value.KindInt},
	}}
}

// TestProjectAliasesLeadingColumns: a projection of its input's columns
// 0..n-1 hands on the input row itself — whole for the identity, re-sliced
// with the capacity clipped for a prefix — and allocates nothing; any other
// projection builds its rows. EXPLAIN ANALYZE counts the operator either way.
func TestProjectAliasesLeadingColumns(t *testing.T) {
	s, scan := rowMemStore(t, 300)
	strCol := func(i int) *algebra.ColIdx { return &algebra.ColIdx{Idx: i, Typ: value.KindString} }
	for _, tc := range []struct {
		name   string
		exprs  []algebra.Expr
		names  []string
		cols   []int
		shares bool
	}{
		{"identity", []algebra.Expr{intCol(0), strCol(1), intCol(2)}, []string{"x", "y", "z"}, []int{0, 1, 2}, true},
		{"prefix", []algebra.Expr{intCol(0), strCol(1)}, []string{"k", "a"}, []int{0, 1}, true},
		{"reordered", []algebra.Expr{strCol(1), intCol(0)}, []string{"a", "k"}, []int{1, 0}, false},
		{"suffix", []algebra.Expr{strCol(1), intCol(2)}, []string{"a", "b"}, []int{1, 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := NewContext(s)
			base, err := ctx.TableRows("wide")
			if err != nil {
				t.Fatal(err)
			}
			stream, stats, err := OpenInstrumented(ctx, algebra.NewProject(scan, tc.exprs, tc.names))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := stream.Drain()
			if err != nil || len(rows) != len(base) {
				t.Fatalf("%d rows, %v; want %d", len(rows), err, len(base))
			}
			for i, row := range rows {
				if len(row) != len(tc.cols) || cap(row) != len(tc.cols) {
					t.Fatalf("row %d: len %d cap %d, want %d and %d: an append to it could reach the columns behind it", i, len(row), cap(row), len(tc.cols), len(tc.cols))
				}
				for j, c := range tc.cols {
					if value.Distinct(row[j], base[i][c]) {
						t.Fatalf("row %d column %d = %v, want %v", i, j, row[j], base[i][c])
					}
				}
				if shares := &row[0] == &base[i][0]; shares != tc.shares {
					t.Fatalf("row %d shares the input row's memory: %v, want %v", i, shares, tc.shares)
				}
			}
			if _, ok := stats.Op.(*algebra.Project); !ok || stats.Rows != int64(len(base)) {
				t.Errorf("the stats root is %T with %d rows, want the projection with %d", stats.Op, stats.Rows, len(base))
			}
		})
	}
}
