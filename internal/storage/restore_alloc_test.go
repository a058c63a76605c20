//go:build !race

// The race detector allocates on the program's behalf, so the counting test
// here is built without it.

package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"perm/internal/catalog"
	"perm/internal/value"
)

// TestRestoreStreams: Restore reads a snapshot a frame at a time and installs
// the decoded rows as they are, so what it allocates is the rows themselves
// (a row is cut from a slab; its string and its version are one allocation
// each) and not the stream, a copy of every row, or anything per row beside
// them.
func TestRestoreStreams(t *testing.T) {
	const n = 100_000
	s := NewStore()
	tab := mustCreate(t, s, "t", intCol("i"), textCol("s"),
		catalog.Column{Name: "f", Type: value.KindFloat}, intCol("j"), catalog.Column{Name: "b", Type: value.KindBool})
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprint("witness ", i)),
			value.NewFloat(float64(i) / 7), value.NewInt(int64(i % 13)), value.NewBool(i%2 == 0)}
	}
	if _, err := tab.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	stream := saveBytes(t, s)
	r := NewStore()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := r.Restore(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	mallocs := after.Mallocs - before.Mallocs
	perRow := float64(mallocs) / n
	t.Logf("Restore of %d rows from a %.2f MB stream: TotalAlloc %.1f → %.1f MB (%.1f MB allocated), %d mallocs (%.2f per row), %.1f MB left live",
		n, float64(len(stream))/1e6, float64(before.TotalAlloc)/1e6, float64(after.TotalAlloc)/1e6,
		float64(after.TotalAlloc-before.TotalAlloc)/1e6, mallocs, perRow, float64(live.HeapAlloc-before.HeapAlloc)/1e6)
	if got := r.Table("t").RowCount(); got != n {
		t.Fatalf("restored %d rows, want %d", got, n)
	}
	if perRow > 2.1 {
		t.Fatalf("Restore allocates %.2f times per row, want at most 2.1", perRow)
	}
}
