package storage

import (
	"bytes"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"perm/internal/catalog"
	"perm/internal/repl"
	"perm/internal/value"
	"perm/internal/wire"
)

// snapshotFixture builds a store holding every value kind and the edge cases
// of each, an empty table, a view and statistics.
func snapshotFixture(t testing.TB, wideRows int) *Store {
	s := NewStore()
	mk := func(name string, cols ...catalog.Column) *Table {
		tab, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: cols})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	kinds := mk("kinds",
		catalog.Column{Name: "b", Type: value.KindBool},
		catalog.Column{Name: "i", Type: value.KindInt, NotNull: true},
		catalog.Column{Name: "f", Type: value.KindFloat},
		catalog.Column{Name: "s", Type: value.KindString})
	if _, err := kinds.InsertBatch([]value.Row{
		{value.Null, value.NewInt(0), value.Null, value.Null},
		{value.NewBool(true), value.NewInt(math.MinInt64), value.NewFloat(math.Copysign(0, -1)), value.NewString("")},
		{value.NewBool(false), value.NewInt(1<<53 + 1), value.NewFloat(math.NaN()), value.NewString("nul\x00byte")},
		{value.NewBool(true), value.NewInt(math.MaxInt64), value.NewFloat(math.Inf(1)), value.NewString("it's")},
		{value.NewBool(false), value.NewInt(-1), value.NewFloat(math.Inf(-1)), value.NewString("héllo")},
	}); err != nil {
		t.Fatal(err)
	}
	mk("empty", catalog.Column{Name: "x", Type: value.KindInt})
	wide := mk("wide", catalog.Column{Name: "n", Type: value.KindInt}, catalog.Column{Name: "s", Type: value.KindString})
	for i := 0; i < wideRows; i++ {
		big := strings.Repeat(string(rune('a'+i)), 3<<20) // 3 MiB: two rows fill a record
		if _, err := wide.Insert(value.Row{value.NewInt(int64(i)), value.NewString(big)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Analyze(""); err != nil {
		t.Fatal(err)
	}
	s.Catalog().SetDistinctFrac("kinds", "f", 0.1+0.2) // not a fraction ANALYZE would write
	if err := s.CreateView(&catalog.ViewDef{Name: "v", Text: "SELECT i, s FROM kinds WHERE b",
		Columns: []catalog.Column{{Name: "i", Type: value.KindInt}, {Name: "s", Type: value.KindString}}}); err != nil {
		t.Fatal(err)
	}
	return s
}

// saveBytes saves s and returns the stream.
func saveBytes(t testing.TB, s *Store) []byte {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// insertRecords counts the KindInsert records per table in a snapshot
// stream, walking its frames the way Restore reads them.
func insertRecords(t *testing.T, stream []byte) map[string]int {
	fr := repl.NewFrameReader(bytes.NewReader(stream[len(snapshotMagic)+1:]))
	if _, err := fr.Next(); err != nil { // the LSN and origin
		t.Fatal(err)
	}
	counts := map[string]int{}
	for {
		p, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(p, []byte(snapshotEnd)) {
			return counts
		}
		rec, err := repl.ReadRecord(wire.NewReader(p))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == repl.KindInsert {
			counts[rec.Table]++
		}
	}
}

// TestSnapshotRoundTrip: Restore gives back exactly what Save saw — every
// value bit for bit, empty and multi-record tables, the view, the statistics,
// the LSN and the origin — and saving the restored store writes the same
// bytes again.
func TestSnapshotRoundTrip(t *testing.T) {
	s := snapshotFixture(t, 3)
	stream := saveBytes(t, s)
	if got := insertRecords(t, stream); got["wide"] < 2 || got["kinds"] != 1 || got["empty"] != 0 {
		t.Fatalf("insert records per table %v: want the 3 MiB rows cut into several, one for kinds, none for empty", got)
	}
	r := NewStore()
	if err := r.Restore(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	if r.Log().LastLSN() != s.Log().LastLSN() || r.Origin() != s.Origin() {
		t.Fatalf("restored at LSN %d origin %x, saved at %d origin %x", r.Log().LastLSN(), r.Origin(), s.Log().LastLSN(), s.Origin())
	}
	for _, name := range s.Catalog().TableNames() {
		want, got := s.Table(name).Snapshot(), r.Table(name).Snapshot()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows restored, want %d", name, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				w, g := want[i][j], got[i][j]
				if w.Kind() != g.Kind() || w.Bool() != g.Bool() || w.Int() != g.Int() || w.Str() != g.Str() ||
					math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
					t.Fatalf("%s row %d column %d: restored %#v, want %#v", name, i, j, g, w)
				}
			}
		}
		ws, gs := s.Catalog().TableStats(name), r.Catalog().TableStats(name)
		if gs.RowCount != len(want) || len(gs.DistinctFrac) != len(ws.DistinctFrac) {
			t.Fatalf("%s: restored stats %+v, saved %+v", name, gs, ws)
		}
		for col, f := range ws.DistinctFrac {
			if math.Float64bits(gs.DistinctFrac[col]) != math.Float64bits(f) {
				t.Fatalf("%s.%s: DistinctFrac %v restored as %v", name, col, f, gs.DistinctFrac[col])
			}
		}
		if !slices.Equal(s.Catalog().Table(name).Columns, r.Catalog().Table(name).Columns) {
			t.Fatalf("%s: columns %v restored as %v", name, s.Catalog().Table(name).Columns, r.Catalog().Table(name).Columns)
		}
	}
	if v := r.Catalog().View("v"); v == nil || v.Text != s.Catalog().View("v").Text || !slices.Equal(v.Columns, s.Catalog().View("v").Columns) {
		t.Fatalf("view restored as %+v", v)
	}
	if again := saveBytes(t, r); !bytes.Equal(again, stream) {
		t.Fatalf("save → restore → save is not byte-identical: %d bytes, then %d", len(stream), len(again))
	}
}

// TestSaveDoesNotCopyRows: Save walks the heap it pinned and encodes each
// row in place, so ten times the rows cost no more objects and hardly more
// bytes — what a save allocates is one record buffer, whatever the table
// holds.
func TestSaveDoesNotCopyRows(t *testing.T) {
	cost := func(n int) (objects, bytes uint64) {
		s := NewStore()
		tab := mustCreate(t, s, "t", intCol("i"), textCol("s"))
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i)), value.NewString("provenance")}
		}
		if _, err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	smallObj, smallBytes := cost(10_000)
	bigObj, bigBytes := cost(100_000)
	t.Logf("Save of 10 000 rows: %d objects, %d bytes; of 100 000 rows: %d objects, %d bytes", smallObj, smallBytes, bigObj, bigBytes)
	if bigObj > smallObj+2 || bigBytes*4 > smallBytes*5 {
		t.Fatalf("Save allocates with the rows: %d → %d objects, %d → %d bytes for 10× the rows", smallObj, bigObj, smallBytes, bigBytes)
	}
}

// restoreErr restores stream into a fresh store and returns the error,
// failing the test unless an error reads as a corrupt snapshot.
func restoreErr(t testing.TB, stream []byte) error {
	err := NewStore().Restore(bytes.NewReader(stream))
	if err != nil && !strings.HasPrefix(err.Error(), "storage: corrupt snapshot: ") {
		t.Fatalf("Restore failed with %q, want a corrupt-snapshot error", err)
	}
	return err
}

// TestSnapshotRefusesDamage: a snapshot is frames checksummed like the WAL's
// and closed by an end mark, so every single-bit flip, every cut — at a
// frame boundary too — a byte after the end, and a frame dropped or
// repeated whole are refused as a corrupt snapshot. This fixture's unframed
// version 3 stream restored 1 719 of its 2 608 flips and 5 of its cuts.
func TestSnapshotRefusesDamage(t *testing.T) {
	stream := saveBytes(t, snapshotFixture(t, 0))
	if err := restoreErr(t, stream); err != nil {
		t.Fatal(err)
	}
	damaged := make([]byte, len(stream))
	for bit := 0; bit < 8*len(stream); bit++ {
		copy(damaged, stream)
		damaged[bit/8] ^= 1 << (bit % 8)
		if restoreErr(t, damaged) == nil {
			t.Fatalf("a flip of bit %d of byte %d restored", bit%8, bit/8)
		}
	}
	for n := 0; n < len(stream); n++ {
		if restoreErr(t, stream[:n]) == nil {
			t.Fatalf("the first %d of %d bytes restored", n, len(stream))
		}
	}
	if restoreErr(t, append(stream[:len(stream):len(stream)], 0)) == nil {
		t.Fatal("a byte after the end mark restored")
	}
	// A frame dropped or repeated whole still checks itself; the end mark's
	// sum over the frame headers is what sees it.
	head := len(snapshotMagic) + 1
	fr := repl.NewFrameReader(bytes.NewReader(stream[head:]))
	for off := int64(0); ; off = fr.Offset() {
		if _, err := fr.Next(); err != nil {
			break
		}
		frame := stream[head+int(off) : head+int(fr.Offset())]
		at := stream[:head+int(off)]
		rest := stream[head+int(fr.Offset()):]
		if restoreErr(t, slices.Concat(at, rest)) == nil {
			t.Fatalf("the stream without its frame at %d restored", head+int(off))
		}
		if restoreErr(t, slices.Concat(at, frame, frame, rest)) == nil {
			t.Fatalf("the stream with its frame at %d repeated restored", head+int(off))
		}
	}
}

// TestRestoreSnapshotVersion3: a version-3 snapshot — the same records,
// unframed — is refused with an error that names its version.
func TestRestoreSnapshotVersion3(t *testing.T) {
	old, err := os.ReadFile("testdata/snapshot_v3.perm")
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreErr(t, old); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("restoring a version-3 snapshot: %v, want a refusal naming version 3", err)
	}
}

// FuzzSnapshotRestore: Restore reads untrusted bytes (a snapshot file, a
// bootstrap stream off the network). It must never panic and may fail only
// as a corrupt snapshot; any stream it accepts must be what Save writes for
// the store it restored, byte for byte.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add(saveBytes(f, snapshotFixture(f, 0)))
	f.Add(saveBytes(f, NewStore()))
	small := NewStore()
	tab, err := small.CreateTable(&catalog.TableDef{Name: "t", Columns: []catalog.Column{{Name: "a", Type: value.KindInt}}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := tab.Insert(value.Row{value.NewInt(7)}); err != nil {
		f.Fatal(err)
	}
	f.Add(saveBytes(f, small))
	f.Add([]byte(snapshotMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			if !strings.HasPrefix(err.Error(), "storage: corrupt snapshot: ") {
				t.Fatalf("Restore failed with %q, want a corrupt-snapshot error", err)
			}
			return
		}
		if again := saveBytes(t, s); !bytes.Equal(again, data) {
			t.Fatalf("an accepted stream of %d bytes saves back as %d different bytes", len(data), len(again))
		}
	})
}
