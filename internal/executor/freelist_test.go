package executor

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"perm/internal/value"
)

// TestSlabFreeListBounds: a session keeps at most slabsKept idle slabs per
// element type, the smallest going first, and no more idle bytes than a
// positive work_mem; a lower work_mem trims the list at the next return, and
// Cleanup (Session.Close) empties it.
func TestSlabFreeListBounds(t *testing.T) {
	m := NewMemTracker(0, t.TempDir())
	for n := 1; n <= slabsKept+4; n++ {
		giveSlab(m, make([]keyEntry, 0, 64*n))
		giveSlab(m, make([]int32, 0, 64*n))
	}
	entries, heads := slabKindOf[keyEntry](), slabKindOf[int32]()
	if m.free.n[entries] != slabsKept || m.free.n[heads] != slabsKept {
		t.Fatalf("%d entry slabs and %d head slabs kept, want %d each", m.free.n[entries], m.free.n[heads], slabsKept)
	}
	for _, s := range m.free.lists[entries] {
		if s.cap <= 64*4 {
			t.Errorf("a slab of %d entries was kept over larger ones", s.cap)
		}
	}
	// A slab smaller than every kept one is not kept.
	giveSlab(m, make([]keyEntry, 0, 8))
	if _, slabs := m.Idle(); slabs != 2*slabsKept {
		t.Fatalf("%d idle slabs after a small one came back to full lists, want %d", slabs, 2*slabsKept)
	}

	const budget = 64 << 10
	m.SetBudget(budget)
	giveSlab(m, make([]byte, 0, 4096))
	if bytes, _ := m.Idle(); bytes > budget {
		t.Fatalf("%d idle bytes after work_mem fell to %d", bytes, budget)
	}
	if giveSlab(m, make([]byte, 0, budget+1)); m.free.n[slabKindOf[byte]()] != 1 {
		t.Fatal("a slab larger than work_mem was kept")
	}
	m.SetBudget(budget / 4)
	giveSlab(m, make([]setCount, 0, 16))
	if bytes, _ := m.Idle(); bytes > budget/4 {
		t.Fatalf("%d idle bytes after work_mem fell to %d", bytes, budget/4)
	}
	m.Cleanup()
	if bytes, slabs := m.Idle(); bytes != 0 || slabs != 0 {
		t.Fatalf("Cleanup left %d idle slabs of %d bytes", slabs, bytes)
	}
}

// TestSlabFreeListBestFit: a slab comes from the best-fitting idle slab no
// more than twice the request, whole, and a slab that holds rows is cleared
// when it goes back. get and put allocate nothing; a nil tracker allocates
// exactly what was asked and keeps nothing.
func TestSlabFreeListBestFit(t *testing.T) {
	m := NewMemTracker(0, t.TempDir())
	rows := make([]buildRow, 3, 100)
	for i := range rows {
		rows[i].row = value.Row{value.NewString("kept alive")}
	}
	giveSlab(m, rows)
	giveSlab(m, make([]buildRow, 0, 1000))
	got := takeSlab[buildRow](m, 90)
	if len(got) != 0 || cap(got) != 100 || unsafe.SliceData(got) != unsafe.SliceData(rows) {
		t.Fatalf("took len %d cap %d (the 100-row slab: %v), want the 100-row slab", len(got), cap(got), unsafe.SliceData(got) == unsafe.SliceData(rows))
	}
	if got = got[:3]; got[0].row != nil || got[2].row != nil {
		t.Fatal("a returned build-row slab still holds its rows")
	}
	if s := takeSlab[buildRow](m, 400); cap(s) != 400 || unsafe.SliceData(s) == unsafe.SliceData(got) {
		t.Fatal("a slab more than twice the request was handed out, or the one already taken")
	}
	if _, slabs := m.Idle(); slabs != 1 {
		t.Fatalf("%d idle slabs, want the 1000-row one", slabs)
	}

	entries := make([]keyEntry, 0, 256)
	giveSlab(m, entries)
	if n := testing.AllocsPerRun(100, func() {
		giveSlab(m, takeSlab[keyEntry](m, 200))
	}); n != 0 {
		t.Errorf("take and give allocated %.1f times", n)
	}
	if s := takeSlab[keyEntry](nil, 5); cap(s) != 5 {
		t.Errorf("a nil tracker handed out capacity %d, want 5", cap(s))
	}
	giveSlab[keyEntry](nil, entries) // keeps nothing, and does not panic
}

// TestSlabFreeListConcurrent: a session's statements and their workers take
// and give slabs at once; no slab is ever held by two of them.
func TestSlabFreeListConcurrent(t *testing.T) {
	m := NewMemTracker(1<<20, t.TempDir())
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := takeSlab[setCount](m, 64+i%64)
				for j := 0; j < cap(s); j++ {
					s = append(s, setCount{right: g})
				}
				runtime.Gosched()
				for _, c := range s {
					if c.right != g {
						t.Errorf("a slab held by goroutine %d was written by %d", g, c.right)
						return
					}
				}
				s = roomFor(m, s, 1)
				giveSlab(m, s)
			}
		}()
	}
	wg.Wait()
	if bytes, slabs := m.Idle(); slabs > slabsKept || bytes > 1<<20 {
		t.Fatalf("%d idle slabs of %d bytes", slabs, bytes)
	}
}
