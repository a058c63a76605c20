package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perm/internal/catalog"
	"perm/internal/storage"
	"perm/internal/value"
	"perm/internal/wal/walfault"
)

func testOpen(t *testing.T, dir string, opts Options) (*storage.Store, *Manager, Recovery) {
	t.Helper()
	s, m, r, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, m, r
}

// seed creates table kv(k int, v int) when missing and inserts n rows with
// ascending keys starting at start. Each insert is one WAL record.
func seed(t *testing.T, s *storage.Store, start, n int) {
	t.Helper()
	tab := s.Table("kv")
	if tab == nil {
		var err error
		tab, err = s.CreateTable(&catalog.TableDef{Name: "kv", Columns: []catalog.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "v", Type: value.KindInt},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(value.Row{value.NewInt(int64(start + i)), value.NewInt(int64(i))}); err != nil {
			t.Fatalf("insert %d: %v", start+i, err)
		}
	}
}

func keys(t *testing.T, s *storage.Store) []int64 {
	t.Helper()
	tab := s.Table("kv")
	if tab == nil {
		t.Fatal("table kv missing after recovery")
	}
	var out []int64
	for _, r := range tab.Snapshot() {
		out = append(out, r[0].Int())
	}
	return out
}

func wantKeys(t *testing.T, s *storage.Store, want ...int64) {
	t.Helper()
	got := keys(t, s)
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: key %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func segPaths(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, walSubdir))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			out = append(out, filepath.Join(dir, walSubdir, e.Name()))
		}
	}
	return out
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		mode int
		iv   time.Duration
		bad  bool
	}{
		{in: "always", mode: syncAlways},
		{in: " ALWAYS ", mode: syncAlways},
		{in: "off", mode: syncOff},
		{in: "group", mode: syncGroup, iv: defaultGroupInterval},
		{in: "group(5)", mode: syncGroup, iv: 5 * time.Millisecond},
		{in: "group(0)", mode: syncGroup, iv: 0},
		{in: "group(0.5)", mode: syncGroup, iv: 500 * time.Microsecond},
		{in: "group(-1)", bad: true},
		{in: "group(99999)", bad: true},
		{in: "group(x)", bad: true},
		{in: "group(5s)", bad: true},
		{in: "group(5xyz)", bad: true},
		{in: "group()", bad: true},
		{in: "fsync", bad: true},
		{in: "", bad: true},
	} {
		mode, iv, err := ParseSyncPolicy(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q): want error", tc.in)
			}
			continue
		}
		if err != nil || mode != tc.mode || iv != tc.iv {
			t.Errorf("ParseSyncPolicy(%q) = %d, %v, %v; want %d, %v", tc.in, mode, iv, err, tc.mode, tc.iv)
		}
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	s, m, rec := testOpen(t, dir, Options{})
	if rec.SnapshotLSN != 0 || rec.Replayed != 0 || rec.LastLSN != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	seed(t, s, 0, 3)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s2, m2, rec2 := testOpen(t, dir, Options{})
	defer m2.Close()
	if rec2.SnapshotLSN != 0 || rec2.Replayed != 4 || rec2.LastLSN != 4 {
		t.Fatalf("recovery = %+v, want 4 records replayed to LSN 4", rec2)
	}
	wantKeys(t, s2, 0, 1, 2)
	if s2.Origin() != s.Origin() {
		t.Fatalf("recovered origin %x, want %x (adopted from segment header)", s2.Origin(), s.Origin())
	}
	if s2.Log().LastLSN() != s.Log().LastLSN() {
		t.Fatalf("recovered LSN %d, want %d", s2.Log().LastLSN(), s.Log().LastLSN())
	}
}

func TestRecoverAllRecordKinds(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{})
	seed(t, s, 0, 5)
	tab := s.Table("kv")
	if _, err := tab.Update(func(r value.Row) (bool, error) { return r[0].Int() == 2, nil },
		func(r value.Row) (value.Row, error) { return value.Row{r[0], value.NewInt(99)}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Delete(func(r value.Row) (bool, error) { return r[0].Int() == 3, nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateView(&catalog.ViewDef{Name: "vv", Text: "SELECT k FROM kv", Columns: []catalog.Column{{Name: "k", Type: value.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Analyze("kv"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s2, m2, rec := testOpen(t, dir, Options{})
	defer m2.Close()
	wantKeys(t, s2, 0, 1, 2, 4)
	if got := s2.Table("kv").Snapshot()[2][1].Int(); got != 99 {
		t.Fatalf("updated row replayed v=%d, want 99", got)
	}
	if s2.Catalog().View("vv") == nil {
		t.Fatal("view vv lost in recovery")
	}
	if rec.Truncated {
		t.Fatalf("clean shutdown recovered as truncated: %+v", rec)
	}
}

func TestCheckpointThenTailReplay(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{})
	seed(t, s, 0, 4) // LSN 1..5
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seed(t, s, 100, 2) // LSN 6..7
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s2, m2, rec := testOpen(t, dir, Options{})
	defer m2.Close()
	if rec.SnapshotLSN != 5 || rec.Replayed != 2 || rec.LastLSN != 7 {
		t.Fatalf("recovery = %+v, want snapshot LSN 5 + 2 replayed", rec)
	}
	wantKeys(t, s2, 0, 1, 2, 3, 100, 101)
}

func TestSegmentRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{SegmentBytes: 128})
	// Tight in-memory retention so the checkpoint GC floor can advance past
	// sealed segments (by default the change log retains far more).
	s.Log().SetRetention(1)
	seed(t, s, 0, 20)
	if n := len(segPaths(t, dir)); n < 3 {
		t.Fatalf("%d segments after 21 records at 128-byte rotation, want several", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s2, m2, rec := testOpen(t, dir, Options{SegmentBytes: 128})
	defer m2.Close()
	if rec.Replayed != 21 {
		t.Fatalf("replayed %d records across segments, want 21", rec.Replayed)
	}
	wantKeys(t, s2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
	s2.Log().SetRetention(1)
	seed(t, s2, 100, 1) // advance retention past the recovered tail
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := len(segPaths(t, dir)); n != 1 {
		t.Fatalf("%d segments after checkpoint GC, want 1 (the live one)", n)
	}
	st := m2.Status()
	if st.Segments != 1 || st.CheckpointLSN != s2.Log().LastLSN() {
		t.Fatalf("status after GC = %+v", st)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{})
	seed(t, s, 0, 5)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 3 bytes, as a crash mid-write(2)
	// would.
	segs := segPaths(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, m2, rec := testOpen(t, dir, Options{})
	if !rec.Truncated || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want truncated tail", rec)
	}
	if rec.Replayed != 5 || rec.LastLSN != 5 {
		t.Fatalf("recovery = %+v, want the 5 intact records", rec)
	}
	wantKeys(t, s2, 0, 1, 2, 3)
	// The log must keep working where it was cut.
	seed(t, s2, 50, 1)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, m3, rec3 := testOpen(t, dir, Options{})
	defer m3.Close()
	if rec3.Truncated {
		t.Fatalf("second recovery still truncated: %+v", rec3)
	}
	wantKeys(t, s3, 0, 1, 2, 3, 50)
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{})
	seed(t, s, 0, 5)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segPaths(t, dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // inside the last record's payload
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, m2, rec := testOpen(t, dir, Options{})
	defer m2.Close()
	if !rec.Truncated {
		t.Fatalf("recovery = %+v, want checksum-truncated tail", rec)
	}
	wantKeys(t, s2, 0, 1, 2, 3)
}

func TestTransformWriteTornRecord(t *testing.T) {
	// A short TransformWrite simulates the OS tearing the final write: the
	// record is acknowledged in this life (the fault is below fsync's radar
	// here), and recovery must truncate it instead of failing.
	dir := t.TempDir()
	var tear atomic.Bool
	hooks := &walfault.Hooks{TransformWrite: func(frame []byte) []byte {
		if tear.Load() {
			return frame[:len(frame)-4]
		}
		return frame
	}}
	s, m, _ := testOpen(t, dir, Options{Hooks: hooks})
	seed(t, s, 0, 3)
	tear.Store(true)
	seed(t, s, 10, 1)
	tear.Store(false)
	_ = m.Close()

	s2, m2, rec := testOpen(t, dir, Options{})
	defer m2.Close()
	if !rec.Truncated {
		t.Fatalf("recovery = %+v, want torn record truncated", rec)
	}
	wantKeys(t, s2, 0, 1, 2)
}

func TestSyncErrSticky(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool
	hooks := &walfault.Hooks{SyncErr: func() error {
		if fail.Load() {
			return errors.New("injected: disk on fire")
		}
		return nil
	}}
	s, m, _ := testOpen(t, dir, Options{Sync: "always", Hooks: hooks})
	seed(t, s, 0, 2)
	fail.Store(true)
	tab := s.Table("kv")
	if _, err := tab.Insert(value.Row{value.NewInt(9), value.NewInt(9)}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("insert during fsync failure: %v, want ErrWALFailed", err)
	}
	// Sticky: even with the disk "fixed", no further write is accepted.
	fail.Store(false)
	if _, err := tab.Insert(value.Row{value.NewInt(10), value.NewInt(10)}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("insert after sticky failure: %v, want ErrWALFailed", err)
	}
	if _, err := s.CreateTable(&catalog.TableDef{Name: "t2", Columns: []catalog.Column{{Name: "a", Type: value.KindInt}}}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("DDL after sticky failure: %v, want ErrWALFailed", err)
	}
	if st := m.Status(); st.Err == "" {
		t.Fatal("Status().Err empty after failure")
	}
	// Reads keep working.
	if n := tab.RowCount(); n < 2 {
		t.Fatalf("reads broken after WAL failure: %d rows", n)
	}
	_ = m.Close()

	// The acknowledged prefix survives. The never-acknowledged insert was
	// written to the file before fsync failed, so recovery may legitimately
	// resurface it — or not; either is correct for an unacknowledged write.
	s2, m2, _ := testOpen(t, dir, Options{})
	defer m2.Close()
	got := keys(t, s2)
	if len(got) < 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("acknowledged prefix lost: %v", got)
	}
	if len(got) > 3 || (len(got) == 3 && got[2] != 9) {
		t.Fatalf("recovered rows beyond the written log: %v", got)
	}
}

func TestGroupCommitDurable(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{Sync: "group(1)"})
	var wg sync.WaitGroup
	tab := func() *storage.Table {
		seed(t, s, 0, 0)
		return s.Table("kv")
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := tab.Insert(value.Row{value.NewInt(int64(w*100 + i)), value.NewInt(0)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every returned insert was acknowledged: all must be durable already,
	// without Close's final fsync.
	st := m.Status()
	if st.DurableLSN != st.LastLSN {
		t.Fatalf("acknowledged writes not durable: durable %d < last %d", st.DurableLSN, st.LastLSN)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	s2, m2, _ := testOpen(t, dir, Options{})
	defer m2.Close()
	if got := len(keys(t, s2)); got != 40 {
		t.Fatalf("recovered %d rows, want 40", got)
	}
}

func TestSetSyncPolicy(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{Sync: "off"})
	if st := m.Status(); st.Mode != "off" {
		t.Fatalf("mode %q, want off", st.Mode)
	}
	seed(t, s, 0, 3)
	// Tightening to always must immediately fsync the tail written under
	// "off".
	if err := m.SetSyncPolicy("always"); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.Mode != "always" || st.DurableLSN != st.LastLSN {
		t.Fatalf("status after tightening = %+v", st)
	}
	if err := m.SetSyncPolicy("group(3)"); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.Mode != "group(3)" {
		t.Fatalf("mode %q, want group(3)", st.Mode)
	}
	if err := m.SetSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	_ = m.Close()
}

func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{CheckpointInterval: 5 * time.Millisecond})
	seed(t, s, 0, 5)
	deadline := time.Now().Add(5 * time.Second)
	for m.Status().CheckpointLSN == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing after background checkpoint: %v", err)
	}
	_, m2, rec := testOpen(t, dir, Options{})
	defer m2.Close()
	if rec.SnapshotLSN == 0 {
		t.Fatalf("recovery ignored background checkpoint: %+v", rec)
	}
}

func TestAdoptStoreRebasesWAL(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{})
	seed(t, s, 0, 5)

	// A "bootstrap" store with a different history, as a replica would
	// build from a primary's snapshot.
	fresh := storage.NewStore()
	tab, err := fresh.CreateTable(&catalog.TableDef{Name: "kv", Columns: []catalog.Column{
		{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(value.Row{value.NewInt(7), value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := m.AdoptStore(fresh); err != nil {
		t.Fatal(err)
	}
	// Journaling now follows the adopted store.
	seed(t, fresh, 40, 2)
	// The old store is detached: its writes are not journaled and not
	// gated, but must still work in memory.
	seed(t, s, 90, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s2, m2, rec := testOpen(t, dir, Options{})
	defer m2.Close()
	if s2.Origin() != fresh.Origin() {
		t.Fatalf("recovered origin %x, want adopted %x", s2.Origin(), fresh.Origin())
	}
	if rec.SnapshotLSN == 0 {
		t.Fatalf("AdoptStore wrote no checkpoint: %+v", rec)
	}
	wantKeys(t, s2, 7, 40, 41)
}

// A crash that leaves a header-only segment (created by rotation or first
// boot, never appended to) must not let the reopened log track that file
// both as a sealed segment and as the live append segment: checkpoint GC
// would then unlink the segment being appended to, and every later
// acknowledged write would vanish on the next restart.
func TestEmptyTrailingSegmentNotDoubleTracked(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{})
	origin := s.Origin()
	if err := m.Close(); err != nil { // leaves wal-...01.seg header-only
		t.Fatal(err)
	}

	s2, m2, _ := testOpen(t, dir, Options{})
	if s2.Origin() != origin {
		t.Fatalf("recovered origin %x, want %x (adopted from the empty segment)", s2.Origin(), origin)
	}
	s2.Log().SetRetention(1)
	seed(t, s2, 0, 3)
	// In the buggy version the live segment sat in the sealed list too, and
	// this checkpoint's GC unlinked it out from under the appender.
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seed(t, s2, 10, 2) // acknowledged post-checkpoint writes
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, m3, _ := testOpen(t, dir, Options{})
	defer m3.Close()
	wantKeys(t, s3, 0, 1, 2, 10, 11)
}

// An LSN gap between CRC-valid records means records were lost — corruption,
// not a torn tail. Recovery must refuse, not silently truncate the valid
// (potentially acknowledged) records after the hole.
func TestLSNGapFatal(t *testing.T) {
	dir := t.TempDir()
	s, m, _ := testOpen(t, dir, Options{SegmentBytes: 128})
	seed(t, s, 0, 20)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segPaths(t, dir)
	if len(segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil { // hole in the middle of history
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, Options{SegmentBytes: 128}); err == nil {
		t.Fatal("recovery spliced over a missing segment, want hard error")
	}
}

// AdoptStore must never leave a crash window where a new-origin segment
// coexists with an old-origin snapshot (recovery rejects that as mixed data
// directories): the old segments go first, the fresh snapshot is installed
// second, and only then is the first new-origin segment created.
func TestAdoptStoreCrashWindowOrdering(t *testing.T) {
	dir := t.TempDir()
	segsAtInstall := -1
	hooks := &walfault.Hooks{MidCheckpoint: func() {
		// Fires inside AdoptStore's checkpoint, just before the snapshot
		// rename: the old-origin segments must already be gone and the
		// new-origin segment must not exist yet.
		segsAtInstall = len(segPathsQuiet(dir))
	}}
	s, m, _ := testOpen(t, dir, Options{Hooks: hooks})
	seed(t, s, 0, 3)

	fresh := storage.NewStore()
	tab, err := fresh.CreateTable(&catalog.TableDef{Name: "kv", Columns: []catalog.Column{
		{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(value.Row{value.NewInt(7), value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := m.AdoptStore(fresh); err != nil {
		t.Fatal(err)
	}
	if segsAtInstall != 0 {
		t.Fatalf("AdoptStore installed the snapshot with %d segment(s) on disk, want 0", segsAtInstall)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash between snapshot install and the new segment's
	// creation: a new-origin snapshot with no WAL at all must recover.
	for _, p := range segPathsQuiet(dir) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	s2, m2, _ := testOpen(t, dir, Options{})
	defer m2.Close()
	if s2.Origin() != fresh.Origin() {
		t.Fatalf("recovered origin %x, want adopted %x", s2.Origin(), fresh.Origin())
	}
	wantKeys(t, s2, 7)
}

// segPathsQuiet is segPaths without the testing.T plumbing, for use inside
// fault hooks.
func segPathsQuiet(dir string) []string {
	ents, err := os.ReadDir(filepath.Join(dir, walSubdir))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			out = append(out, filepath.Join(dir, walSubdir, e.Name()))
		}
	}
	return out
}

func TestMixedOriginRejected(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sA, mA, _ := testOpen(t, dirA, Options{})
	seed(t, sA, 0, 2)
	if err := mA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = mA.Close()
	sB, mB, _ := testOpen(t, dirB, Options{})
	seed(t, sB, 0, 3)
	_ = mB.Close()
	// Graft B's WAL segment onto A's directory: recovery must refuse the
	// foreign history rather than splice it in.
	bSegs := segPaths(t, dirB)
	data, err := os.ReadFile(bSegs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segPaths(t, dirA) {
		os.Remove(p)
	}
	if err := os.WriteFile(filepath.Join(dirA, walSubdir, filepath.Base(bSegs[0])), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dirA, Options{}); err == nil {
		t.Fatal("Open spliced a foreign-origin WAL into a snapshot, want error")
	}
}
