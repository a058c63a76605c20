package server

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"perm/internal/catalog"
	"perm/internal/engine"
	"perm/internal/storage"
	"perm/internal/value"
	"perm/internal/wal"
	"perm/internal/wal/walfault"
)

// The crash-fault-injection matrix: a child process (this test binary,
// re-exec'd) runs a fixed op sequence against a WAL-backed store and
// SIGKILLs itself at an injected commit point — before the append, after
// the append but before fsync, after fsync but before the ack, mid-segment
// rotation, or mid-checkpoint. The parent then recovers the data directory
// and holds it to the durability contract:
//
//   - no acknowledged write is lost (sync policies always and group),
//   - no unacknowledged write is half-applied: the recovered state is
//     byte-identical to a never-crashed reference that ran exactly the
//     recovered prefix of the op sequence,
//   - a torn tail truncates, it never fails recovery.

// crashOps is the deterministic op sequence. Every op appends exactly one
// change record, so op i commits at LSN i+1 and the recovered LastLSN is
// exactly the count of applied ops — that equivalence is what lets the
// parent rebuild the reference state for any crash point.
var crashOps = []func(*storage.Store) error{
	func(s *storage.Store) error {
		_, err := s.CreateTable(&catalog.TableDef{Name: "kv", Columns: []catalog.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "v", Type: value.KindInt},
		}})
		return err
	},
	crashIns(1), crashIns(2), crashIns(3),
	crashUpdAll,
	crashIns(4),
	crashDel(2),
	crashIns(5),
	func(s *storage.Store) error {
		return s.CreateView(&catalog.ViewDef{Name: "kvv", Text: "SELECT k FROM kv",
			Columns: []catalog.Column{{Name: "k", Type: value.KindInt}}})
	},
	crashIns(6),
	crashUpdAll,
	crashDel(4),
	crashIns(7),
	func(s *storage.Store) error { return s.Analyze("kv") },
	crashIns(8), crashIns(9),
	crashDel(1),
	crashIns(10),
}

// crashCheckpointEvery makes the child checkpoint after every 6th op, so
// mid-checkpoint crash points exist and recovery exercises snapshot+tail.
const crashCheckpointEvery = 6

// crashSegBytes forces several segment rotations across the op sequence.
const crashSegBytes = 384

func crashIns(k int64) func(*storage.Store) error {
	return func(s *storage.Store) error {
		_, err := s.Table("kv").Insert(value.Row{value.NewInt(k), value.NewInt(k * 10)})
		return err
	}
}

func crashUpdAll(s *storage.Store) error {
	tab := s.Table("kv")
	_, err := tab.Write(nil, func(x *storage.Txn) (int, error) {
		var picks []storage.Pick
		c := x.Scan(tab)
		for r := c.Next(); r != nil; r = c.Next() {
			picks = append(picks, storage.Pick{ID: c.Pos(), Row: value.Row{r[0], value.NewInt(r[1].Int() + 1)}})
		}
		return x.Rewrite(tab, &c, picks)
	})
	return err
}

func crashDel(k int64) func(*storage.Store) error {
	return func(s *storage.Store) error {
		tab := s.Table("kv")
		_, err := tab.Write(nil, func(x *storage.Txn) (int, error) {
			var picks []storage.Pick
			c := x.Scan(tab)
			for r := c.Next(); r != nil; r = c.Next() {
				if r[0].Int() == k {
					picks = append(picks, storage.Pick{ID: c.Pos()})
				}
			}
			return x.Rewrite(tab, &c, picks)
		})
		return err
	}
}

// TestWALCrashChild is the harness child, inert unless the harness env is
// set. It acknowledges each completed op by appending one fsync'd byte to
// the ack file — the parent reads the file's size as "ops acked before the
// kill".
func TestWALCrashChild(t *testing.T) {
	dir := os.Getenv("PERM_WAL_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-harness child; driven by TestWALCrashMatrix")
	}
	var hooks *walfault.Hooks
	if spec := os.Getenv("PERM_WAL_CRASH_SPEC"); spec != "" {
		h, err := walfault.CrashSpec(spec, func() {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // never resume past the kill point
		})
		if err != nil {
			t.Fatalf("crash spec: %v", err)
		}
		hooks = h
	}
	store, mgr, _, err := wal.Open(dir, wal.Options{
		Sync:         os.Getenv("PERM_WAL_CRASH_SYNC"),
		SegmentBytes: crashSegBytes,
		Hooks:        hooks,
	})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	ack, err := os.OpenFile(os.Getenv("PERM_WAL_CRASH_ACK"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("child ack file: %v", err)
	}
	for i, op := range crashOps {
		if err := op(store); err != nil {
			t.Fatalf("child op %d: %v", i, err)
		}
		if _, err := ack.Write([]byte{'a'}); err == nil {
			if err := ack.Sync(); err != nil {
				t.Fatalf("child ack sync: %v", err)
			}
		} else {
			t.Fatalf("child ack write: %v", err)
		}
		if i%crashCheckpointEvery == crashCheckpointEvery-1 {
			if err := mgr.Checkpoint(); err != nil {
				t.Fatalf("child checkpoint after op %d: %v", i, err)
			}
		}
	}
	ack.Close()
	if err := mgr.Close(); err != nil {
		t.Fatalf("child close: %v", err)
	}
}

func TestWALCrashMatrix(t *testing.T) {
	if os.Getenv("PERM_WAL_CRASH_DIR") != "" {
		t.Skip("already inside the harness child")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	points := []string{
		walfault.PointPreAppend,
		walfault.PointPostAppend,
		walfault.PointPostSync,
		walfault.PointMidRotate,
		walfault.PointMidCheckpoint,
	}
	syncs := []string{"always", "group(1)", "off"}
	specs := []string{""} // control: a clean, never-crashed run
	for _, p := range points {
		// The 1st occurrence crashes early (often before the first
		// checkpoint), a later one lands mid-history with checkpoints and
		// rotations behind it. Occurrences past what a run produces simply
		// complete cleanly — still a valid recovery case.
		specs = append(specs, p+":1", p+":4")
	}
	for _, sync := range syncs {
		for _, spec := range specs {
			name := sync + "/" + spec
			if spec == "" {
				name = sync + "/clean"
			}
			sync, spec := sync, spec
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				base := t.TempDir()
				dataDir := filepath.Join(base, "data")
				ackPath := filepath.Join(base, "ack")
				cmd := exec.Command(exe, "-test.run=^TestWALCrashChild$", "-test.count=1")
				cmd.Env = append(os.Environ(),
					"PERM_WAL_CRASH_DIR="+dataDir,
					"PERM_WAL_CRASH_SPEC="+spec,
					"PERM_WAL_CRASH_SYNC="+sync,
					"PERM_WAL_CRASH_ACK="+ackPath,
				)
				out, runErr := cmd.CombinedOutput()
				if runErr != nil {
					// The planned outcome is a SIGKILL; anything else (a
					// child t.Fatal exits 1) is a harness failure.
					ee, ok := runErr.(*exec.ExitError)
					if !ok || !ee.ProcessState.Sys().(syscall.WaitStatus).Signaled() {
						t.Fatalf("child failed (not killed): %v\n%s", runErr, out)
					}
				} else if spec == "" {
					// A clean run must prove the harness actually ran — a
					// silently skipped child would make every crash case
					// vacuous (k=0 recovers k=0).
					verifyCleanRun(t, ackPath, out)
				}
				verifyCrashRecovery(t, dataDir, ackPath, sync)
			})
		}
	}
}

// verifyCleanRun asserts a no-crash child completed every op, guarding the
// harness against a child that silently never ran.
func verifyCleanRun(t *testing.T, ackPath string, out []byte) {
	t.Helper()
	fi, err := os.Stat(ackPath)
	if err != nil || fi.Size() != int64(len(crashOps)) {
		t.Fatalf("clean child did not complete all %d ops (ack file: %v %v)\n%s", len(crashOps), fi, err, out)
	}
}

// verifyCrashRecovery recovers the crashed directory and compares it against
// a never-crashed reference that ran exactly the recovered op prefix.
func verifyCrashRecovery(t *testing.T, dataDir, ackPath, sync string) {
	t.Helper()
	kAck := int64(0)
	if fi, err := os.Stat(ackPath); err == nil {
		kAck = fi.Size()
	}
	store, mgr, rec, err := wal.Open(dataDir, wal.Options{Sync: "always"})
	if err != nil {
		t.Fatalf("recovery failed (must truncate, not fail): %v", err)
	}
	defer mgr.Close()
	k := store.Log().LastLSN()
	if k > uint64(len(crashOps)) {
		t.Fatalf("recovered to LSN %d, only %d ops ran", k, len(crashOps))
	}
	// The durability contract: under always and group, an acked op's record
	// reached fsync before the ack, so recovery must reach at least the
	// acked count. Under off, acked writes may be lost (never corrupted).
	if sync != "off" && k < uint64(kAck) {
		t.Fatalf("LOST ACKNOWLEDGED WRITES: %d ops acked, recovered only to LSN %d (%s)", kAck, k, rec)
	}

	ref := storage.NewStore()
	for i := uint64(0); i < k; i++ {
		if err := crashOps[i](ref); err != nil {
			t.Fatalf("reference op %d: %v", i, err)
		}
	}
	if refLSN := ref.Log().LastLSN(); refLSN != k {
		t.Fatalf("reference replay reached LSN %d, recovered store %d", refLSN, k)
	}
	queries := []string{}
	if k >= 2 {
		queries = append(queries,
			`SELECT k, v FROM kv ORDER BY k, v`,
			`SELECT count(*) FROM kv`,
			`SELECT PROVENANCE k, v FROM kv ORDER BY k, v`,
		)
	}
	if k >= 9 {
		queries = append(queries, `SELECT * FROM kvv ORDER BY k`)
	}
	assertIdentical(t, engine.NewDBFrom(ref), engine.NewDBFrom(store), queries)

	// The recovered store must accept and journal new writes.
	if k >= 1 {
		if err := crashIns(999)(store); err != nil {
			t.Fatalf("recovered store rejects writes: %v", err)
		}
		if got := store.Log().LastLSN(); got != k+1 {
			t.Fatalf("post-recovery write landed at LSN %d, want %d", got, k+1)
		}
	}
	_ = fmt.Sprintf("%s", rec) // recovery summary is part of the contract; keep it printable
}
