package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"perm/internal/engine"
	"perm/internal/repl"
	"perm/internal/resultmatrix"
	"perm/internal/wal"
	"perm/internal/wire"
	"perm/internal/workload"
)

// openWALDB opens (or recovers) a WAL-backed database in dir, registering
// cleanup of the manager with t.
func openWALDB(t *testing.T, dir, sync string) (*engine.DB, *wal.Manager, wal.Recovery) {
	t.Helper()
	store, mgr, rec, err := wal.Open(dir, wal.Options{Sync: sync})
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	return engine.NewDBFrom(store), mgr, rec
}

// TestWALReplayEqualsReplicationFeed is the cross-subsystem differential:
// the WAL and the replication stream journal the same logical change feed,
// so a crash-recovered primary and a live replica that consumed the feed
// over the wire must answer the whole query battery byte-identically. The
// feed is the log itself: the change batches the follower receives are,
// byte for byte, the primary's WAL segment frames for the same LSNs.
func TestWALReplayEqualsReplicationFeed(t *testing.T) {
	dir := t.TempDir()
	primary, mgr, _ := openWALDB(t, dir, "group(1)")
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	var (
		mu   sync.Mutex
		feed []byte
	)
	relay := startRelay(t, addr, func(typ byte, payload []byte) []byte {
		if typ == wire.MsgChanges {
			mu.Lock()
			feed = append(feed, payload...)
			mu.Unlock()
		}
		return payload
	})
	replica := engine.NewDB()
	f := StartFollower(replica, fastFollower(relay))
	defer f.Stop()
	waitCaughtUp(t, primary, f)

	// More traffic while the follower streams, so the feed has a live tail
	// past the bootstrap snapshot.
	s := primary.NewSession()
	mustExec(t, s, `INSERT INTO messages VALUES (77, 'durable hello', 1)`)
	mustExec(t, s, `UPDATE messages SET text = 'edited' WHERE mId = 2`)
	mustExec(t, s, `DELETE FROM imports WHERE mId = 3`)
	mustExec(t, s, `CREATE VIEW walv AS SELECT mId FROM messages WHERE uId = 1`)
	s.Close()
	waitCaughtUp(t, primary, f)
	f.Stop()

	// Crash-equivalent restart of the primary: close the WAL (no final
	// checkpoint — Close never checkpoints) and recover the directory.
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, mgr2, rec := openWALDB(t, dir, "always")
	defer mgr2.Close()
	if rec.LastLSN != primary.Store().Log().LastLSN() {
		t.Fatalf("recovered to LSN %d, primary was at %d", rec.LastLSN, primary.Store().Log().LastLSN())
	}
	queries := append([]string{}, resultmatrix.PaperSuite...)
	queries = append(queries, `SELECT * FROM walv ORDER BY mId`)
	assertIdentical(t, recovered, replica, queries)

	mu.Lock()
	defer mu.Unlock()
	first, last := frameLSNs(t, feed)
	if first == 0 || last == first {
		t.Fatalf("feed carried LSNs %d..%d, want a run of records", first, last)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (%v)", err)
	}
	var log []byte
	for _, seg := range segs { // named by first LSN in fixed-width hex: sorted
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, b[walSegHeader:]...)
	}
	if got := framesBetween(t, log, first, last); !bytes.Equal(got, feed) {
		t.Fatalf("feed LSNs %d..%d: %d bytes on the wire, %d different bytes in the WAL", first, last, len(feed), len(got))
	}
}

// walSegHeader is the length of a WAL segment's header (magic, first LSN,
// history origin); record frames follow it.
const walSegHeader = 24

// frameLSNs returns the LSNs of the first and last record frames in b.
func frameLSNs(t *testing.T, b []byte) (first, last uint64) {
	t.Helper()
	err := repl.ReadRecordFrames(b, func(rec repl.Record) error {
		if first == 0 {
			first = rec.LSN
		}
		last = rec.LSN
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return first, last
}

// framesBetween returns the bytes of the record frames in b with LSNs in
// [first, last].
func framesBetween(t *testing.T, b []byte, first, last uint64) []byte {
	t.Helper()
	var out []byte
	for len(b) > 0 {
		n := repl.FrameHeaderSize + int(binary.LittleEndian.Uint32(b))
		lsn, _ := frameLSNs(t, b[:n])
		if lsn >= first && lsn <= last {
			out = append(out, b[:n]...)
		}
		b = b[n:]
	}
	return out
}

// TestReplicaWALRestartResumesLocally proves replica durability: a replica
// that journals its applied feed to its own WAL restarts from local disk and
// resumes the stream incrementally — zero new bootstrap snapshots — then
// stays byte-identical through further primary writes.
func TestReplicaWALRestartResumesLocally(t *testing.T) {
	primary := engine.NewDB()
	if err := workload.LoadPaperExample(primary); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, primary, replCfg())
	defer shutdown()

	// First replica life: fresh directory, bootstrap over the wire, journal
	// everything applied.
	dir := t.TempDir()
	replica, mgr, _ := openWALDB(t, dir, "always")
	fcfg := fastFollower(addr)
	fcfg.PrepareStore = mgr.AdoptStore
	f := StartFollower(replica, fcfg)
	appendTraffic(t, primary, 200, 5)
	waitCaughtUp(t, primary, f)
	if f.Snapshots() != 1 {
		t.Fatalf("fresh replica took %d bootstrap snapshots, want 1", f.Snapshots())
	}
	f.Stop()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Primary keeps writing while the replica is down.
	appendTraffic(t, primary, 300, 5)

	// Second life: recover from the local WAL, reconnect, resume.
	replica2, mgr2, rec := openWALDB(t, dir, "always")
	defer mgr2.Close()
	if rec.Replayed == 0 && rec.SnapshotLSN == 0 {
		t.Fatalf("replica restart recovered nothing: %s", rec)
	}
	fcfg2 := fastFollower(addr)
	fcfg2.PrepareStore = mgr2.AdoptStore
	f2 := StartFollower(replica2, fcfg2)
	defer f2.Stop()
	waitCaughtUp(t, primary, f2)
	if f2.Snapshots() != 0 {
		t.Fatalf("durable replica re-bootstrapped (%d snapshots), want incremental resume", f2.Snapshots())
	}

	// And it keeps following live traffic after the restart.
	appendTraffic(t, primary, 400, 3)
	waitCaughtUp(t, primary, f2)
	assertIdentical(t, primary, replica2, resultmatrix.PaperSuite)
}

func mustExec(t *testing.T, s *engine.Session, q string) {
	t.Helper()
	if _, err := s.Execute(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// appendTraffic inserts n fresh messages starting at id base.
func appendTraffic(t *testing.T, db *engine.DB, base, n int) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO messages VALUES (%d, 'traffic %d', 1)`, base+i, base+i))
	}
}
