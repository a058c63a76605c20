package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"perm/internal/logx"
	"perm/internal/repl"
	"perm/internal/storage"
	"perm/internal/wal/walfault"
	"perm/internal/wire"
)

// Options tunes a durable store opened with Open.
type Options struct {
	// Sync is the initial sync policy: "always" (default), "group",
	// "group(<ms>)" or "off". SET wal_sync changes it at runtime.
	Sync string
	// SegmentBytes rotates the append segment past this size (default
	// 16 MiB).
	SegmentBytes int64
	// CheckpointInterval, when > 0, starts the background checkpointer
	// with StartCheckpointer after recovery.
	CheckpointInterval time.Duration
	// Hooks injects crash and I/O faults (tests only).
	Hooks *walfault.Hooks
	// Log receives recovery, checkpoint and failure records; nil logs
	// nothing.
	Log *logx.Logger
}

// Recovery summarizes what Open found and replayed — permserver logs it on
// startup so an operator can see exactly where the store resumed.
type Recovery struct {
	// SnapshotLSN is the LSN of the snapshot the store was loaded from (0
	// when the directory held none).
	SnapshotLSN uint64
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// LastLSN is the recovered position: SnapshotLSN plus the replayed
	// tail.
	LastLSN uint64
	// Truncated reports that replay hit a torn or corrupt record and cut
	// the log there; TruncatedBytes is how much was discarded (including
	// any later, unreachable segments).
	Truncated      bool
	TruncatedBytes int64
}

func (r Recovery) String() string {
	s := fmt.Sprintf("snapshot LSN %d, %d WAL records replayed, recovered to LSN %d", r.SnapshotLSN, r.Replayed, r.LastLSN)
	if r.Truncated {
		s += fmt.Sprintf(", torn tail truncated (%d bytes discarded)", r.TruncatedBytes)
	}
	return s
}

const (
	snapshotName = "snapshot.perm"
	snapshotTmp  = "snapshot.perm.tmp"
	walSubdir    = "wal"
)

// Open recovers (or initializes) the durable store in dir and returns it
// wired to a write-ahead log: the newest valid snapshot is restored, WAL
// records past its LSN are replayed through the same apply path a
// replication follower uses, a torn tail is truncated rather than fatal,
// and every subsequent mutation is journaled and held to the sync policy
// before it is acknowledged. Close the manager to detach cleanly.
func Open(dir string, opts Options) (*storage.Store, *Manager, Recovery, error) {
	var rec Recovery
	mode, interval, err := ParseSyncPolicy(orDefault(opts.Sync, "always"))
	if err != nil {
		return nil, nil, rec, err
	}
	waldir := filepath.Join(dir, walSubdir)
	if err := os.MkdirAll(waldir, 0o755); err != nil {
		return nil, nil, rec, fmt.Errorf("wal: create data dir: %w", err)
	}
	// A leftover temp snapshot is an interrupted checkpoint: never valid,
	// never referenced, safe to discard.
	_ = os.Remove(filepath.Join(dir, snapshotTmp))

	store := storage.NewStore()
	snapPath := filepath.Join(dir, snapshotName)
	if f, err := os.Open(snapPath); err == nil {
		rerr := store.Restore(f)
		f.Close()
		if rerr != nil {
			return nil, nil, rec, fmt.Errorf("wal: restore %s: %w", snapPath, rerr)
		}
		rec.SnapshotLSN = store.Log().LastLSN()
	} else if !os.IsNotExist(err) {
		return nil, nil, rec, fmt.Errorf("wal: open snapshot: %w", err)
	}

	sealed, err := replayDir(waldir, store, rec.SnapshotLSN, &rec, opts.Log)
	if err != nil {
		return nil, nil, rec, err
	}
	rec.LastLSN = store.Log().LastLSN()

	l, err := newSeglog(waldir, rec.LastLSN, store.Origin(), sealed, mode, interval, opts)
	if err != nil {
		return nil, nil, rec, err
	}
	m := &Manager{dir: dir, log: l, store: store}
	m.checkpointLSN = rec.SnapshotLSN
	m.attach(store)
	if opts.CheckpointInterval > 0 {
		m.StartCheckpointer(opts.CheckpointInterval)
	}
	return store, m, rec, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// replayDir replays every decodable record past snapLSN into store, in LSN
// order, truncating at the first torn or corrupt frame. It returns the
// surviving segments (oldest first) for the append side's GC bookkeeping.
func replayDir(waldir string, store *storage.Store, snapLSN uint64, rec *Recovery, lg *logx.Logger) ([]segment, error) {
	entries, err := os.ReadDir(waldir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		segs = append(segs, segment{first: first, path: filepath.Join(waldir, e.Name()), bytes: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	var (
		prevLSN  uint64 // last record LSN seen (0 = none yet)
		origin   uint64 // origin stamped in the segment headers
		survived []segment
	)
	// No snapshot but a WAL from a previous life: the records belong to
	// that life's history, so the rebuilt store adopts its origin — a
	// replication peer (and the next segment this life writes) must see
	// this as the same timeline. Runs on the truncated path too.
	adoptOrigin := func() {
		if snapLSN == 0 && origin != 0 {
			store.AdoptOrigin(origin)
		}
	}
	truncateAt := func(i int, offset int64, why string) ([]segment, error) {
		// Everything from this byte on was never acknowledged under the
		// sync policy (or is re-fetchable from a replication primary):
		// truncate the bad frame away and drop the unreachable later
		// segments, so the next life appends from a clean, verified tail.
		rec.Truncated = true
		rec.TruncatedBytes += segs[i].bytes - offset
		lg.Warn("wal: truncating the log", "reason", why, "segment", segs[i].path, "offset", offset)
		if offset <= segHeaderSize {
			if err := os.Remove(segs[i].path); err != nil {
				return nil, fmt.Errorf("wal: remove torn segment: %w", err)
			}
		} else {
			if err := os.Truncate(segs[i].path, offset); err != nil {
				return nil, fmt.Errorf("wal: truncate torn segment: %w", err)
			}
			survived = append(survived, segment{first: segs[i].first, path: segs[i].path, bytes: offset})
		}
		for _, s := range segs[i+1:] {
			rec.TruncatedBytes += s.bytes
			lg.Warn("wal: dropping unreachable segment", "segment", s.path, "bytes", s.bytes)
			if err := os.Remove(s.path); err != nil {
				return nil, fmt.Errorf("wal: remove unreachable segment: %w", err)
			}
		}
		adoptOrigin()
		return survived, nil
	}

	for i, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		good, torn, err := replaySegment(f, seg, snapLSN, &prevLSN, &origin, store, rec)
		f.Close()
		if err != nil {
			return nil, err
		}
		if torn != "" {
			return truncateAt(i, good, torn)
		}
		// A trailing header-only segment is the footprint of a crash right
		// after rotation (or first boot) created it: it holds no records, and
		// the append side will reuse its name for the fresh live segment. It
		// must NOT survive as a sealed segment — tracking the same file both
		// as sealed and as the live tail would let a later checkpoint GC
		// unlink the segment being appended to, losing acknowledged writes.
		if i == len(segs)-1 && good == segHeaderSize {
			lg.Info("wal: dropping empty trailing segment", "segment", seg.path)
			if err := os.Remove(seg.path); err != nil {
				return nil, fmt.Errorf("wal: remove empty segment: %w", err)
			}
			break
		}
		survived = append(survived, segment{first: seg.first, path: seg.path, bytes: seg.bytes})
	}
	adoptOrigin()
	return survived, nil
}

// replaySegment applies one segment's records, read through repl's frame
// reader, and returns how many bytes of it (header included) are good and,
// when the rest is torn or corrupt, why. Continuity is strict: the first
// record seen across all segments establishes the sequence, every later one
// must be exactly prev+1, and the first record applied on top of the
// snapshot must be snapLSN+1 — a gap means segments were lost, which is
// corruption, not a torn tail.
func replaySegment(src io.Reader, seg segment, snapLSN uint64, prevLSN, origin *uint64, store *storage.Store, rec *Recovery) (good int64, torn string, err error) {
	br := bufio.NewReaderSize(src, 1<<20)
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// A header-less file can only be a segment created but never
		// synced: torn, empty.
		return 0, "truncated segment header", nil
	}
	if [8]byte(hdr[:8]) != segMagic {
		return 0, "bad segment magic", nil
	}
	hdrFirst := binary.LittleEndian.Uint64(hdr[8:16])
	hdrOrigin := binary.LittleEndian.Uint64(hdr[16:24])
	if hdrFirst != seg.first {
		return 0, "segment name disagrees with header", nil
	}
	if *origin == 0 {
		*origin = hdrOrigin
	} else if hdrOrigin != *origin {
		return 0, "", fmt.Errorf("wal: segment %s carries history origin %x, earlier segments %x — mixed data directories", seg.path, hdrOrigin, *origin)
	}
	if snapLSN > 0 && store.Origin() != 0 && hdrOrigin != store.Origin() {
		return 0, "", fmt.Errorf("wal: segment %s carries history origin %x, snapshot %x — mixed data directories", seg.path, hdrOrigin, store.Origin())
	}

	fr := repl.NewFrameReader(br)
	for {
		good = segHeaderSize + fr.Offset()
		payload, err := fr.Next()
		if err == io.EOF {
			return good, "", nil // clean end
		}
		if err != nil {
			return good, err.Error(), nil
		}
		r, err := repl.ReadRecord(wire.NewReader(payload))
		if err != nil {
			return good, "undecodable record", nil
		}
		if *prevLSN != 0 && r.LSN != *prevLSN+1 {
			// CRC-valid records on both sides of a hole: records were lost,
			// which is corruption, not a torn tail. Truncating here would
			// silently discard the later (potentially acknowledged) records,
			// so refuse to recover instead.
			return 0, "", fmt.Errorf("wal: segment %s has an LSN gap (record %d follows %d) — records are missing, refusing to recover", seg.path, r.LSN, *prevLSN)
		}
		*prevLSN = r.LSN
		if r.LSN > snapLSN {
			if want := store.Log().LastLSN() + 1; r.LSN != want {
				return 0, "", fmt.Errorf("wal: record LSN %d cannot apply to store at %d — WAL and snapshot disagree", r.LSN, want-1)
			}
			if err := store.ApplyChange(r); err != nil {
				return 0, "", fmt.Errorf("wal: replay LSN %d: %w", r.LSN, err)
			}
			rec.Replayed++
		}
	}
}
