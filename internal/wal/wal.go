// Package wal gives the engine a durable write path: a write-ahead log of
// the same logical change records internal/repl already streams to
// replication followers, persisted as CRC-checksummed segment files and
// fsync'd under a configurable sync policy before a mutation is
// acknowledged. Recovery (see recover.go) loads the newest snapshot and
// replays the WAL tail through storage's replication-apply machinery, so a
// crashed primary restarts exactly at its acknowledged prefix; a background
// checkpointer (checkpoint.go) bounds replay time and garbage-collects
// segments the snapshot has subsumed.
//
// # On-disk format
//
// A data directory holds one snapshot plus a wal/ subdirectory of segment
// files:
//
//	<dir>/snapshot.perm          snapshot (storage.Store.SaveLSN format)
//	<dir>/wal/wal-%016x.seg      segments, named by their first LSN
//
// Each segment starts with a 24-byte header (magic, first LSN, history
// origin) followed by a frame per record, in internal/repl's frame codec:
//
//	[u32le payload length][u32le CRC32C(payload)][payload]
//
// where the payload is repl.AppendRecord's encoding — the exact bytes a
// replication follower would receive; a snapshot is framed the same way. A
// torn or corrupt frame ends replay: the tail is truncated, never fatal,
// because everything past the first bad byte was by construction never
// acknowledged (or is re-fetchable from the replication primary).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"perm/internal/logx"
	"perm/internal/metrics"
	"perm/internal/repl"
	"perm/internal/wal/walfault"
)

// Process-wide WAL metrics. The fsync histogram is the one to watch on a
// durability-bound workload; the batch histogram shows how well group commit
// amortizes it (records made durable per physical fsync).
var (
	mFsyncs = metrics.Default.Counter("perm_wal_fsyncs_total",
		"Physical WAL fsyncs")
	mFsyncLatency = metrics.Default.Histogram("perm_wal_fsync_seconds",
		"WAL fsync latency", 1e-9)
	mGroupBatch = metrics.Default.Histogram("perm_wal_group_commit_records",
		"Records made durable per physical fsync (group-commit batch size)", 1)
	mRotations = metrics.Default.Counter("perm_wal_segment_rotations_total",
		"WAL segment rotations (seals)")
	mCheckpoints = metrics.Default.Counter("perm_wal_checkpoints_total",
		"Checkpoints taken")
)

// ErrWALFailed is wrapped by every error the log returns after a write or
// fsync failure: durability can no longer be promised, so the log is sticky
// read-only — a lost write must never be acknowledged, and un-journaled
// mutations must never be accepted. The storage layer refuses further
// writes while this error stands; reads keep working.
var ErrWALFailed = errors.New("wal: write-ahead log failed, store is read-only")

// Sync policies for SET wal_sync / permserver -wal-sync.
const (
	// syncAlways fsyncs before every acknowledgment (group-committing
	// whatever concurrent writers appended in the meantime).
	syncAlways = iota
	// syncGroup acknowledges after a shared fsync that runs at most every
	// groupInterval: concurrent sessions amortize one fsync, at the cost of
	// up to one interval of commit latency.
	syncGroup
	// syncOff acknowledges without waiting for fsync; the OS flushes when
	// it pleases. A crash can lose acknowledged tail writes (never corrupt
	// the store — recovery still truncates at the torn record).
	syncOff
)

// ParseSyncPolicy parses "always", "off", "group" or "group(<ms>)" (the
// fsync coalescing window in milliseconds; 0 means sync as soon as the
// syncer is free, batching naturally under load).
func ParseSyncPolicy(s string) (mode int, interval time.Duration, err error) {
	p := strings.TrimSpace(strings.ToLower(s))
	switch p {
	case "always":
		return syncAlways, 0, nil
	case "off":
		return syncOff, 0, nil
	case "group":
		return syncGroup, defaultGroupInterval, nil
	}
	if rest, ok := strings.CutPrefix(p, "group("); ok {
		if ms, ok := strings.CutSuffix(rest, ")"); ok {
			// ParseFloat over the whole substring: trailing garbage
			// ("group(5xyz)", "group(5s)") must fail validation, not silently
			// parse as 5 ms.
			if v, err := strconv.ParseFloat(strings.TrimSpace(ms), 64); err == nil && v >= 0 && v <= 10_000 {
				return syncGroup, time.Duration(v * float64(time.Millisecond)), nil
			}
		}
	}
	return 0, 0, fmt.Errorf("wal: invalid sync policy %q (want always, group, group(<ms>) or off)", s)
}

func syncPolicyString(mode int, interval time.Duration) string {
	switch mode {
	case syncAlways:
		return "always"
	case syncGroup:
		return fmt.Sprintf("group(%g)", float64(interval)/float64(time.Millisecond))
	default:
		return "off"
	}
}

const (
	segPrefix            = "wal-"
	segSuffix            = ".seg"
	segHeaderSize        = 24
	defaultSegmentBytes  = 16 << 20
	defaultGroupInterval = 2 * time.Millisecond
)

var segMagic = [8]byte{'P', 'E', 'R', 'M', 'W', 'A', 'L', 1}

// segment describes one sealed (no longer appended-to) segment file.
type segment struct {
	first uint64 // LSN of the first record the segment may hold
	path  string
	bytes int64
}

// seglog is the append side of the write-ahead log. It implements
// storage.Durability: the change log's append hook calls append (in strict
// LSN order, under the change log's mutex), and mutations call WaitDurable
// after their critical section, before acknowledging the client.
type seglog struct {
	dir   string // the wal/ subdirectory
	hooks *walfault.Hooks
	lg    *logx.Logger

	mu       sync.Mutex
	cond     *sync.Cond
	mode     int
	interval time.Duration
	segBytes int64

	f        *os.File
	curFirst uint64
	curPath  string
	written  int64
	sealed   []segment

	origin     uint64
	lastLSN    uint64
	durableLSN uint64
	err        error
	closed     bool

	syncScheduled bool
	kick          chan struct{}
	done          chan struct{}

	buf []byte // frame scratch, reused across appends
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

// parseSegName extracts the first LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	hexpart, ok := strings.CutSuffix(rest, segSuffix)
	if !ok || len(hexpart) != 16 {
		return 0, false
	}
	var v uint64
	for _, c := range []byte(hexpart) {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// newSeglog opens the append side positioned after lastLSN, creating a
// fresh segment for the next record. sealed lists the segments recovery
// left on disk (oldest first), for garbage collection.
func newSeglog(dir string, lastLSN, origin uint64, sealed []segment, mode int, interval time.Duration, opts Options) (*seglog, error) {
	segBytes := opts.SegmentBytes
	if segBytes <= segHeaderSize {
		segBytes = defaultSegmentBytes
	}
	l := &seglog{
		dir:        dir,
		hooks:      opts.Hooks,
		lg:         opts.Log,
		mode:       mode,
		interval:   interval,
		segBytes:   segBytes,
		sealed:     sealed,
		origin:     origin,
		lastLSN:    lastLSN,
		durableLSN: lastLSN,
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegmentLocked(lastLSN + 1); err != nil {
		return nil, err
	}
	go l.syncLoop()
	return l, nil
}

// openSegmentLocked creates (truncating any leftover of a previous crashed
// life — replay proved it holds nothing durable) the segment whose first
// record will be LSN first, writes its header, and makes the directory
// entry durable. Callers hold l.mu or are the constructor.
func (l *seglog) openSegmentLocked(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], first)
	binary.LittleEndian.PutUint64(hdr[16:24], l.origin)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	// The file's directory entry must be durable before any record in it
	// can be: fsync(file) alone does not persist the name.
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.curFirst = first
	l.curPath = path
	l.written = segHeaderSize
	return nil
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// append journals one record. It is the change log's append hook: called
// under the change log's mutex for every record the log accepts — primary
// mutations, DDL, and a replica's applied feed alike — so the WAL receives
// records in strict LSN order, inside the same critical section that
// published them in memory. It never blocks on fsync (WaitDurable does)
// and never returns an error: a write failure is recorded sticky, the
// record is dropped, and the mutation's WaitDurable (and every later
// write) fails instead — the client is never acknowledged.
func (l *seglog) append(rec repl.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.closed {
		return
	}
	if l.written >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
			return
		}
	}
	if h := l.hooks; h != nil && h.BeforeAppend != nil {
		h.BeforeAppend(rec.LSN)
	}
	l.buf = repl.AppendRecordFrame(l.buf[:0], rec)
	frame := l.buf
	if h := l.hooks; h != nil && h.TransformWrite != nil {
		frame = h.TransformWrite(frame)
	}
	n, err := l.f.Write(frame)
	if err == nil && n < len(frame) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(frame))
	}
	if err != nil {
		l.failLocked(fmt.Errorf("append LSN %d: %w", rec.LSN, err))
		return
	}
	l.written += int64(len(frame))
	l.lastLSN = rec.LSN
	if l.mode == syncGroup {
		l.scheduleSyncLocked()
	}
	if h := l.hooks; h != nil && h.AfterAppend != nil {
		h.AfterAppend(rec.LSN)
	}
}

// rotateLocked seals the full current segment (fsynced, so sealed segments
// are always wholly durable) and opens its successor.
func (l *seglog) rotateLocked() error {
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.sealed = append(l.sealed, segment{first: l.curFirst, path: l.curPath, bytes: l.written})
	mRotations.Inc()
	if h := l.hooks; h != nil && h.MidRotate != nil {
		h.MidRotate()
	}
	return l.openSegmentLocked(l.lastLSN + 1)
}

// fsyncLocked makes everything appended so far durable and releases
// waiters. A failure is sticky.
func (l *seglog) fsyncLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.durableLSN == l.lastLSN {
		return nil
	}
	batch := l.lastLSN - l.durableLSN
	var err error
	if h := l.hooks; h != nil && h.SyncErr != nil {
		err = h.SyncErr()
	}
	if err == nil {
		t0 := time.Now()
		err = l.f.Sync()
		mFsyncLatency.Observe(int64(time.Since(t0)))
		mFsyncs.Inc()
		mGroupBatch.Observe(int64(batch))
	}
	if err != nil {
		l.failLocked(fmt.Errorf("fsync: %w", err))
		return l.err
	}
	l.durableLSN = l.lastLSN
	if h := l.hooks; h != nil && h.AfterSync != nil {
		h.AfterSync(l.durableLSN)
	}
	l.cond.Broadcast()
	return nil
}

// failLocked records the first failure, making the log sticky read-only,
// and releases every waiter with the error.
func (l *seglog) failLocked(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %v", ErrWALFailed, err)
		l.lg.Error("wal: FAILURE, refusing further writes", "err", err)
	}
	l.cond.Broadcast()
}

// scheduleSyncLocked kicks the group syncer once per pending batch.
func (l *seglog) scheduleSyncLocked() {
	if l.syncScheduled || l.closed {
		return
	}
	l.syncScheduled = true
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// syncLoop is the group-commit syncer: each kick waits the coalescing
// interval, then fsyncs whatever accumulated — one disk flush for every
// writer that appended inside the window.
func (l *seglog) syncLoop() {
	defer close(l.done)
	for range l.kick {
		l.mu.Lock()
		interval := l.interval
		l.mu.Unlock()
		if interval > 0 {
			time.Sleep(interval)
		}
		l.mu.Lock()
		l.syncScheduled = false
		if !l.closed {
			_ = l.fsyncLocked()
		}
		l.mu.Unlock()
	}
}

// WaitDurable blocks until lsn is durable under the current sync policy
// (immediately under "off") and returns the sticky error if durability has
// failed. It is the second half of storage.Durability: mutations call it
// after their critical section, before acknowledging the client.
func (l *seglog) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return l.err
		}
		if l.mode == syncOff || l.durableLSN >= lsn {
			return nil
		}
		if l.closed {
			return fmt.Errorf("%w: log closed before LSN %d became durable", ErrWALFailed, lsn)
		}
		if l.mode == syncAlways {
			if err := l.fsyncLocked(); err != nil {
				return err
			}
			continue
		}
		l.scheduleSyncLocked()
		l.cond.Wait()
	}
}

// Err reports the sticky failure, if any — the first half of
// storage.Durability: the store refuses new mutations while it stands.
func (l *seglog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// setSync switches the sync policy at runtime (SET wal_sync). Tightening
// to "always" fsyncs the pending tail immediately so no already-written
// record remains un-durable under the stricter promise.
func (l *seglog) setSync(mode int, interval time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mode, l.interval = mode, interval
	if mode == syncAlways && l.err == nil && !l.closed {
		_ = l.fsyncLocked()
	}
	// Group waiters re-evaluate under the new mode (off releases them).
	l.cond.Broadcast()
}

// sync forces an fsync now regardless of policy (checkpoints, shutdown).
func (l *seglog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	return l.fsyncLocked()
}

// removeBelow deletes sealed segments every record of which has LSN <
// floor (their successor's first LSN is <= floor), returning how many were
// removed. The current append segment is never touched.
func (l *seglog) removeBelow(floor uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.sealed) > 0 {
		next := l.curFirst
		if len(l.sealed) > 1 {
			next = l.sealed[1].first
		}
		if next > floor {
			break
		}
		// Invariant guard: the live append segment must never appear in the
		// sealed list (recovery drops a trailing header-only segment before
		// the append side reuses its name). Unlinking it here would send
		// later writes to an unlinked file — acknowledged-write loss.
		if l.sealed[0].path == l.curPath {
			l.lg.Error("wal: BUG: sealed list contains the live segment; refusing to remove it", "segment", l.curPath)
			break
		}
		if err := os.Remove(l.sealed[0].path); err != nil && !os.IsNotExist(err) {
			l.lg.Warn("wal: removing obsolete segment failed", "segment", l.sealed[0].path, "err", err)
			break
		}
		l.sealed = l.sealed[1:]
		removed++
	}
	return removed
}

// discard drops the entire log — every sealed segment and the live one (a
// replica adopted a new bootstrap snapshot whose history the local segments
// no longer describe) — leaving the log without an append segment until
// restart reopens it. In between, appends are impossible (the manager holds
// no attached store) and fsyncs are no-ops (durableLSN == lastLSN).
func (l *seglog) discard() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("%w: log closed", ErrWALFailed)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.f = nil
	if err := os.Remove(l.curPath); err != nil {
		return fmt.Errorf("wal: remove segment: %w", err)
	}
	for _, s := range l.sealed {
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: remove segment: %w", err)
		}
	}
	l.sealed = nil
	l.durableLSN = l.lastLSN
	l.cond.Broadcast()
	return nil
}

// restart reopens a discarded log positioned after lastLSN under the given
// history origin, creating the first segment of the new timeline.
func (l *seglog) restart(lastLSN, origin uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("%w: log closed", ErrWALFailed)
	}
	l.origin = origin
	l.lastLSN = lastLSN
	l.durableLSN = lastLSN
	if err := l.openSegmentLocked(lastLSN + 1); err != nil {
		l.failLocked(err)
		return l.err
	}
	l.cond.Broadcast()
	return nil
}

// stats reports the observable log state for SHOW wal_status.
func (l *seglog) stats() (mode string, lastLSN, durableLSN uint64, segments int, bytes int64, errStr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	mode = syncPolicyString(l.mode, l.interval)
	lastLSN, durableLSN = l.lastLSN, l.durableLSN
	segments = len(l.sealed) + 1
	bytes = l.written
	for _, s := range l.sealed {
		bytes += s.bytes
	}
	if l.err != nil {
		errStr = l.err.Error()
	}
	return
}

// close fsyncs the tail (best effort once failed) and shuts the syncer
// down. The log cannot be reused.
func (l *seglog) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	err := l.fsyncLocked()
	// l.f is nil only when a discard was never followed by a successful
	// restart (the sticky error already reports why).
	if l.f != nil {
		if cerr := l.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wal: close segment: %w", cerr)
		}
	}
	l.closed = true
	l.cond.Broadcast()
	close(l.kick)
	l.mu.Unlock()
	<-l.done
	return err
}
