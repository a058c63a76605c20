package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"perm/internal/storage"
	"perm/internal/wal/walfault"
)

// Manager owns the durable side of one data directory: the append log, the
// snapshot file, and the background checkpointer. It also implements the
// policy surface behind SET wal_sync / SHOW wal_status (adapted to the
// engine's controller interface by internal/server).
type Manager struct {
	dir string
	log *seglog

	mu            sync.Mutex
	store         *storage.Store
	checkpointLSN uint64
	checkpoints   int

	ckStop chan struct{}
	ckDone chan struct{}
}

// Store returns the store the manager currently journals (a replica's
// bootstrap may swap it via AdoptStore).
func (m *Manager) Store() *storage.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store
}

// attach journals every record s's change log accepts and gates s's
// mutations on WAL durability. Recovery replays BEFORE attaching, so
// replayed records are not re-journaled.
func (m *Manager) attach(s *storage.Store) {
	s.Log().SetAppendHook(m.log.append)
	s.SetDurability(m.log)
}

// SetSyncPolicy switches the fsync policy at runtime: "always",
// "group(<ms>)" or "off".
func (m *Manager) SetSyncPolicy(policy string) error {
	mode, interval, err := ParseSyncPolicy(policy)
	if err != nil {
		return err
	}
	m.log.setSync(mode, interval)
	return nil
}

// Status is the observable WAL state (SHOW wal_status).
type Status struct {
	// Mode is the active sync policy string.
	Mode string
	// LastLSN is the newest journaled record; DurableLSN the newest one
	// fsync has covered (they converge at every sync-policy commit point).
	LastLSN, DurableLSN uint64
	// CheckpointLSN is the LSN of the snapshot on disk — recovery replays
	// only records beyond it.
	CheckpointLSN uint64
	// Checkpoints counts snapshots written in this process life.
	Checkpoints int
	// Segments and WALBytes size the live log.
	Segments int
	WALBytes int64
	// Err is the sticky durability failure, empty while healthy.
	Err string
}

// Status reports the manager's state.
func (m *Manager) Status() Status {
	mode, last, durable, segs, bytes, errStr := m.log.stats()
	m.mu.Lock()
	ck, n := m.checkpointLSN, m.checkpoints
	m.mu.Unlock()
	return Status{Mode: mode, LastLSN: last, DurableLSN: durable, CheckpointLSN: ck, Checkpoints: n, Segments: segs, WALBytes: bytes, Err: errStr}
}

// Checkpoint writes a consistent snapshot of the current store (via the
// non-blocking SaveLSN: readers never wait, writers only for the
// header-collection instant), atomically replaces the snapshot file, and
// garbage-collects segments wholly below the checkpoint and the
// replica-retention floor. Safe to call concurrently with traffic and with
// the background checkpointer.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointLocked()
}

func (m *Manager) checkpointLocked() error {
	store := m.store
	tmp := filepath.Join(m.dir, snapshotTmp)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	lsn, err := store.SaveLSN(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if h := m.hooks(); h != nil && h.MidCheckpoint != nil {
		h.MidCheckpoint()
	}
	// Rename-then-fsync-dir makes the switch atomic: recovery sees either
	// the old snapshot (WAL still covers the gap — segments are only
	// removed below) or the new one, never a half-written file.
	if err := os.Rename(tmp, filepath.Join(m.dir, snapshotName)); err != nil {
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	if err := syncDir(m.dir); err != nil {
		return err
	}
	m.checkpointLSN = lsn
	m.checkpoints++
	mCheckpoints.Inc()
	// GC floor: segments below the checkpoint are redundant with the
	// snapshot, but segments the in-memory change log still retains stay —
	// they cost little and keep the on-disk history aligned with what a
	// replication follower could still fetch from us.
	floor := lsn + 1
	if oldest := store.Log().OldestLSN(); oldest > 0 && oldest < floor {
		floor = oldest
	}
	if n := m.log.removeBelow(floor); n > 0 {
		m.log.lg.Info("wal: checkpoint", "lsn", lsn, "removed_segments", n)
	} else {
		m.log.lg.Info("wal: checkpoint", "lsn", lsn)
	}
	return nil
}

func (m *Manager) hooks() *walfault.Hooks { return m.log.hooks }

// StartCheckpointer checkpoints every interval while there are new records
// to absorb. Stop it with Close.
func (m *Manager) StartCheckpointer(interval time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ckStop != nil || interval <= 0 {
		return
	}
	m.ckStop = make(chan struct{})
	m.ckDone = make(chan struct{})
	stop, done := m.ckStop, m.ckDone
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			m.mu.Lock()
			if m.store.Log().LastLSN() != m.checkpointLSN {
				if err := m.checkpointLocked(); err != nil {
					m.log.lg.Warn("wal: background checkpoint failed", "err", err)
				}
			}
			m.mu.Unlock()
		}
	}()
}

// AdoptStore rebases the manager onto a freshly bootstrapped store — the
// replica path: when the follower restores a new snapshot from the primary
// (first boot, divergence, timeline fork), the local WAL describes a
// history the new store no longer continues. The old segments are
// discarded, the bootstrap snapshot becomes the on-disk checkpoint, and
// journaling re-attaches to the fresh store, so a replica restart recovers
// locally and resumes the feed incrementally instead of re-bootstrapping.
//
// Ordering is crash-safe in the weak-but-consistent sense, and every crash
// window recovers to a state replay accepts: (1) the old-origin segments
// are removed first — a crash here recovers the old snapshot with no WAL
// tail, an older consistent state, and the follower (it is always a
// follower that calls this) re-bootstraps from the primary; (2) the new
// snapshot is installed — a crash here recovers the fresh state the same
// way; (3) only then is the first new-origin segment created, so no crash
// can leave a new-origin segment next to an old-origin snapshot (which
// recovery would reject as mixed data directories).
func (m *Manager) AdoptStore(fresh *storage.Store) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.log.Err(); err != nil {
		return err
	}
	// Detach the outgoing store first: a late mutation on it must not
	// interleave its records into the new store's journal, and must not
	// wait on a log that will never see its LSNs again.
	m.store.Log().SetAppendHook(nil)
	m.store.SetDurability(nil)
	if err := m.log.discard(); err != nil {
		return err
	}
	m.store = fresh
	if err := m.checkpointLocked(); err != nil {
		return err
	}
	if err := m.log.restart(fresh.Log().LastLSN(), fresh.Origin()); err != nil {
		return err
	}
	m.attach(fresh)
	return nil
}

// Close stops the checkpointer and closes the log after a final fsync. It
// does NOT write a final checkpoint — callers that want one (permserver's
// graceful shutdown) call Checkpoint first, so tests can exercise pure
// snapshot+replay recovery.
func (m *Manager) Close() error {
	m.mu.Lock()
	stop, done := m.ckStop, m.ckDone
	m.ckStop, m.ckDone = nil, nil
	if m.store != nil {
		m.store.Log().SetAppendHook(nil)
	}
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return m.log.close()
}
