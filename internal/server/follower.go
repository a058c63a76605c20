package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"perm/internal/engine"
	"perm/internal/logx"
	"perm/internal/metrics"
	"perm/internal/repl"
	"perm/internal/storage"
	"perm/internal/wire"
)

// FollowerConfig tunes a replication follower. Only PrimaryAddr is required.
type FollowerConfig struct {
	// PrimaryAddr is the primary permserver's host:port.
	PrimaryAddr string
	// DialTimeout bounds the TCP connect plus handshake; default 5s.
	DialTimeout time.Duration
	// ReadTimeout bounds each read from the stream. The primary heartbeats
	// every Config.HeartbeatInterval while idle, so this is the failure
	// detector: default 15s, and it should stay a comfortable multiple of
	// the primary's heartbeat. Bootstrap snapshot chunks get the same
	// per-read budget.
	ReadTimeout time.Duration
	// RetryMin/RetryMax bound the reconnect backoff; defaults 200ms / 5s.
	RetryMin time.Duration
	RetryMax time.Duration
	// PrepareStore, when set, is called with the freshly restored bootstrap
	// store before it is swapped in — the WAL manager hooks in here
	// (Manager.AdoptStore) so a durable replica journals the feed it
	// applies and restarts from local disk instead of re-bootstrapping.
	PrepareStore func(*storage.Store) error
	// ObserveEpoch, when set, is called with every cluster epoch the stream
	// reports that is higher than the local one, BEFORE the follower adopts
	// it — a cluster harness persists the epoch here so a restart cannot
	// forget that an old primary was fenced. When nil the epoch is adopted
	// in memory only.
	ObserveEpoch func(epoch uint64)
	// Log receives the stream's lifecycle and error records; nil logs
	// nothing.
	Log *logx.Logger
}

func (c *FollowerConfig) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 15 * time.Second
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 200 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
}

// Follower turns a database into a read-scaling replica: it subscribes to a
// primary's change feed and applies it to local storage, reconnecting with
// backoff and resuming from its last applied LSN (the local change log's
// position, so resumption survives a snapshot-file restart too). While a
// follower runs, the database is read-only for sessions — SELECT, provenance
// queries, EXPLAIN and SHOW work; DML/DDL fail with engine.ErrReadOnly.
//
// Divergence (a change record whose row images don't match local data) is
// handled by re-bootstrapping: the follower reconnects asking for a fresh
// snapshot, restores it into a new store off to the side, and swaps it in
// atomically — read sessions serve the old, complete state until the swap,
// never a half-restored one. The same happens when the primary has trimmed
// its change log past the follower's position, or when the follower's
// history origin doesn't match the primary's.
type Follower struct {
	db  *engine.DB
	cfg FollowerConfig

	mu         sync.Mutex
	connected  bool
	lastErr    string
	primaryLSN uint64
	snapshots  int
	resync     bool
	progress   time.Time // last applied batch or caught-up heartbeat
	nc         net.Conn  // current connection, closed by Stop

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// StartFollower marks db read-only, installs the replication status
// provider, and starts following the primary. Call Stop to detach (the
// database stays read-only at whatever LSN it reached).
func StartFollower(db *engine.DB, cfg FollowerConfig) *Follower {
	cfg.fill()
	f := &Follower{
		db:   db,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	db.SetReadOnly(true)
	db.SetReplStatusFunc(f.Status)
	// Scrape-time staleness, mirroring SHOW replication_status. GaugeFunc
	// re-registration is latest-wins, so in a multi-follower process the
	// newest follower owns the series.
	metrics.Default.GaugeFunc("perm_repl_staleness_ms",
		"Milliseconds since this replica last proved itself current",
		func() int64 { return f.Status().Staleness.Milliseconds() })
	go f.loop()
	return f
}

// Stop terminates the follower and waits for its goroutine to exit.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.mu.Lock()
	if f.nc != nil {
		f.nc.Close()
	}
	f.mu.Unlock()
	<-f.done
}

// Status reports the follower's replication state (the provider behind
// SHOW replication_status on this database).
func (f *Follower) Status() engine.ReplStatus {
	applied := f.db.Store().Log().LastLSN()
	f.mu.Lock()
	defer f.mu.Unlock()
	primary := f.primaryLSN
	if primary < applied {
		primary = applied
	}
	var staleness time.Duration
	if !f.progress.IsZero() {
		staleness = time.Since(f.progress)
	}
	return engine.ReplStatus{
		Role:       "replica",
		Connected:  f.connected,
		AppliedLSN: applied,
		PrimaryLSN: primary,
		Epoch:      f.db.Epoch(),
		Staleness:  staleness,
		LastError:  f.lastErr,
	}
}

// Snapshots reports how many bootstrap snapshots this follower has consumed
// (tests assert a resumed follower did NOT need one).
func (f *Follower) Snapshots() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshots
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// loop reconnects forever with capped exponential backoff.
func (f *Follower) loop() {
	defer close(f.done)
	backoff := f.cfg.RetryMin
	for {
		started := time.Now()
		err := f.streamOnce()
		f.setDisconnected(err)
		if f.stopped() {
			return
		}
		if err != nil {
			f.cfg.Log.Warn("replication stream failed", "primary", f.cfg.PrimaryAddr, "err", err)
			mReplReconnects.Inc()
		}
		// A stream that ran for a while earned a fresh backoff; only rapid
		// failures escalate it.
		if time.Since(started) > 10*f.cfg.RetryMin {
			backoff = f.cfg.RetryMin
		}
		// Jitter the sleep into [backoff/2, backoff): when every replica of a
		// crashed primary reconnects at once, identical deterministic backoff
		// would keep them retrying in lockstep against the successor.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		select {
		case <-f.stop:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > f.cfg.RetryMax {
			backoff = f.cfg.RetryMax
		}
	}
}

// streamOnce runs one subscription: dial, handshake, subscribe at the local
// log position, then apply frames until the stream breaks.
func (f *Follower) streamOnce() error {
	d := net.Dialer{Timeout: f.cfg.DialTimeout}
	nc, err := d.Dial("tcp", f.cfg.PrimaryAddr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.stopped() {
		f.mu.Unlock()
		nc.Close()
		return nil
	}
	f.nc = nc
	resync := f.resync
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.nc = nil
		f.mu.Unlock()
		nc.Close()
	}()

	conn := wire.NewConn(nc)
	nc.SetDeadline(time.Now().Add(f.cfg.DialTimeout))
	if _, err := wire.Handshake(conn, "perm-replica"); err != nil {
		return err
	}
	nc.SetDeadline(time.Time{})

	// The active store is re-read at every use below: bootstrap swaps in a
	// freshly restored store mid-stream, and everything after the swap must
	// apply to the new one.
	after := f.db.Store().Log().LastLSN()
	// An empty local database asks for a snapshot outright: replaying the
	// primary's full history from genesis would also converge (the primary
	// offers it when its log still reaches back that far), but a snapshot is
	// O(current data) while history is O(everything that ever happened).
	force := resync || after == 0
	// Fingerprint the last applied record so the primary can detect a
	// same-origin timeline fork (it restarted from an older snapshot and
	// re-assigned our LSNs). Zero when the local tail doesn't reach back to
	// `after` — e.g. right after a snapshot-file restart — in which case the
	// primary resumes on the LSN/origin checks alone.
	var resumeHash uint64
	if after > 0 {
		if recs, ok := f.db.Store().Log().Since(after-1, 1); ok && len(recs) == 1 && recs[0].LSN == after {
			resumeHash = repl.RecordHash(recs[0])
		}
	}
	// The cluster epoch this replica last saw: a deposed primary (serving a
	// lower epoch) must reject this subscription instead of feeding us its
	// fenced timeline.
	sub := wire.Subscribe{After: after, Force: force, Origin: f.db.Store().Origin(), ResumeHash: resumeHash, Epoch: f.db.Epoch()}
	if err := conn.WriteMessage(wire.MsgSubscribe, sub.Encode(nil)); err != nil {
		return err
	}
	if err := conn.Flush(); err != nil {
		return err
	}

	// The liveness deadline starts at the configured timeout and stretches
	// once MsgSubLive reports the primary's heartbeat cadence — a primary
	// heartbeating every 20s must not trip a 15s default failure detector.
	readTimeout := f.cfg.ReadTimeout
	ackBuf := make([]byte, 0, binary.MaxVarintLen64)
	for {
		nc.SetReadDeadline(time.Now().Add(readTimeout))
		typ, body, err := conn.ReadMessage()
		if err != nil {
			return err
		}
		switch typ {
		case wire.MsgSubSnapshot, wire.MsgSubLive:
			var live wire.SubLive
			if typ == wire.MsgSubSnapshot {
				live, err = f.bootstrap(conn, nc)
			} else {
				live, err = wire.DecodeSubLive(body)
			}
			if err != nil {
				return err
			}
			readTimeout = max(readTimeout, 3*live.Heartbeat)
			if err := f.adoptStreamEpoch(live.Epoch); err != nil {
				return err
			}
			if applied := f.db.Store().Log().LastLSN(); live.LSN != applied {
				f.markResync()
				return fmt.Errorf("primary went live at LSN %d, local log is at %d", live.LSN, applied)
			}
			f.setConnected()
			f.noteProgress()
			f.cfg.Log.Info("replication live", "lsn", live.LSN, "primary", f.cfg.PrimaryAddr, "snapshot", typ == wire.MsgSubSnapshot)
		case wire.MsgChanges:
			// The payload is WAL frames: a damaged one fails the stream
			// before its record is applied, and the next subscription
			// resumes from the last record that was.
			store := f.db.Store()
			last := uint64(0)
			err := repl.ReadRecordFrames(body, func(rec repl.Record) error {
				if want := store.Log().LastLSN() + 1; rec.LSN != want {
					f.markResync()
					return fmt.Errorf("change feed gap: got LSN %d, want %d", rec.LSN, want)
				}
				if err := store.ApplyChange(rec); err != nil {
					f.markResync()
					return fmt.Errorf("apply LSN %d: %w", rec.LSN, err)
				}
				last = rec.LSN
				return nil
			})
			if err != nil {
				return err
			}
			if last > 0 {
				// One durability wait per batch, not per record: the applied
				// records are journaled by the store's WAL hook (when one is
				// attached), and group-committing the batch keeps replica
				// apply throughput at the primary's, not at one fsync per
				// record.
				if err := store.WaitDurable(); err != nil {
					return fmt.Errorf("replica WAL: %w", err)
				}
				f.observePrimary(last)
				f.noteProgress()
				// Acknowledge the durably applied position so a semi-sync
				// primary can release writes waiting on this replica.
				ackBuf = binary.AppendUvarint(ackBuf[:0], last)
				nc.SetWriteDeadline(time.Now().Add(readTimeout))
				if err := conn.WriteMessage(wire.MsgSubAck, ackBuf); err != nil {
					return fmt.Errorf("send replication ack: %w", err)
				}
				if err := conn.Flush(); err != nil {
					return fmt.Errorf("send replication ack: %w", err)
				}
				nc.SetWriteDeadline(time.Time{})
			}
		case wire.MsgHeartbeat:
			hb, err := wire.DecodeHeartbeat(body)
			if err != nil {
				return err
			}
			if err := f.adoptStreamEpoch(hb.Epoch); err != nil {
				return err
			}
			f.observePrimary(hb.LSN)
			// A heartbeat that reports nothing left to apply is progress: the
			// replica is caught up, so staleness restarts from now.
			if hb.LSN <= f.db.Store().Log().LastLSN() {
				f.noteProgress()
			}
		case wire.MsgError:
			serr := wire.DecodeServerError(body)
			if serr.Code == wire.ErrCodeLogTrimmed {
				// Retained tail moved past us mid-stream; the next attempt's
				// Subscribe will be answered with a snapshot automatically.
				f.cfg.Log.Warn("primary trimmed its change log past our position; re-bootstrapping", "primary", f.cfg.PrimaryAddr)
			}
			return serr
		default:
			return fmt.Errorf("unexpected frame %q in replication stream", typ)
		}
	}
}

// bootstrap rebuilds local storage from the snapshot stream and swaps it in,
// leaving the local change log at the snapshot's LSN (and the store carrying
// the primary's history origin, via Restore). It returns the SubLive frame
// that closes the stream.
func (f *Follower) bootstrap(conn *wire.Conn, nc net.Conn) (wire.SubLive, error) {
	f.mu.Lock()
	f.snapshots++
	mReplBootstraps.Inc()
	f.mu.Unlock()
	// Restore off to the side: sessions keep serving the current (old but
	// complete) store until the new one is whole, then the swap is atomic.
	// A failed bootstrap leaves the old data serving. The fresh store
	// inherits the old one's log retention (the operator's -repl-retain-mb).
	fresh := storage.NewStore()
	fresh.Log().SetRetentionBytes(f.db.Store().Log().Retention())
	snap := wire.NewSnapshotReader(conn, wire.MsgSubLive, func() {
		nc.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
	})
	err := fresh.Restore(snap)
	end, serr := snap.End()
	if serr != nil {
		return wire.SubLive{}, serr // a transport error wins over the decode error it caused
	}
	if err != nil {
		f.markResync()
		return wire.SubLive{}, fmt.Errorf("restore bootstrap snapshot: %w", err)
	}
	live, err := wire.DecodeSubLive(end)
	if err != nil {
		return wire.SubLive{}, err
	}
	if live.LSN != fresh.Log().LastLSN() {
		f.markResync()
		return wire.SubLive{}, fmt.Errorf("snapshot stream live at LSN %d, snapshot payload at %d", live.LSN, fresh.Log().LastLSN())
	}
	if f.cfg.PrepareStore != nil {
		if err := f.cfg.PrepareStore(fresh); err != nil {
			f.markResync()
			return wire.SubLive{}, fmt.Errorf("prepare bootstrap store: %w", err)
		}
	}
	f.db.SwapStore(fresh)
	f.mu.Lock()
	f.resync = false
	// The primary-LSN ratchet restarts at the snapshot's position: after a
	// timeline-fork re-seed the old timeline's (higher) LSNs would otherwise
	// report a lag that never reaches zero again.
	f.primaryLSN = fresh.Log().LastLSN()
	f.mu.Unlock()
	return live, nil
}

func (f *Follower) setConnected() {
	f.mu.Lock()
	f.connected = true
	f.lastErr = ""
	f.mu.Unlock()
}

func (f *Follower) setDisconnected(err error) {
	f.mu.Lock()
	f.connected = false
	if err != nil && !errors.Is(err, net.ErrClosed) {
		f.lastErr = err.Error()
	}
	f.mu.Unlock()
}

func (f *Follower) observePrimary(lsn uint64) {
	applied := f.db.Store().Log().LastLSN()
	f.mu.Lock()
	if lsn > f.primaryLSN {
		f.primaryLSN = lsn
	}
	if f.primaryLSN > applied {
		mReplLag.Set(int64(f.primaryLSN - applied))
	} else {
		mReplLag.Set(0)
	}
	f.mu.Unlock()
}

// noteProgress timestamps the last moment this replica was demonstrably
// current: it applied a batch, or a heartbeat confirmed there was nothing to
// apply. SHOW replication_status reports time-since as staleness_ms.
func (f *Follower) noteProgress() {
	f.mu.Lock()
	f.progress = time.Now()
	f.mu.Unlock()
}

// adoptStreamEpoch reconciles a cluster epoch reported by the stream with
// the local one. Lower means the node feeding us was deposed — the stream
// fails with engine.ErrStaleEpoch rather than applying a fenced timeline.
// Higher is adopted, persisting first (via the harness's ObserveEpoch) so a
// restart cannot forget the fence.
func (f *Follower) adoptStreamEpoch(epoch uint64) error {
	cur := f.db.Epoch()
	if epoch < cur {
		return fmt.Errorf("node %s serves cluster epoch %d but this replica is at epoch %d: %w",
			f.cfg.PrimaryAddr, epoch, cur, engine.ErrStaleEpoch)
	}
	if epoch > cur {
		if f.cfg.ObserveEpoch != nil {
			f.cfg.ObserveEpoch(epoch)
		}
		f.db.SetEpoch(epoch)
	}
	return nil
}

// markResync makes the next subscription ask for a fresh snapshot instead of
// resuming: the local state can no longer be trusted to match the feed.
func (f *Follower) markResync() {
	f.mu.Lock()
	f.resync = true
	f.mu.Unlock()
}
