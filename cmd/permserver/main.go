// Command permserver serves a Perm provenance database over TCP using the
// wire protocol of internal/wire, so standard database/sql clients (via
// perm/driver) and permshell -connect can query it concurrently.
//
//	permserver -addr :5433 -load example
//	permserver -addr :5433 -open snapshot.perm -save snapshot.perm
//	permserver -addr :5434 -replica-of 127.0.0.1:5433
//
// Every connection gets its own session (settings, plan cache) over the
// shared database. SIGINT/SIGTERM triggers a graceful shutdown: accepting
// stops, idle connections close, in-flight requests drain (bounded by
// -drain), and with -save set a final consistent snapshot is written.
//
// With -replica-of the server runs as a read-scaling replica: it bootstraps
// from the primary's consistent snapshot stream, applies the logical change
// feed (reconnecting with backoff and resuming from its applied LSN), and
// serves read-only sessions — SELECT, provenance queries, EXPLAIN and SHOW
// work; writes fail with a typed read-only error. A replica restarted with
// -open resumes incrementally from the snapshot's LSN instead of taking a
// full re-snapshot, as long as the primary still retains that log tail.
// Replicas also serve Subscribe themselves, so replicas can be chained.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"perm/internal/engine"
	"perm/internal/logx"
	"perm/internal/metrics"
	"perm/internal/repl"
	"perm/internal/server"
	"perm/internal/wal"
	"perm/internal/workload"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:5433", "listen address (host:port)")
		maxConns     = flag.Int("max-conns", 256, "maximum concurrent connections (0 = unlimited)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-query execution timeout (0 = unlimited)")
		load         = flag.String("load", "", "bootstrap dataset: example | forum[:N] | star[:N]")
		open         = flag.String("open", "", "restore the database from a snapshot file at startup")
		save         = flag.String("save", "", "write a consistent snapshot to this file on shutdown")
		dataDir      = flag.String("data-dir", "", "durable data directory: snapshot + fsync'd write-ahead log; crash recovery replays the WAL on startup")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always | group | group(<ms>) | off (SET wal_sync changes it at runtime)")
		ckInterval   = flag.Duration("checkpoint-interval", time.Minute, "background checkpoint interval with -data-dir (0 = only on shutdown)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		replicaOf    = flag.String("replica-of", "", "run as a read-only replica of the primary at host:port")
		replRetainMB = flag.Int("repl-retain-mb", repl.DefaultRetentionBytes>>20, "approximate change-log memory budget in MiB (0 = unlimited)")
		heartbeat    = flag.Duration("heartbeat", time.Second, "replication heartbeat interval sent to followers")
		cursorBatch  = flag.Int("cursor-batch", 0, "rows per streamed result batch frame (0 = default 256)")
		workMem      = flag.Int64("work-mem", 0, "per-session memory budget in bytes for blocking operators; past it sorts/aggregates/set ops spill to disk (0 = engine default, -1 = unlimited)")
		parallelism  = flag.Int("parallelism", 0, "default intra-query parallelism degree per session (0 = serial, -1 = all cores; sessions can still SET parallelism)")
		tempDir      = flag.String("temp-dir", "", "directory for spill temp files (default: the OS temp directory)")
		syncReplicas = flag.Int("sync-replicas", 0, "semi-synchronous replication: writes are acknowledged only after this many replicas have durably applied them (0 = async)")
		syncTimeout  = flag.Duration("sync-timeout", 2*time.Second, "how long a write waits for its replica-acknowledgment quorum before failing with a typed error")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus metrics and pprof on this address (e.g. 127.0.0.1:9090); empty disables")
		slowQueryMs  = flag.Int64("slow-query-ms", 0, "log statements taking at least this many milliseconds (0 = disabled; sessions can still SET slow_query_ms)")
		vacuumEvery  = flag.Duration("vacuum-interval", time.Second, "background MVCC vacuum cadence: reclaims row versions no pinned snapshot can still see")
		logFormat    = flag.String("log-format", "text", "log output format: text | json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()
	minLevel, err := logx.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := logx.New(os.Stderr, *logFormat, minLevel, "permserver")
	fatal := func(msg string, fields ...any) {
		logger.Error(msg, fields...)
		os.Exit(1)
	}
	if *replicaOf != "" && *load != "" {
		fatal("-load writes to the database; a replica (-replica-of) is read-only — load the primary instead")
	}
	if *dataDir != "" && *open != "" {
		fatal("-open conflicts with -data-dir: the data directory has its own snapshot; use one or the other")
	}

	var db *engine.DB
	var mgr *wal.Manager
	if *dataDir != "" {
		store, m, rec, err := wal.Open(*dataDir, wal.Options{
			Sync:               *walSync,
			CheckpointInterval: *ckInterval,
			Log:                logger,
		})
		if err != nil {
			fatal("recovery failed", "dir", *dataDir, "err", err)
		}
		mgr = m
		db = engine.NewDBFrom(store)
		db.SetWALController(server.WALController(mgr))
		logger.Info("recovered", "dir", *dataDir, "snapshot_lsn", rec.SnapshotLSN, "replayed", rec.Replayed,
			"lsn", rec.LastLSN, "truncated_bytes", rec.TruncatedBytes)
	} else {
		db = engine.NewDB()
	}
	db.Store().Log().SetRetentionBytes(*replRetainMB << 20)
	if *open != "" {
		f, err := os.Open(*open)
		if err != nil {
			fatal("open snapshot failed", "err", err)
		}
		err = db.Store().Restore(f)
		f.Close()
		if err != nil {
			fatal("restore failed", "file", *open, "err", err)
		}
		logger.Info("restored database", "file", *open)
	}
	if *load != "" {
		if err := loadDataset(db, *load); err != nil {
			fatal("load failed", "dataset", *load, "err", err)
		}
		logger.Info("loaded dataset", "dataset", *load)
	}

	cfg := server.Config{
		MaxConns:          *maxConns,
		QueryTimeout:      *queryTimeout,
		HeartbeatInterval: *heartbeat,
		CursorBatchRows:   *cursorBatch,
		WorkMem:           *workMem,
		Parallelism:       *parallelism,
		TempDir:           *tempDir,
		SyncReplicas:      *syncReplicas,
		SyncTimeout:       *syncTimeout,
		SlowQueryMs:       *slowQueryMs,
		Log:               logger,
	}
	srv := server.New(db, cfg)

	// Background version vacuum: writers append row versions; this reclaims
	// the ones no pinned snapshot (statement or open transaction) can reach.
	// It reads the store through the DB on every pass, so a replica
	// re-bootstrap's store swap is picked up automatically.
	stopVacuum := db.StartVacuum(*vacuumEvery)
	defer stopVacuum()

	// Every server is a managed cluster member: the harness restores the
	// persisted fencing epoch from -data-dir and serves coordinator-issued
	// promote/demote orders, so a permrouter can fail the cluster over
	// without restarting processes.
	fcfg := server.FollowerConfig{}
	if mgr != nil {
		// A durable replica journals the feed it applies: restart
		// recovers from local disk and resumes the stream incrementally
		// instead of re-bootstrapping, and a fresh bootstrap snapshot
		// rebases the local WAL onto the primary's history.
		fcfg.PrepareStore = mgr.AdoptStore
	}
	node, err := server.NewClusterNode(db, srv, server.ClusterNodeConfig{
		DataDir:  *dataDir,
		Follower: fcfg,
		Log:      logger,
	})
	if err != nil {
		fatal("cluster harness failed", "err", err)
	}
	if *replicaOf != "" {
		node.Follow(*replicaOf)
		logger.Info("replica", "primary", *replicaOf, "after_lsn", db.Store().Log().LastLSN())
	} else if err := node.EnsurePrimaryEpoch(); err != nil {
		fatal("cluster harness failed", "err", err)
	}

	if *metricsAddr != "" {
		msrv := &http.Server{Addr: *metricsAddr, Handler: metrics.Default.Handler()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics listener failed", "err", err)
			}
		}()
		defer msrv.Close()
		logger.Info("metrics and pprof", "url", "http://"+*metricsAddr+"/metrics")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()
	logger.Info("serving", "addr", *addr, "max_conns", *maxConns, "query_timeout", *queryTimeout)

	exitCode := 0
	select {
	case err := <-serveErr:
		// Even a fatal serve error must not lose the database when the
		// operator asked for a shutdown snapshot: drain and fall through to
		// the -save block below.
		logger.Error("serve failed", "err", err)
		exitCode = 1
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown: connections force-closed", "err", err)
		}
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "deadline", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown: connections force-closed", "err", err)
		}
	}

	if follower := node.Follower(); follower != nil {
		// Stop applying before the final snapshot so -save captures a stable
		// LSN the restarted replica resumes from.
		st := follower.Status()
		node.Stop()
		logger.Info("replication stopped", "lsn", st.AppliedLSN, "primary_lsn", st.PrimaryLSN, "lag", st.Lag())
	}

	if mgr != nil {
		// Final checkpoint so the next start replays (close to) nothing,
		// then detach — everything acknowledged is already fsync'd per the
		// sync policy, so even a failed checkpoint loses nothing.
		if err := mgr.Checkpoint(); err != nil {
			logger.Warn("final checkpoint failed; WAL replay will cover it", "err", err)
		}
		if err := mgr.Close(); err != nil {
			logger.Error("closing WAL failed", "err", err)
		} else {
			logger.Info("data directory closed cleanly", "dir", *dataDir)
		}
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal("create snapshot failed", "err", err)
		}
		err = db.Store().Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("save failed", "file", *save, "err", err)
		}
		logger.Info("saved snapshot", "file", *save)
	}
	logger.Info("goodbye", "queries", srv.QueriesServed())
	os.Exit(exitCode)
}

// loadDataset bootstraps one of the built-in workloads: "example",
// "forum[:N]", "star[:N]".
func loadDataset(db *engine.DB, spec string) error {
	name, arg, _ := strings.Cut(spec, ":")
	n := 1000
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil {
			return fmt.Errorf("bad scale %q", arg)
		}
		n = v
	}
	return workload.LoadByName(db, name, n)
}
