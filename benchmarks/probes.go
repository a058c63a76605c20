package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"perm/internal/catalog"
	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/spill"
	"perm/internal/storage"
	"perm/internal/value"
	"perm/internal/wal"
)

// The layer probes of a traced run. Each times calls into one layer's
// exported functions on a fixed amount of work; the engine, server and
// driver probes use the workload's own read statements (the ones the checks
// run), the spill, storage and WAL probes bring their own rows and are the
// same on every workload.

var trivial = &stmt{class: "TRIVIAL", sql: "SELECT 1"}

// n and d scale a probe's amount of work, given for the 25 s window of
// BENCHMARK.json, to the window of this run.
func (e *env) n(n int) int {
	if n = int(float64(n) * e.scale); n < 2 {
		return 2
	}
	return n
}

func (e *env) d(d time.Duration) time.Duration { return time.Duration(float64(d) * e.scale) }

// p50of runs f n times after one untimed call and returns the median.
func p50of(n int, f func() error) (time.Duration, error) { return p50for(0, n, f) }

// p50for runs f after one untimed call until it has run both n times and
// for d, and returns the median.
func p50for(d time.Duration, n int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	var begin time.Time
	for i := -1; i < n || time.Since(begin) < d; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if i >= 0 {
			ds = append(ds, time.Since(t))
		} else {
			begin = time.Now()
		}
	}
	return quantile(ds, 0.5), nil
}

// p50each runs o on each runner in turn, n times after one untimed round,
// and returns each runner's median: taking turns keeps a drift of the host
// out of the differences between the runners.
func p50each(n int, rs []runner, o *op) ([]time.Duration, error) {
	ds := make([][]time.Duration, len(rs))
	for i := -1; i < n; i++ {
		for j, r := range rs {
			t := time.Now()
			if _, err := r.run(o, nil); err != nil {
				return nil, err
			}
			if i >= 0 {
				ds[j] = append(ds[j], time.Since(t))
			}
		}
	}
	out := make([]time.Duration, len(rs))
	for j := range ds {
		out[j] = quantile(ds[j], 0.5)
	}
	return out, nil
}

// cycleTime is the median time of a pass over ops on the runner, after one
// pass that re-plans what a SET invalidated: at least 3 passes, and half a
// second of them where a pass is short.
func (e *env) cycleTime(r runner, ops []op) (time.Duration, error) {
	return p50for(e.d(time.Second/2), e.n(3), func() error {
		for i := range ops {
			if _, err := r.run(&ops[i], nil); err != nil {
				return err
			}
		}
		return nil
	})
}

func (e *env) probes(ctx context.Context, c *checker, m map[string]metric) error {
	// One of each read statement of the workload.
	reads := e.checkOps()
	if err := e.probeEngine(m, reads); err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	if err := e.probePaths(m, reads); err != nil {
		return fmt.Errorf("path probe: %w", err)
	}
	if err := e.probeSpill(m); err != nil {
		return fmt.Errorf("spill probe: %w", err)
	}
	if err := e.probeStorage(m); err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	if err := e.probeWAL(c, m); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return ctx.Err()
}

// probeEngine: the fixed per-statement cost of a plan-cache hit, the
// engine's own stage timings with the cache off, and the workload's reads
// at parallelism 2 and at a 1 MiB budget against the pinned settings.
func (e *env) probeEngine(m map[string]metric, reads []op) error {
	s := e.refSession()
	r := newSessRunner(s)
	defer r.close()

	hit, err := p50of(e.n(2000), func() error { _, err := r.run(&op{st: trivial}, nil); return err })
	if err != nil {
		return err
	}
	m["engine.cache_hit_us"] = metric{us(hit), "us"}

	base, err := e.cycleTime(r, reads)
	if err != nil {
		return err
	}
	s.SetParallelism(2)
	par2, err := e.cycleTime(r, reads)
	if err != nil {
		return err
	}
	s.SetParallelism(1)
	s.SetWorkMem(1 << 20)
	small, err := e.cycleTime(r, reads)
	if err != nil {
		return err
	}
	s.SetWorkMem(engine.DefaultWorkMem)
	m["executor.par2_speedup_x"] = metric{ratio(float64(base), float64(par2)), "x"}
	m["executor.spill_slowdown_x"] = metric{ratio(float64(small), float64(base)), "x"}

	if _, err := s.Execute("SET plan_cache = 'off'"); err != nil {
		return err
	}
	var t engine.Timings
	for begin, k := time.Now(), 0; k < e.n(3) || time.Since(begin) < e.d(time.Second/2); k++ {
		for i := range reads {
			res, err := r.exec(&reads[i])
			if err != nil {
				return err
			}
			t.Parse += res.Timings.Parse
			t.Analyze += res.Timings.Analyze - res.Timings.Rewrite
			t.Rewrite += res.Timings.Rewrite
			t.Plan += res.Timings.Plan
			t.Execute += res.Timings.Execute
		}
	}
	total := float64(t.Parse + t.Analyze + t.Rewrite + t.Plan + t.Execute)
	for name, d := range map[string]time.Duration{"parse": t.Parse, "analyze": t.Analyze, "rewrite": t.Rewrite, "plan": t.Plan, "execute": t.Execute} {
		m["engine.share."+name] = metric{ratio(float64(d), total), "frac"}
	}
	return nil
}

// probePaths takes the same statements down the three paths and reports the
// differences: what the server adds to an embedded call, and what
// database/sql adds to a bare wire.Client. The embedded workloads get a
// server on a loopback port for the probe.
func (e *env) probePaths(m map[string]metric, reads []op) (err error) {
	srv := e.srv
	if srv == nil {
		if srv, err = e.startServer(); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, srv.shutdown()) }()
	}
	addr := srv.addr
	emb := newSessRunner(e.refSession())
	defer emb.close()
	wr, err := newWireRunner(addr)
	if err != nil {
		return err
	}
	defer wr.close()
	db, err := sql.Open("perm", "tcp://"+addr)
	if err != nil {
		return err
	}
	defer db.Close()
	sr, err := newSQLRunner(db)
	if err != nil {
		return err
	}
	defer sr.close()

	// The streaming statement is the read that delivers most rows per unit
	// of engine time, so that the paths' per-row costs are not lost in it.
	var big *op
	var bigRate float64
	for i := range reads {
		d, err := p50of(e.n(3), func() error { _, err := emb.run(&reads[i], nil); return err })
		if err != nil {
			return err
		}
		if rate := float64(reads[i].want) / float64(d); big == nil || rate > bigRate {
			big, bigRate = &reads[i], rate
		}
	}
	paths := []runner{emb, wr, sr}
	small, err := p50each(e.n(1000), paths, &op{st: trivial})
	if err != nil {
		return err
	}
	large, err := p50each(e.n(30), paths, big)
	if err != nil {
		return err
	}
	rows := float64(big.want)
	m["server.rtt_us"] = metric{us(small[1] - small[0]), "us"}
	m["driver.overhead_us"] = metric{us(small[2] - small[1]), "us"}
	m["server.stream_rows_s"] = metric{ratio(rows, large[1].Seconds()), "1/s"}
	m["driver.scan_ns_row"] = metric{ratio(float64(large[2]-large[1]), rows), "ns"}
	return nil
}

// probeRows makes n rows shaped like a provenance result of the forum:
// ints, short strings and a NULL.
func probeRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("lorem ipsum dolor %d", i%97)),
			value.NewInt(int64(i % 200)), value.NewString("user" + fmt.Sprint(i%200)), value.Value{}}
	}
	return rows
}

// probeSpill times the spill codec in memory and a spill file's write and
// read-back in the env's directory.
func (e *env) probeSpill(m map[string]metric) error {
	rows := probeRows(e.n(100000))
	recs := make([][]byte, len(rows))
	t0 := time.Now()
	var bytes int64
	for i, row := range rows {
		recs[i] = spill.AppendRow(nil, row)
		bytes += int64(len(recs[i]))
	}
	for _, rec := range recs {
		if _, _, err := spill.DecodeRow(rec); err != nil {
			return err
		}
	}
	m["spill.codec_ns_row"] = metric{float64(time.Since(t0)) / float64(len(rows)), "ns"}

	pool := spill.NewPool(e.dir)
	defer pool.Cleanup()
	f, err := pool.Create()
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, rec := range recs {
		if err := f.Append(rec); err != nil {
			return err
		}
	}
	if err := f.StartRead(); err != nil {
		return err
	}
	wrote := time.Since(t0)
	t0 = time.Now()
	for n := 0; ; n++ {
		rec, err := f.Next()
		if err != nil {
			return err
		}
		if rec == nil {
			if n != len(recs) {
				return fmt.Errorf("read back %d of %d records", n, len(recs))
			}
			break
		}
	}
	read := time.Since(t0)
	mb := float64(bytes) / (1 << 20)
	m["spill.write_mb_s"] = metric{mb / wrote.Seconds(), "MiB/s"}
	m["spill.read_mb_s"] = metric{mb / read.Seconds(), "MiB/s"}
	return f.Close()
}

// probeStorage times a bulk load into a fresh in-memory table and a
// snapshot scan of it.
func (e *env) probeStorage(m map[string]metric) error {
	rows := probeRows(e.n(100000))
	store := storage.NewStore()
	t, err := store.CreateTable(&catalog.TableDef{Name: "probe", Columns: []catalog.Column{
		{Name: "a", Type: value.KindInt}, {Name: "b", Type: value.KindString}, {Name: "c", Type: value.KindInt},
		{Name: "d", Type: value.KindString}, {Name: "e", Type: value.KindInt}}})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := t.InsertBatch(rows); err != nil {
		return err
	}
	m["storage.insert_ns_row"] = metric{float64(time.Since(t0)) / float64(len(rows)), "ns"}
	// A write drops the table's materialized snapshot, so the Snapshot after
	// it walks every slot: that walk is the scan.
	var scans []time.Duration
	for i := 0; i < 5; i++ {
		if _, err := t.Insert(rows[i]); err != nil {
			return err
		}
		t0 = time.Now()
		n := len(t.Snapshot())
		scans = append(scans, time.Since(t0))
		if n != len(rows)+i+1 {
			return fmt.Errorf("snapshot has %d of %d rows", n, len(rows)+i+1)
		}
	}
	m["storage.scan_ns_row"] = metric{float64(quantile(scans, 0.5)) / float64(len(rows)), "ns"}
	return nil
}

// probeWAL opens a WAL store of its own under the env's directory: what an
// fsynced single-row INSERT costs over the same INSERT on a memory store,
// what it writes, a checkpoint, and recovery of a tail of records.
func (e *env) probeWAL(c *checker, m map[string]metric) error {
	dir := filepath.Join(e.dir, "walprobe")
	defer os.RemoveAll(dir)
	var id int64
	insertP50 := func(db *engine.DB, n int) (time.Duration, error) {
		s := db.NewSession()
		defer s.Close()
		p, err := s.Prepare("INSERT INTO w VALUES (?, ?)")
		if err != nil {
			return 0, err
		}
		return p50of(n-1, func() error {
			id++
			_, err := p.Exec(value.NewInt(id), value.NewString("lorem ipsum dolor"))
			return err
		})
	}
	const create = "CREATE TABLE w (id int, v text)"
	writes, bulk, tail := e.n(200), e.n(20000), e.n(500)
	mem := engine.NewDB()
	if _, err := mem.NewSession().Execute(create); err != nil {
		return err
	}
	memP50, err := insertP50(mem, writes)
	if err != nil {
		return err
	}
	store, mgr, _, err := wal.Open(dir, wal.Options{Sync: "always"})
	if err != nil {
		return err
	}
	db := engine.NewDBFrom(store)
	db.SetWALController(server.WALController(mgr))
	if _, err := db.NewSession().Execute(create); err != nil {
		return errors.Join(err, mgr.Close())
	}
	bytes0 := mgr.Status().WALBytes
	walP50, err := insertP50(db, writes)
	if err != nil {
		return errors.Join(err, mgr.Close())
	}
	m["wal.bytes_per_write"] = metric{float64(mgr.Status().WALBytes-bytes0) / float64(writes), "B"}
	m["wal.commit_us"] = metric{us(walP50 - memP50), "us"}

	rows := make([]value.Row, bulk)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewString("lorem ipsum dolor")}
	}
	if _, err := store.Table("w").InsertBatch(rows); err != nil {
		return errors.Join(err, mgr.Close())
	}
	t0 := time.Now()
	if err := mgr.Checkpoint(); err != nil {
		return errors.Join(err, mgr.Close())
	}
	m["wal.checkpoint_ms"] = metric{ms(time.Since(t0)), "ms"}

	// A tail for recovery to replay: unsynced, so that writing it is quick.
	if err := mgr.SetSyncPolicy("off"); err != nil {
		return errors.Join(err, mgr.Close())
	}
	if _, err := insertP50(db, tail); err != nil {
		return errors.Join(err, mgr.Close())
	}
	if err := mgr.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	store, mgr, rec, err := wal.Open(dir, wal.Options{Sync: "always"})
	if err != nil {
		return err
	}
	took := time.Since(t0)
	m["wal.recover_ms"] = metric{ms(took), "ms"}
	m["wal.replay_records_s"] = metric{ratio(float64(rec.Replayed), took.Seconds()), "1/s"}
	c.check(store.Table("w").RowCount() == writes+bulk+tail,
		"wal probe: recovered %d rows, want %d", store.Table("w").RowCount(), writes+bulk+tail)
	return mgr.Close()
}
