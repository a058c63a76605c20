package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// warmCycles is the warm-up each client runs before any window, so that
// plan caches are filled and lazy set-up is done (issue: 3 cycles).
const warmCycles = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples is what one client records: a duration per cycle and per
// statement, and the counts the rates are made of.
type samples struct {
	cycles []time.Duration
	stmt   [][]time.Duration // indexed by stmt.idx
	stmts  int64
	rows   int64
	failed int64
	err    error // the first failure, for the report
}

func newSamples(w *workload) *samples {
	return &samples{stmt: make([][]time.Duration, len(w.stmts))}
}

func (s *samples) merge(o *samples) {
	s.cycles = append(s.cycles, o.cycles...)
	for i := range s.stmt {
		s.stmt[i] = append(s.stmt[i], o.stmt[i]...)
	}
	s.stmts += o.stmts
	s.rows += o.rows
	s.failed += o.failed
	if s.err == nil {
		s.err = o.err
	}
}

// cycle runs the client's next cycle. A statement fails when it returns an
// error or a row count other than the one a correct answer has.
func (c *client) cycle(sm *samples) {
	ops := c.next()
	start := time.Now()
	t := start
	for i := range ops {
		o := &ops[i]
		n, err := c.run.run(o, nil)
		now := time.Now()
		sm.stmt[o.st.idx] = append(sm.stmt[o.st.idx], now.Sub(t))
		t = now
		sm.stmts++
		if err == nil && o.want >= 0 && n != o.want {
			err = fmt.Errorf("%d rows, want %d", n, o.want)
		}
		if err != nil {
			sm.failed++
			if sm.err == nil {
				sm.err = fmt.Errorf("%s: %w", o.st.key(), err)
			}
			continue
		}
		if !o.st.write {
			sm.rows += int64(n)
		}
	}
	sm.cycles = append(sm.cycles, t.Sub(start))
}

// warmUp runs the warm-up cycles on every client, one client after the
// other, and returns what they recorded.
func (e *env) warmUp() *samples {
	sm := newSamples(e.w)
	for _, c := range e.clients {
		for i := 0; i < warmCycles; i++ {
			c.cycle(sm)
		}
	}
	return sm
}

// window is one measured run of the closed loop: the samples of all
// clients, the wall time, and the process's allocation and CPU deltas.
type window struct {
	*samples
	elapsed time.Duration
	mallocs uint64
	bytes   uint64
	cpu     time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow drives each of the clients in its own goroutine for d, or until
// ctx ends. A client finishes the cycle it is in.
func runWindow(ctx context.Context, wl *workload, clients []*client, d time.Duration) *window {
	per := make([]*samples, len(clients))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		per[i] = newSamples(wl)
		wg.Add(1)
		go func(c *client, sm *samples) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				c.cycle(sm)
			}
		}(c, per[i])
	}
	wg.Wait()
	w := &window{samples: newSamples(wl), elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	w.mallocs, w.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for _, sm := range per {
		w.merge(sm)
	}
	return w
}

// quantile is the nearest-rank q-quantile of ds; ds is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func medianFloat(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// provOverhead is Σ p50 of the provenance statements ÷ Σ p50 of their plain
// twins, the paper's headline number.
func (s *samples) provOverhead(w *workload) float64 {
	var plain, prov time.Duration
	for _, st := range w.stmts {
		switch st.variant {
		case "plain":
			plain += quantile(s.stmt[st.idx], 0.5)
		case "prov":
			prov += quantile(s.stmt[st.idx], 0.5)
		}
	}
	if plain == 0 {
		return 0
	}
	return float64(prov) / float64(plain)
}

// endToEnd computes the nine end-to-end metrics of a window. Failures are
// not a metric: they are the failed/attempted counts of the result line.
func (w *window) endToEnd(wl *workload, setupS float64) map[string]metric {
	sec := w.elapsed.Seconds()
	n := float64(w.stmts)
	return map[string]metric{
		"setup_s":           {setupS, "s"},
		"stmt_s":            {n / sec, "1/s"},
		"cycle_p50_ms":      {ms(quantile(w.cycles, 0.5)), "ms"},
		"cycle_p90_ms":      {ms(quantile(w.cycles, 0.9)), "ms"},
		"rows_s":            {float64(w.rows) / sec, "1/s"},
		"prov_overhead_x":   {w.provOverhead(wl), "x"},
		"alloc_kb_per_stmt": {float64(w.bytes) / 1024 / n, "KiB"},
		"allocs_per_stmt":   {float64(w.mallocs) / n, "count"},
		"cpu_ms_per_stmt":   {ms(w.cpu) / n, "ms"},
	}
}
