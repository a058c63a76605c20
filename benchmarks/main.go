// permperf is the repository's benchmark: four closed-loop workloads that
// between them cover every path a statement can take (embedded, wire,
// database/sql), measured end to end with tracing off, and layer by layer in
// a separate traced run. One invocation runs one workload in one OS process:
//
//	permperf -workload prov_analytic -seed 1 -seconds 20 -trace 0
//
// prints every metric by name and unit, checks the answers, and ends with
// the one-line JSON result. README.md has the tables.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hardDeadline bounds the whole process: it exits non-zero rather than hang.
const hardDeadline = 170 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file: the result with the conditions it
// was taken under. -compare reads sets of them.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Result     result `json:"result"`
}

type config struct {
	workload  string
	seed      int64
	window    time.Duration // length of the measured window
	trace     int
	tmp       string // where environments make their directories
	out       string // where trace.json goes
	forum     int    // messages in the forum database
	minSetups int
}

func main() {
	cfg := config{forum: forumSize, minSetups: 3}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: prov_analytic | prov_spill | cold_frontend | wire_oltp")
	flag.Int64Var(&cfg.seed, "seed", goldenSeed, "seed the inputs are made from")
	seconds := flag.Int("seconds", 25, "length of the measured window")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "directory for spill files and WAL data (created, emptied on exit)")
	flag.StringVar(&cfg.out, "out", "benchmarks/out", "directory trace.json is written to")
	benchJSON := flag.String("bench-json", "BENCHMARK.json", "the metric definitions and bounds")
	recordTo := flag.String("record", "", "append the result and its conditions to this file, one JSON object per line")
	compare := flag.Bool("compare", false, "compare two -record files: permperf -compare a.jsonl b.jsonl")
	writeGolden := flag.String("write-golden", "", "take the golden results on the golden seed and write them to this file")
	flag.Parse()
	cfg.window = time.Duration(*seconds) * time.Second

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: permperf -compare a.jsonl b.jsonl")
		}
		regressed, err := compareFiles(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	case flag.NArg() != 0:
		fatal(2, "unexpected arguments %v", flag.Args())
	}

	// Pinned: at most two processors, whatever the host has.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	time.AfterFunc(hardDeadline, func() {
		os.RemoveAll(cfg.tmp)
		fatal(3, "permperf: still running after %v, giving up", hardDeadline)
	})
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer cancel()
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fatal(2, "%v", err)
	}

	if *writeGolden != "" {
		if err := takeGolden(cfg.tmp, *writeGolden); err != nil {
			fatal(1, "%v", err)
		}
		return
	}
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fatal(2, "%v", err)
	}
	res, err := run(ctx, w, cfg)
	if err == nil {
		err = processClean(cfg.tmp)
	}
	if err != nil {
		os.RemoveAll(cfg.tmp)
		fatal(1, "permperf: %v", err)
	}
	if ctx.Err() != nil {
		fatal(130, "permperf: interrupted")
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, cfg, res); err != nil {
			fatal(1, "permperf: %v", err)
		}
	}
	printMetrics(res.Metrics)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func appendRecord(path string, cfg config, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.window.Seconds()), Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: os.Getenv("PERMPERF_COMMIT"), Result: *res,
	})
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// setupTimed sets the workload up and warms it, and returns how long that
// took: setup_s is everything the process does before it can serve the
// first measured cycle.
func setupTimed(w *workload, cfg config) (*env, float64, error) {
	t0 := time.Now()
	e, err := setup(w, cfg)
	if err != nil {
		return nil, 0, err
	}
	if warm := e.warmUp(); warm.err != nil {
		return nil, 0, errors.Join(fmt.Errorf("warm-up: %w", warm.err), e.close())
	}
	return e, time.Since(t0).Seconds(), nil
}

// Set-up is repeated and its median reported, because one set-up of the
// small workloads takes milliseconds: at least config.minSetups times (3),
// and until setupShare of the window (2 s of 25 s) is spent or maxSetups is
// reached.
const (
	maxSetups  = 100
	setupShare = 0.08
)

// run measures one workload. With trace 0: repeated set-up, the checks, one
// window, the end-state checks. With trace 1 the traced run replaces the
// window. It always tears the last environment down before returning.
func run(ctx context.Context, w *workload, cfg config) (res *result, err error) {
	var e *env
	var setups []float64
	begin := time.Now()
	budget := time.Duration(setupShare * float64(cfg.window))
	for len(setups) < cfg.minSetups || (time.Since(begin) < budget && len(setups) < maxSetups) {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var s float64
		if e, s, err = setupTimed(w, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer func() {
		if e != nil {
			err = errors.Join(err, e.close())
		}
	}()

	c := &checker{}
	e.verifyGolden(c, e.verify(c))
	res = &result{}
	if cfg.trace == 0 {
		win := runWindow(ctx, w, e.clients, cfg.window)
		res.Metrics = win.endToEnd(w, medianFloat(setups))
		res.Attempted, res.Failed = win.stmts, win.failed
		if win.err != nil {
			c.errs = append(c.errs, "in the window: "+win.err.Error())
		}
		fmt.Printf("%s: %d cycles, %d statements in %.2fs, %d set-ups\n",
			w.name, len(win.cycles), win.stmts, win.elapsed.Seconds(), len(setups))
	} else {
		tr, terr := e.traced(ctx, c, cfg)
		if terr != nil {
			return nil, terr
		}
		res.Metrics = tr.metrics
		res.Attempted, res.Failed = tr.stmts, tr.failed
	}
	if w.dataset == "oltp" {
		e.verifyEndState(c)
		if err := e.stop(); err != nil {
			return nil, err
		}
		e.verifyRecovered(c)
	}
	res.Attempted += int64(c.attempted)
	res.Failed += int64(c.failed)
	res.Correct = res.Failed == 0
	for _, msg := range c.errs {
		fmt.Fprintln(os.Stderr, "FAIL:", msg)
	}
	return res, nil
}

// takeGolden runs the checks of every dataset on the golden seed and writes
// what the statements returned.
func takeGolden(tmp, path string) error {
	g := golden{}
	for _, w := range workloads() {
		if g[w.dataset] != nil {
			continue
		}
		e, _, err := setupTimed(w, config{seed: goldenSeed, tmp: tmp, forum: forumSize})
		if err != nil {
			return err
		}
		c := &checker{}
		g[w.dataset] = e.verify(c)
		if err := e.close(); err != nil {
			return err
		}
		if c.failed > 0 {
			return fmt.Errorf("%s: %v", w.name, c.errs)
		}
	}
	buf, _ := json.MarshalIndent(g, "", "  ")
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// processClean asserts what the issue's process-hygiene task asks for before
// exit: no child process, and nothing left in the temp directory.
func processClean(tmp string) error {
	kids, _ := filepath.Glob("/proc/self/task/*/children")
	for _, k := range kids {
		if b, err := os.ReadFile(k); err == nil && strings.TrimSpace(string(b)) != "" {
			return fmt.Errorf("child processes left running: %s", strings.TrimSpace(string(b)))
		}
	}
	return leftBehind(tmp, "")
}
