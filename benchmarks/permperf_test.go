package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end and traced on a small forum with
// short windows, and checks the contract the driver and BENCHMARK.json rely
// on: the metric names, finite values, no failure, nothing left behind.
func TestSmoke(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &def); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[int]map[string]bool{0: {}, 1: {}}
	for _, m := range def.EndToEnd {
		want[0][m.Name] = true
	}
	for _, m := range def.PerLayer {
		want[1][m.Name] = true
	}
	if !want[0]["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s")
	}
	if len(def.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json names %d workloads, permperf has %d", len(def.Workloads), len(workloads()))
	}

	tmp := t.TempDir()
	goroutines := runtime.NumGoroutine()
	start := time.Now()
	for _, wl := range def.Workloads {
		if !nameRE.MatchString(wl.Name) {
			t.Errorf("workload name %q", wl.Name)
		}
		w, err := workloadByName(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		for trace := 0; trace <= 1; trace++ {
			// Seed 2: the forum golden was taken at full size on seed 1.
			cfg := config{workload: w.name, seed: 2, window: 200 * time.Millisecond, trace: trace,
				tmp: tmp, out: tmp, forum: 200, minSetups: 1}
			res, err := run(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) || !want[trace][name] {
					t.Errorf("%s trace %d: metric %q is not in BENCHMARK.json", w.name, trace, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: %s = %v", w.name, trace, name, m.Value)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
				}
			}
			for name := range want[trace] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace %d: metric %s of BENCHMARK.json is missing", w.name, trace, name)
				}
			}
		}
		if err := os.Remove(tmp + "/trace.json"); err != nil {
			t.Errorf("%s: the traced run wrote no trace.json: %v", w.name, err)
		}
		if err := leftBehind(tmp, ""); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	t.Logf("4 workloads, end to end and traced, in %v", time.Since(start))

	// Server, vacuum and client goroutines end shortly after their stop
	// calls return; give them a moment before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left behind (%d before):\n%s", n-goroutines, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
