package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json -compare needs: the workloads and
// the end-to-end metrics with their direction and bound.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords groups the tracing-off results of a -record file by workload
// and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d is not a correct run", path, r.Workload, r.Seed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns, the
// rule the driver applies; xs needs two values or more.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	m := len(xs)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareFiles applies the bounds of BENCHMARK.json to two sets of runs, a
// the base and b the candidate: one row per end-to-end metric × workload
// with both medians, the ratio, the wider of the two spreads (distance
// between the quartiles as a share of the median) and the verdict. A metric
// whose spread is wider than its bound is unresolved, not within bound. It
// reports whether any row is regressed or unresolved.
func compareFiles(w io.Writer, benchJSON, pathA, pathB string) (bad bool, err error) {
	buf, err := os.ReadFile(benchJSON)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(buf, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchJSON, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "base median", "cand median", "cand/base", "worse", "spread", "bound", "verdict")
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-14s %-18s needs 2 runs or more on each side, has %d and %d\n", wl.Name, m.Name, len(va), len(vb))
				bad = true
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spread := (a3 - a1) / a2
			if s := (b3 - b1) / b2; s > spread {
				spread = s
			}
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case spread > m.Bound:
				verdict, bad = "UNRESOLVED", true
			case worse > m.Bound:
				verdict, bad = "REGRESSED", true
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %8.3fx %+6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, a2, b2, b2/a2, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	return bad, nil
}
