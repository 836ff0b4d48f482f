package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare
// against the metrics this program prints.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON pins the printed metric names and units
// to BENCHMARK.json, in order, and its workloads to this program's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("end_to_end[%d] = %s (%s), program prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit {
			t.Errorf("per_layer[%d] = %s (%s), program prints %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s of BENCHMARK.json is unknown to the program", w.Name)
		}
	}
}

// faultEvery is, per workload, how many operations of a run hold one
// on the known failing input.
var faultEvery = map[string]int{
	"attack-oneshot": oneshotRound,
	"serve-mixed":    serveRound,
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that its output checks pass, exactly the operations on the
// known failing input fail, and every metric of BENCHMARK.json is
// printed.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "oneshot")
	build := exec.Command("go", "build", "-o", bin, "./cmd/oneshot")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the operation binary: %v\n%s", err, out)
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 0.2, trace: traced, setups: 1, clients: runtime.NumCPU(), oneshotBin: bin}
			start := time.Now()
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			wantFailed := 0
			if n := faultEvery[w.Name]; n > 0 {
				wantFailed = res.Attempted / n
			}
			if !res.Correct || res.Failed != wantFailed || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, want %d failed",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, wantFailed)
			}
			names := b.EndToEnd
			if traced {
				names = b.PerLayer
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(res.Metrics), len(names))
			}
			for _, m := range names {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", w.Name, traced, m.Name, m.Unit, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, m.Name, v.Value)
				}
			}
			t.Logf("%s traced=%v: %d operations in %v", w.Name, traced, res.Attempted, time.Since(start).Round(time.Millisecond))
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3}, 1, 3, 4},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestGroupRate checks the median group rate against hand-computed
// completions.
func TestGroupRate(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(s ...float64) []time.Time {
		var ts []time.Time
		for _, x := range s {
			ts = append(ts, start.Add(time.Duration(x*float64(time.Second))))
		}
		return ts
	}
	// Groups of two end at 1 s, 2 s and 6 s: rates 2, 2 and 0.5 per
	// second; the trailing completion is ignored.
	if got := groupRate(start, at(0.5, 1, 1.5, 2, 3, 6, 7), 2); got != 2 {
		t.Errorf("groupRate = %v, want 2", got)
	}
	if got := groupRate(start, at(1, 4), 4); got != 0.5 {
		t.Errorf("groupRate with one partial group = %v, want 0.5", got)
	}
}
