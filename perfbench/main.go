// Command perfbench is the repository's benchmark. It runs one named
// workload against the attack stack from a seed and prints, as its last
// line, one JSON object with the operations attempted and failed, the
// result of its output checks, and its metrics: every end-to-end metric
// of BENCHMARK.json by default, every per-layer metric with --trace 1.
//
//	perfbench --workload attack-oneshot|serve-mixed|census-corpus --seed N --seconds S --trace 0|1
//	perfbench steady --workload NAME --runs 10 --seconds S
//
// See README.md for the workloads, the metrics and the layer each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"snowbma"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many timed set-ups a run makes after an untimed
	// one; setup_s is their median. Runs use setupRepeats; the tests
	// make fewer.
	setups int
	// clients is the closed-loop client count of serve-mixed: nproc.
	clients int
	// oneshotBin is the operation binary of attack-oneshot: oneshot
	// beside this program's binary.
	oneshotBin string
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// outcome is what a workload reports: operations attempted and failed
// in the measured window, output-check failures, and the metrics of
// the run's mode (end-to-end, or per-layer when traced).
type outcome struct {
	attempted, failed int
	checkErrs         []string
	metrics           map[string]float64
}

// checkf records a failed output check; it makes the run incorrect.
func (oc *outcome) checkf(format string, args ...any) {
	oc.checkErrs = append(oc.checkErrs, fmt.Sprintf(format, args...))
}

// failf counts a failed operation and prints why. A failure counts in
// `failed`; `correct` speaks of the operations that did not fail.
func (oc *outcome) failf(format string, args ...any) {
	oc.failed++
	fmt.Fprintf(os.Stderr, "operation failed: "+format+"\n", args...)
}

var workloads = map[string]func(options) (*outcome, error){
	"attack-oneshot": runOneshot,
	"serve-mixed":    runServe,
	"census-corpus":  runCensus,
}

// metricDef names a printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, printed by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency.p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload prints all of
// them; a layer the workload never enters reads 0.
var perLayer = []metricDef{
	{"process.start_ms", "ms"},
	{"victim.build_ms", "ms"},
	{"core.new_attack_ms", "ms"},
	{"core.batch_scan_ms", "ms"},
	{"core.scan.compile_ms", "ms"},
	{"core.scan.walk_ms", "ms"},
	{"core.scan.time_ms", "ms"},
	{"core.scan.candidates_compiled", "count"},
	{"core.scan.anchor_hits", "count"},
	{"core.scan.deep_compares", "count"},
	{"core.verify_zpath_ms", "ms"},
	{"core.collect_feedback_ms", "ms"},
	{"core.make_key_independent_ms", "ms"},
	{"core.resolve_beta_ms", "ms"},
	{"core.identify_vpairs_ms", "ms"},
	{"core.extract_key_ms", "ms"},
	{"core.loads", "count"},
	{"core.batch.passes", "count"},
	{"core.batch.lane_utilisation", "ratio"},
	{"fabric.run_share", "ratio"},
	{"device.load_ms", "ms"},
	{"device.loads", "count"},
	{"device.batch_load_ms", "ms"},
	{"device.batch_loads", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.notify_ms", "ms"},
	{"service.result_ms", "ms"},
	{"store.wal_bytes_per_job", "bytes"},
	{"victim.cache_hits", "count"},
	{"victim.cache_misses", "count"},
	{"census_attack.latency.p50_ms", "ms"},
	{"census_attack.resolve_beta_ms", "ms"},
	{"corpus.add_ms", "ms"},
	{"corpus.frames_scanned", "count"},
	{"corpus.dedup_hits", "count"},
	{"bitstream.extract_luts_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q", o.workload)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	o.clients = runtime.NumCPU()
	o.setups = setupRepeats
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	exe, err := os.Executable()
	if err != nil {
		return o, err
	}
	o.oneshotBin = filepath.Join(filepath.Dir(exe), "oneshot")
	return o, nil
}

func run(o options) (*result, error) {
	oc, err := workloads[o.workload](o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   len(oc.checkErrs) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: oc.metrics[d.name], Unit: d.unit}
	}
	for i, e := range oc.checkErrs {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... %d more check failures\n", len(oc.checkErrs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	return res, nil
}

// closedLoop runs op(i) for i = 0, 1, 2, ... from `clients` closed-loop
// clients until the window has passed and the next index starts a new
// round, so every run attempts whole rounds, at least one. Its rate is
// the median,
// over consecutive groups of `round` completions, of each group's
// completions per second: a stretch in which the host stalls the run
// moves the rate by one group at most.
func closedLoop(clients int, window time.Duration, round int, op func(i int)) (attempted int, perSecond float64) {
	start := time.Now()
	deadline := start.Add(window)
	// The generator ends by itself at a round boundary past the
	// deadline; the clients drain it and exit when it closes.
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < round || i%round != 0 || time.Now().Before(deadline); i++ {
			next <- i
		}
	}()
	var mu sync.Mutex
	var done []time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				op(i)
				mu.Lock()
				done = append(done, time.Now())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return len(done), groupRate(start, done, round)
}

// groupRate is the median rate of consecutive groups of n completions
// (in completion order); with fewer than n completions, the overall
// rate.
func groupRate(start time.Time, done []time.Time, n int) float64 {
	if len(done) == 0 {
		return 0
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	if len(done) < n {
		return float64(len(done)) / done[len(done)-1].Sub(start).Seconds()
	}
	var rates []float64
	prev := start
	for k := n - 1; k < len(done); k += n {
		rates = append(rates, float64(n)/done[k].Sub(prev).Seconds())
		prev = done[k]
	}
	return median(rates)
}

// setupRepeats is how many timed set-ups a run makes.
const setupRepeats = 7

// timeSetups runs set-up once untimed, so that process-wide caches (the
// candidate catalogue, permutation tables) are warm for every timed
// set-up alike, then o.setups times timed, each after the previous one
// is released and the heap collected, and returns the last set-up and
// the median duration in seconds. teardown releases every set-up but
// the last.
func timeSetups[T any](o options, setup func() (T, error), teardown func(T)) (T, float64, error) {
	last, err := setup()
	if err != nil {
		return last, 0, err
	}
	var secs []float64
	for i := 0; i < o.setups; i++ {
		teardown(last)
		var zero T
		last = zero
		runtime.GC()
		t := time.Now()
		if last, err = setup(); err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return last, median(secs), nil
}

// samples collects per-operation figures by metric name.
type samples map[string][]float64

func (s samples) add(m map[string]float64) {
	for k, v := range m {
		s[k] = append(s[k], v)
	}
}

// medians folds every metric to its median over the operations.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// The attack's z-path verification compares against the first 16 words
// of the clean keystream and cannot confirm the LUT of a bit column
// that is 0 in all of them, so the attack fails on about one key and IV
// in 2048. Both attack workloads run one operation on faultyKey and
// faultyIV, a pair with a dead column (bit 8) on the default placement,
// in every round: it fails every time, and `failed` is the same share
// of `attempted` in every run. A seeded input that would hit the fault
// could not keep that share, so drawIV draws past such IVs.
var (
	faultyKey = snowbma.Key{0xa5b84a23, 0x652c802e, 0x7426fc9c, 0x87de2ffa}
	faultyIV  = snowbma.IV{0xb63428d8, 0x7b6edc70, 0x4f2e5801, 0xb632efd3}
)

// drawIV draws the IV an attack drives from rng, past any IV under
// which the first 16 words of key's clean keystream leave a bit column
// at 0.
func drawIV(rng *rand.Rand, key snowbma.Key) snowbma.IV {
	for {
		iv := snowbma.IV{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		var live uint32
		for _, z := range snowbma.Keystream(key, iv, checkWords) {
			live |= z
		}
		if live == ^uint32(0) {
			return iv
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
