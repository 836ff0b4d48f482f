package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs one workload repeatedly, run i with seed i, and
// prints every metric's median, quartiles and quartile spread (the
// distance between the first and third quartile as a share of the
// median). The quartiles are those of Python's
// statistics.quantiles(values, n=4).
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 10, "number of runs")
	seconds := fs.String("seconds", "30", "length of each run's measured window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < *runs; i++ {
		seed := strconv.Itoa(i + 1)
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", *workload, "--seed", seed, "--seconds", *seconds, "--trace", "0")
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %s: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %s: %w", seed, err)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		var line []string
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			line = append(line, fmt.Sprintf("%s=%.4g", k, m.Value))
		}
		sort.Strings(line)
		fmt.Printf("seed %s: correct=%v attempted=%d failed=%d %s\n",
			seed, res.Correct, res.Attempted, res.Failed, strings.Join(line, " "))
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("\n%s, %d runs, seeds %d..%d, %ss each, failed/attempted %s\n",
		*workload, *runs, 1, *runs, *seconds, strings.Join(shares, " "))
	fmt.Printf("%-32s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %7.1f%% %s\n", k, q1, med, q3, 100*spread, units[k])
	}
	return nil
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method; it needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
