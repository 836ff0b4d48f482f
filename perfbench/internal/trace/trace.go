// Package trace reads the NDJSON telemetry traces the program already
// exports (snowbma.WriteTrace, GET /jobs/{id}/trace) into per-span-name
// totals and counter values, and maps an attack's trace to the
// benchmark's per-layer metrics.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Summary is one trace folded by name: the summed duration and count of
// every span with that name, and the last value of every counter and
// gauge.
type Summary struct {
	SpanMS    map[string]float64
	SpanCount map[string]int
	Values    map[string]float64
	// FabricMS is the time spent on the fabric: the bitsliced sweep
	// chunks (which also build each chunk's patches) and the scalar
	// device loads outside them.
	FabricMS float64
}

// line is the subset of an NDJSON trace line the benchmark reads.
type line struct {
	Type   string  `json:"type"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	DurUS  float64 `json:"dur_us"`
	Value  float64 `json:"value"`
}

// Parse folds an NDJSON trace. It fails on a line that is not JSON or
// on a trace without its schema meta line.
func Parse(r io.Reader) (*Summary, error) {
	s := &Summary{SpanMS: map[string]float64{}, SpanCount: map[string]int{}, Values: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	meta := false
	spans := map[int]line{}
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		switch l.Type {
		case "meta":
			meta = true
		case "span":
			s.SpanMS[l.Name] += l.DurUS / 1e3
			s.SpanCount[l.Name]++
			spans[l.ID] = l
		case "counter", "gauge":
			s.Values[l.Name] = l.Value
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if !meta {
		return nil, fmt.Errorf("trace: no meta line")
	}
	inSweep := func(id int) bool {
		for sp, ok := spans[id]; ok; sp, ok = spans[sp.Parent] {
			if sp.Name == "sweep.chunk" {
				return true
			}
		}
		return false
	}
	for _, sp := range spans {
		if sp.Name == "sweep.chunk" || sp.Name == "device.load" && !inSweep(sp.Parent) {
			s.FabricMS += sp.DurUS / 1e3
		}
	}
	return s, nil
}

// Layers maps an attack's trace to per-layer metrics: the attack phase
// spans, the scalar device loads, and the scanner counters the attack
// publishes when it ends.
func (s *Summary) Layers() map[string]float64 {
	return map[string]float64{
		"core.batch_scan_ms":            s.SpanMS["attack.batch_scan"],
		"core.verify_zpath_ms":          s.SpanMS["attack.verify_zpath"],
		"core.collect_feedback_ms":      s.SpanMS["attack.collect_feedback"],
		"core.make_key_independent_ms":  s.SpanMS["attack.make_key_independent"],
		"core.resolve_beta_ms":          s.SpanMS["attack.resolve_beta"],
		"core.identify_vpairs_ms":       s.SpanMS["attack.identify_vpairs"],
		"core.extract_key_ms":           s.SpanMS["attack.extract_key"],
		"device.load_ms":                s.SpanMS["device.load"],
		"device.loads":                  float64(s.SpanCount["device.load"]),
		"core.scan.compile_ms":          s.Values["scan.compile_ns"] / 1e6,
		"core.scan.walk_ms":             s.Values["scan.walk_ns"] / 1e6,
		"core.scan.time_ms":             (s.Values["scan.compile_ns"] + s.Values["scan.walk_ns"]) / 1e6,
		"core.scan.candidates_compiled": s.Values["scan.candidates_compiled"],
		"core.scan.anchor_hits":         s.Values["scan.anchor_hits"],
		"core.scan.deep_compares":       s.Values["scan.deep_compares"],
	}
}
