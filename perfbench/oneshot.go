package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	"snowbma"
	"snowbma/perfbench/internal/oneshot"
)

// attack-oneshot: every operation is a fresh process (cmd/oneshot) that
// synthesises one victim and attacks it, one at a time, so every
// process-wide cache starts cold as it does for a CLI user.

const (
	// oneshotRound is the run's unit of whole rounds, in inputs: every
	// fourth input is encrypted, and input oneshotFaultSlot of every
	// round is the known failing one. A traced run pairs each input's
	// traced operation with an untraced one, so its rounds are twice as
	// many operations.
	oneshotRound     = 8
	oneshotFaultSlot = 5
)

// oneshotConfig derives input k of a run from the seed: key, IV,
// placement seed and padding; every fourth input encrypted. Every
// operation of an untraced run gets its own input. Input
// oneshotFaultSlot of every round is faultyKey and faultyIV on the
// default placement, whatever the seed.
func oneshotConfig(seed int64, k int) oneshot.Config {
	if k%oneshotRound == oneshotFaultSlot {
		return oneshot.Config{Key: faultyKey, IV: faultyIV}
	}
	rng := rand.New(rand.NewSource(int64(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(k+1)*0xBF58476D1CE4E5B9)))
	var c oneshot.Config
	for w := 0; w < 4; w++ {
		c.Key[w] = rng.Uint32()
	}
	c.IV = drawIV(rng, c.Key)
	c.Seed = int64(rng.Uint32()) + 1
	c.Pad = rng.Intn(4)
	c.Encrypt = k%4 == 3
	return c
}

// oneshotInput maps operation i to its input. A traced run runs each
// input twice in a row, traced then untraced, so the path check and
// the tracing overhead compare the same inputs.
func oneshotInput(i int, traced bool) (input int, tracedOp bool) {
	if traced {
		return i / 2, i%2 == 0
	}
	return i, false
}

type oneshotOp struct {
	input   int
	traced  bool
	latency time.Duration
	startMS float64 // process start to main
	res     *oneshot.Result
	err     error
}

func runOneshot(o options) (*outcome, error) {
	// Set-up synthesises the first round's victims, the references of
	// the output checks, through the same facade the operations use.
	synth := func(from, to int) ([]*snowbma.Victim, error) {
		var vs []*snowbma.Victim
		for k := from; k < to; k++ {
			v, err := snowbma.BuildVictim(oneshotConfig(o.seed, k).VictimConfig())
			if err != nil {
				return nil, err
			}
			vs = append(vs, v)
		}
		return vs, nil
	}
	victims, setupS, err := timeSetups(o, func() ([]*snowbma.Victim, error) { return synth(0, oneshotRound) }, func([]*snowbma.Victim) {})
	if err != nil {
		return nil, err
	}

	var ops []oneshotOp
	round := oneshotRound
	if o.trace {
		round *= 2
	}
	attempted, perSecond := closedLoop(1, o.window(), round, func(i int) {
		in, traced := oneshotInput(i, o.trace)
		ops = append(ops, runOneshotOp(o.oneshotBin, oneshotConfig(o.seed, in), in, traced))
	})

	// The remaining references are synthesised after the window.
	more, err := synth(len(victims), ops[len(ops)-1].input+1)
	if err != nil {
		return nil, err
	}
	victims = append(victims, more...)

	oc := &outcome{attempted: attempted}
	checkOneshot(oc, o.seed, ops, victims)
	if o.trace {
		oc.metrics = oneshotLayers(ops)
		return oc, nil
	}
	var lat, rss []float64
	for _, op := range ops {
		if op.err == nil {
			lat = append(lat, ms(op.latency))
			rss = append(rss, op.res.PeakRSSMB)
		}
	}
	oc.metrics = map[string]float64{
		"setup_s":          setupS,
		"throughput_per_s": perSecond,
		"latency.p50_ms":   median(lat),
		"peak_rss_mb":      median(rss),
	}
	return oc, nil
}

// childEnv is the environment of the operation processes: the
// benchmark's own without its GODEBUG setting (run.sh), so that every
// operation runs as `snowbma attack` would.
var childEnv = slices.DeleteFunc(os.Environ(), func(kv string) bool {
	return strings.HasPrefix(kv, "GODEBUG=")
})

// runOneshotOp starts one operation process and waits for it.
func runOneshotOp(bin string, cfg oneshot.Config, input int, traced bool) oneshotOp {
	op := oneshotOp{input: input, traced: traced}
	var stdout, stderr bytes.Buffer
	// The timeout turns a hung operation into a failed one.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, cfg.Args(traced)...)
	cmd.Env = childEnv
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	runErr := cmd.Run()
	op.latency = time.Since(t)
	var res oneshot.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		op.err = fmt.Errorf("operation output: %v (exit: %v, stderr: %q)", err, runErr, stderr.String())
		return op
	}
	op.res = &res
	op.startMS = float64(res.StartUnixNS-t.UnixNano()) / 1e6
	switch {
	case res.Error != "":
		op.err = fmt.Errorf("attack: %s", res.Error)
	case runErr != nil:
		op.err = runErr
	}
	return op
}

// checkOneshot checks every operation against the input the benchmark
// configured and against the unmodified victim, synthesised by the
// benchmark itself: the recovered key and IV, and the software model's
// keystream under the recovered key against the victim's device
// keystream. In a traced run, each traced operation must take the
// program path (modelled loads, fabric passes) of its untraced twin.
func checkOneshot(oc *outcome, seed int64, ops []oneshotOp, victims []*snowbma.Victim) {
	for n, op := range ops {
		if op.err != nil {
			oc.failf("oneshot input %d: %v", op.input, op.err)
			continue
		}
		cfg, res := oneshotConfig(seed, op.input), op.res
		if !res.Verified || res.Key != cfg.Key || res.IV != cfg.IV {
			oc.checkf("oneshot input %d: recovered key %08x iv %08x verified=%v, configured key %08x iv %08x",
				op.input, res.Key, res.IV, res.Verified, cfg.Key, cfg.IV)
		}
		dev := victims[op.input].Keystream(cfg.IV, checkWords)
		if err := checkKeystream(res.Key, res.IV, dev); err != nil {
			oc.checkf("oneshot input %d: %v", op.input, err)
		}
		if op.traced && n+1 < len(ops) && ops[n+1].res != nil {
			twin := ops[n+1].res
			if res.Loads != twin.Loads || res.Passes != twin.Passes {
				oc.checkf("oneshot input %d: traced loads/passes %d/%d, untraced %d/%d",
					op.input, res.Loads, res.Passes, twin.Loads, twin.Passes)
			}
		}
	}
}

// checkWords is the keystream length the output checks compare.
const checkWords = 16

// checkKeystream compares the software model keyed with a recovered key
// against the unmodified victim's device keystream.
func checkKeystream(key snowbma.Key, iv snowbma.IV, dev []uint32) error {
	model := snowbma.Keystream(key, iv, checkWords)
	if len(dev) != len(model) {
		return fmt.Errorf("device keystream has %d words, want %d", len(dev), len(model))
	}
	for t := range model {
		if model[t] != dev[t] {
			return fmt.Errorf("model keystream under the recovered key differs from the device at word %d", t+1)
		}
	}
	return nil
}

func oneshotLayers(ops []oneshotOp) map[string]float64 {
	traced := samples{}
	var tracedLat, plainLat []float64
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		traced.add(map[string]float64{"process.start_ms": op.startMS})
		if op.traced {
			traced.add(op.res.Layers)
			tracedLat = append(tracedLat, ms(op.latency))
		} else {
			plainLat = append(plainLat, ms(op.latency))
		}
	}
	m := traced.medians()
	m["trace.overhead_ms"] = median(tracedLat) - median(plainLat)
	return m
}
