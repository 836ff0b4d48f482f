// Package oneshot is one operation of the attack-oneshot workload: the
// body of a fresh process that synthesises a victim and runs the
// Table II catalogue attack on it, as `snowbma attack` does.
//
// The plain operation goes through the snowbma facade only. The traced
// operation drives the same attack through victim.Build, core.NewAttack
// and Attack.Run, timing the first two from here, device loads through
// a wrapper around *device.FPGA, and the attack phases from the trace
// the program already exports; it adds no tracing inside the program.
package oneshot

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"snowbma"
	"snowbma/internal/bitstream"
	"snowbma/internal/core"
	"snowbma/internal/device"
	"snowbma/internal/victim"
	"snowbma/perfbench/internal/trace"
)

// Config is one operation's input: the victim design and the IV the
// attacker drives.
type Config struct {
	Key     [4]uint32
	IV      [4]uint32
	Seed    int64 // placement seed
	Pad     int   // empty fabric frames
	Encrypt bool  // seal the image; the protection keys derive from Seed
}

// Args renders cfg as the command line of the operation process.
func (cfg Config) Args(traced bool) []string {
	return []string{
		"-key", words(cfg.Key), "-iv", words(cfg.IV),
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-pad", strconv.Itoa(cfg.Pad),
		"-encrypt=" + strconv.FormatBool(cfg.Encrypt), "-trace=" + strconv.FormatBool(traced),
	}
}

// ParseArgs is the inverse of Args.
func ParseArgs(args []string) (cfg Config, traced bool, err error) {
	fs := flag.NewFlagSet("oneshot", flag.ContinueOnError)
	key := fs.String("key", "", "victim key, four hex words separated by commas")
	iv := fs.String("iv", "", "driven IV, four hex words separated by commas")
	fs.Int64Var(&cfg.Seed, "seed", 0, "placement seed")
	fs.IntVar(&cfg.Pad, "pad", 0, "empty fabric frames")
	fs.BoolVar(&cfg.Encrypt, "encrypt", false, "seal the bitstream")
	fs.BoolVar(&traced, "trace", false, "time every layer")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	if cfg.Key, err = parseWords(*key); err != nil {
		return cfg, false, fmt.Errorf("-key: %w", err)
	}
	if cfg.IV, err = parseWords(*iv); err != nil {
		return cfg, false, fmt.Errorf("-iv: %w", err)
	}
	return cfg, traced, nil
}

func words(w [4]uint32) string {
	return fmt.Sprintf("%08x,%08x,%08x,%08x", w[0], w[1], w[2], w[3])
}

func parseWords(s string) (w [4]uint32, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return w, fmt.Errorf("want 4 words, got %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 32)
		if err != nil {
			return w, err
		}
		w[i] = uint32(v)
	}
	return w, nil
}

// VictimConfig is cfg as the facade's victim description.
func (cfg Config) VictimConfig() snowbma.VictimConfig {
	vc := snowbma.VictimConfig{Key: cfg.Key, Seed: cfg.Seed, PadFrames: cfg.Pad}
	if cfg.Encrypt {
		k := victim.DeriveKeys(cfg.Seed)
		vc.Encrypt = &snowbma.EncryptionKeys{KE: k.KE, KA: k.KA}
	}
	return vc
}

// Result is what an operation process prints as its one JSON line.
type Result struct {
	// StartUnixNS is the wall clock when main began, after the Go
	// runtime and package initialisation.
	StartUnixNS int64     `json:"start_unix_ns"`
	Key         [4]uint32 `json:"key"`
	IV          [4]uint32 `json:"iv"`
	Verified    bool      `json:"verified"`
	Loads       int       `json:"loads"`
	Passes      int       `json:"passes"`
	// PeakRSSMB is the process's peak resident set size.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Layers holds the per-layer figures of a traced operation.
	Layers map[string]float64 `json:"layers,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// Run performs one operation.
func Run(cfg Config, traced bool) *Result {
	var rep *core.Report
	var layers map[string]float64
	var err error
	if traced {
		rep, layers, err = runTraced(cfg)
	} else {
		rep, err = runPlain(cfg)
	}
	res := &Result{Layers: layers}
	if rep != nil {
		res.Key, res.IV, res.Verified = rep.Key, rep.IV, rep.Verified
		res.Loads, res.Passes = rep.Loads, rep.Batch.Passes
	}
	if err != nil {
		res.Error = err.Error()
	}
	return res
}

func runPlain(cfg Config) (*core.Report, error) {
	v, err := snowbma.BuildVictim(cfg.VictimConfig())
	if err != nil {
		return nil, err
	}
	return snowbma.Attack(context.Background(), v, cfg.IV)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runTraced times victim.Build and core.NewAttack, runs the attack with
// telemetry on and takes the phase and scanner figures from its trace;
// the device figures come from the timing wrapper around the FPGA.
func runTraced(cfg Config) (*core.Report, map[string]float64, error) {
	layers := map[string]float64{}
	vc := cfg.VictimConfig()
	vcfg := victim.Config{Key: vc.Key, Seed: vc.Seed, PadFrames: vc.PadFrames}
	if vc.Encrypt != nil {
		vcfg.Encrypt = &victim.Keys{KE: vc.Encrypt.KE, KA: vc.Encrypt.KA}
	}
	t := time.Now()
	v, err := victim.Build(vcfg)
	layers["victim.build_ms"] = ms(time.Since(t))
	if err != nil {
		return nil, nil, err
	}
	dev := &timedFPGA{FPGA: v.Device}
	t = time.Now()
	atk, err := core.NewAttack(dev, cfg.IV, nil)
	layers["core.new_attack_ms"] = ms(time.Since(t))
	if err != nil {
		return nil, nil, err
	}
	tel := snowbma.NewTelemetry()
	atk.SetTelemetry(tel)
	rep, err := atk.Run()
	var buf bytes.Buffer
	if werr := snowbma.WriteTrace(&buf, tel); werr != nil {
		return rep, nil, werr
	}
	sum, perr := trace.Parse(&buf)
	if perr != nil {
		return rep, nil, perr
	}
	for k, v := range sum.Layers() {
		layers[k] = v
	}
	if run := sum.SpanMS["attack.run"]; run > 0 {
		layers["fabric.run_share"] = sum.FabricMS / run
	}
	for k, v := range BatchLayers(rep.Loads, rep.Batch) {
		layers[k] = v
	}
	layers["device.load_ms"] = ms(dev.loadTime)
	layers["device.loads"] = float64(dev.loads)
	layers["device.batch_load_ms"] = ms(dev.batchTime)
	layers["device.batch_loads"] = float64(dev.batchLoads)
	return rep, layers, err
}

// BatchLayers are the sweep figures: modelled hardware loads, fabric
// passes, and the share of lane slots the passes filled.
func BatchLayers(loads int, b core.BatchStats) map[string]float64 {
	l := map[string]float64{
		"core.loads":        float64(loads),
		"core.batch.passes": float64(b.Passes),
	}
	if b.Passes > 0 && b.Width > 0 {
		l["core.batch.lane_utilisation"] = float64(b.Lanes) / float64(b.Passes*b.Width)
	}
	return l
}

// timedFPGA times the device calls of the attack. It implements the
// attack's Victim and, through LoadPatched and BatchOf, its batch
// loader, so the attack keeps the bitsliced sweep path.
type timedFPGA struct {
	*device.FPGA
	loads, batchLoads   int
	loadTime, batchTime time.Duration
}

var _ core.Victim = (*timedFPGA)(nil)

func (d *timedFPGA) Load(img []byte) error {
	t := time.Now()
	err := d.FPGA.Load(img)
	d.loadTime += time.Since(t)
	d.loads++
	return err
}

func (d *timedFPGA) LoadPatched(img []byte, patches []bitstream.PatchSet) (*device.Batch, error) {
	t := time.Now()
	b, err := d.FPGA.LoadPatched(img, patches)
	d.batchTime += time.Since(t)
	d.batchLoads++
	return b, err
}

func (d *timedFPGA) BatchOf(patches []bitstream.PatchSet) (*device.Batch, error) {
	t := time.Now()
	b, err := d.FPGA.BatchOf(patches)
	d.batchTime += time.Since(t)
	d.batchLoads++
	return b, err
}
