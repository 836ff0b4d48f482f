package main

import (
	"math/rand"
	"slices"
	"time"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
	"snowbma/internal/core"
	"snowbma/internal/corpus"
	"snowbma/internal/victim"
	"snowbma/perfbench/internal/procstat"
)

// census-corpus: a seeded corpus, synthesised in set-up, streamed
// through a fresh census engine with dedup on, pass after pass. One
// operation is one design's Census.Add; a pass is a round.

// corpusDesigns is the corpus size, a multiple of four so every pass
// holds the same share of protected designs.
const corpusDesigns = 24

// censusPass is one pass over the corpus through a fresh engine.
type censusPass struct {
	traced    bool
	rep       *corpus.Report
	addMS     []float64
	extractMS []float64
}

func runCensus(o options) (*outcome, error) {
	var buildMS []float64
	designs, setupS, err := timeSetups(o, func() ([]corpus.Design, error) {
		buildMS = buildMS[:0]
		ds := make([]corpus.Design, corpusDesigns)
		for i := range ds {
			cfg := corpus.SeededConfig(o.seed, i)
			t := time.Now()
			v, err := victim.Build(cfg)
			if err != nil {
				return nil, err
			}
			buildMS = append(buildMS, ms(time.Since(t)))
			ds[i] = corpus.Design{ID: cfg.Fingerprint(), Image: v.Image, Protected: cfg.Protected}
		}
		return ds, nil
	}, func([]corpus.Design) {})
	if err != nil {
		return nil, err
	}

	oc := &outcome{}
	var passes []*censusPass
	var cen *corpus.Census
	var opErr error
	attempted, perSecond := closedLoop(1, o.window(), corpusDesigns, func(i int) {
		d := designs[i%corpusDesigns]
		if i%corpusDesigns == 0 {
			// A traced run traces every other pass.
			passes = append(passes, &censusPass{traced: o.trace && len(passes)%2 == 0})
			if cen, err = corpus.New(corpus.Options{}); err != nil && opErr == nil {
				opErr = err
			}
		}
		p := passes[len(passes)-1]
		if cen == nil {
			oc.failf("census add %.12s: no engine", d.ID)
			return
		}
		t := time.Now()
		if _, err := cen.Add(d); err != nil {
			oc.failf("census add %.12s: %v", d.ID, err)
			return
		}
		p.addMS = append(p.addMS, ms(time.Since(t)))
		if p.traced {
			t := time.Now()
			if _, err := bitstream.ExtractLUTs(d.Image); err != nil {
				oc.checkf("extracting LUTs of %s: %v", d.ID, err)
			}
			p.extractMS = append(p.extractMS, ms(time.Since(t)))
		}
		if i%corpusDesigns == corpusDesigns-1 {
			p.rep = cen.Report()
		}
	})
	if opErr != nil {
		return nil, opErr
	}
	oc.attempted = attempted
	if err := checkCensus(oc, o.seed, designs, passes); err != nil {
		return nil, err
	}
	if o.trace {
		oc.metrics = censusLayers(passes)
		oc.metrics["victim.build_ms"] = median(buildMS)
		return oc, nil
	}
	var lat []float64
	for _, p := range passes {
		lat = append(lat, p.addMS...)
	}
	rss, err := procstat.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	oc.metrics = map[string]float64{
		"setup_s":          setupS,
		"throughput_per_s": perSecond,
		"latency.p50_ms":   median(lat),
		"peak_rss_mb":      rss,
	}
	return oc, nil
}

// checkCensus checks every pass's report against the corpus (§VII-A):
// each unprotected design holds exactly 32 target-class LUTs and each
// protected one none, and the exposed count equals the unprotected
// count. On one design picked by the seed, the census match positions
// must equal Algorithm 1 as written (core.FindLUTReference).
func checkCensus(oc *outcome, seed int64, designs []corpus.Design, passes []*censusPass) error {
	unprotected := 0
	for _, d := range designs {
		if !d.Protected {
			unprotected++
		}
	}
	var last *corpus.Report
	for n, p := range passes {
		if p.rep == nil {
			oc.checkf("census pass %d ended without a report", n)
			continue
		}
		last = p.rep
		if p.rep.Designs != len(designs) || p.rep.Exposed != unprotected {
			oc.checkf("census pass %d: %d designs, %d exposed; want %d, %d",
				n, p.rep.Designs, p.rep.Exposed, len(designs), unprotected)
		}
		for _, r := range p.rep.Results {
			want := 32
			if r.Protected {
				want = 0
			}
			if r.TargetLUTs != want {
				oc.checkf("census pass %d: design %.12s (protected=%v) has %d target LUTs, want %d",
					n, r.ID, r.Protected, r.TargetLUTs, want)
			}
		}
	}
	if last == nil {
		return nil
	}
	f, err := boolfn.ParseAuto(corpus.DefaultTargetExpr)
	if err != nil {
		return err
	}
	d := designs[rand.New(rand.NewSource(seed)).Intn(len(designs))]
	want := core.FindLUTReference(d.Image, f, core.SevenSeries())
	for _, r := range last.Results {
		if r.ID != d.ID {
			continue
		}
		got := slices.Clone(r.Matches)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			oc.checkf("census matches of %.12s differ from FindLUTReference: %d vs %d positions", d.ID, len(got), len(want))
		}
		return nil
	}
	oc.checkf("design %.12s missing from the census report", d.ID)
	return nil
}

// censusLayers folds the passes: per-design medians of the traced
// passes' Add and ExtractLUTs times, per-pass medians of the report's
// counters, and per-design scanner figures.
func censusLayers(passes []*censusPass) map[string]float64 {
	var add, extract, plainAdd []float64
	perPass := samples{}
	for _, p := range passes {
		if !p.traced {
			plainAdd = append(plainAdd, p.addMS...)
			continue
		}
		add = append(add, p.addMS...)
		extract = append(extract, p.extractMS...)
		if p.rep == nil || p.rep.Designs == 0 {
			continue
		}
		n, s := float64(p.rep.Designs), p.rep.Scan
		perPass.add(map[string]float64{
			"corpus.frames_scanned":         float64(p.rep.FramesScanned),
			"corpus.dedup_hits":             float64(p.rep.DedupHits),
			"core.scan.compile_ms":          ms(s.CompileTime) / n,
			"core.scan.walk_ms":             ms(s.ScanTime) / n,
			"core.scan.time_ms":             ms(s.CompileTime+s.ScanTime) / n,
			"core.scan.candidates_compiled": float64(s.CandidatesCompiled) / n,
			"core.scan.anchor_hits":         float64(s.AnchorHits) / n,
			"core.scan.deep_compares":       float64(s.DeepCompares) / n,
		})
	}
	m := perPass.medians()
	m["corpus.add_ms"] = median(add)
	m["bitstream.extract_luts_ms"] = median(extract)
	m["trace.overhead_ms"] = median(add) - median(plainAdd)
	return m
}
