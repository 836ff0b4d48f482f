package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"snowbma"
	"snowbma/internal/corpus"
	"snowbma/internal/service"
	"snowbma/internal/store"
	"snowbma/perfbench/internal/oneshot"
	"snowbma/perfbench/internal/procstat"
	"snowbma/perfbench/internal/trace"
)

// serve-mixed: one long-lived service.Engine on a WAL store, behind its
// HTTP handler on loopback, with as many workers as closed-loop
// clients. Each client posts a job, follows its SSE event stream until
// it closes, then fetches the result.

const (
	// servePool is the number of seeded designs jobs target, and
	// serveSealed how many of them (the first) also have an encrypted
	// build. The faulty design follows them, at index servePool. The
	// victim cache is sized to hold every build, so it never evicts.
	servePool   = 32
	serveSealed = 8
	serveBuilds = servePool + serveSealed + 1
	// serveRound is the length of the fixed job mix (serveMix).
	serveRound = 16
)

// jobKind is one slot of the job mix.
type jobKind struct {
	name         string
	kind         string // service job kind
	encrypted    bool
	recomputeCRC bool
}

var (
	plainJob  = jobKind{name: "plain", kind: service.KindAttack}
	sealedJob = jobKind{name: "encrypted", kind: service.KindAttack, encrypted: true}
	crcJob    = jobKind{name: "recompute_crc", kind: service.KindAttack, recomputeCRC: true}
	censusJob = jobKind{name: "census", kind: service.KindCensus}
	// faultJob is a catalogue attack on the faulty design; it fails
	// every time.
	faultJob = jobKind{name: "fault", kind: service.KindAttack}
	// The warm-up's findlut jobs are the cheapest that fill the victim
	// cache, one per build.
	findJob       = jobKind{name: "findlut", kind: service.KindFindLUT}
	sealedFindJob = jobKind{name: "findlut", kind: service.KindFindLUT, encrypted: true}
)

// serveMix is the fixed job mix, repeated in whole rounds: catalogue
// attacks (ten plain, two on an encrypted image, two with
// recompute_crc, one on the faulty design) and one census-guided
// attack in sixteen. A census-guided job runs about twelve times as
// long as a catalogue job, so at one in sixteen the two kinds share
// the workers' time about evenly.
var serveMix = [serveRound]jobKind{
	plainJob, plainJob, sealedJob, plainJob, crcJob, plainJob, plainJob, faultJob,
	plainJob, plainJob, sealedJob, plainJob, crcJob, plainJob, plainJob, censusJob,
}

// serveDesign is one pool design and the IV its jobs drive.
type serveDesign struct {
	key  snowbma.Key
	iv   snowbma.IV
	seed int64
	pad  int
}

// serveInputs derives the pool from the seed and appends the faulty
// design: faultyKey and faultyIV on the default placement.
func serveInputs(seed int64) []serveDesign {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	ds := make([]serveDesign, servePool, servePool+1)
	for i := range ds {
		d := &ds[i]
		for w := 0; w < 4; w++ {
			d.key[w] = rng.Uint32()
		}
		d.iv = drawIV(rng, d.key)
		d.seed = int64(rng.Uint32()) + 1
		d.pad = rng.Intn(4)
	}
	return append(ds, serveDesign{key: faultyKey, iv: faultyIV})
}

// serveJob maps job index j to its mix slot and design. The design
// shifts by one every round, so every slot meets every design (every
// sealed design, for encrypted jobs).
func serveJob(j int) (kind jobKind, design int) {
	kind, design = serveMix[j%serveRound], (j+j/serveRound)%servePool
	switch {
	case kind == faultJob:
		design = servePool
	case kind.encrypted:
		design %= serveSealed
	}
	return kind, design
}

func (d serveDesign) spec(k jobKind) service.JobSpec {
	s := service.JobSpec{
		Kind:         k.kind,
		Victim:       service.VictimSpec{Key: d.key, Seed: d.seed, PadFrames: d.pad, Encrypted: k.encrypted},
		IV:           d.iv,
		RecomputeCRC: k.recomputeCRC,
	}
	if k.kind == service.KindFindLUT {
		s.Expr = corpus.DefaultTargetExpr
	}
	return s
}

// server is one engine on its own WAL directory behind a loopback
// HTTP server.
type server struct {
	dir    string
	wal    string
	eng    *service.Engine
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	// jobs counts every job submitted, for the WAL replay check.
	jobs int
}

func startServer(workers int) (*server, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	w, err := store.OpenDir(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	eng, err := service.Open(service.Config{
		Workers:    workers,
		Store:      w,
		CacheSize:  serveBuilds,
		RetainJobs: 1 << 20, // keep every job queryable and in the WAL
	})
	if err != nil {
		w.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		dir: dir, wal: w.Path(), eng: eng,
		srv:    &http.Server{Handler: eng.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		// The timeout turns a job stream that never closes into a failed
		// job instead of a hung run.
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the engine down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	s.client.CloseIdleConnections()
	return errors.Join(herr, s.eng.Shutdown(ctx))
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	kind    jobKind
	design  int
	traced  bool
	latency time.Duration
	// terminalEvents counts terminal job events (done, failed,
	// cancelled) on the job's SSE stream.
	terminalEvents int
	result         service.AttackResult
	status         service.Status
	layers         map[string]float64
	// fabricMS is the traced job's time on the fabric (trace.Summary).
	fabricMS float64
	err      error
}

// do runs one job as a client: submit, follow the SSE stream until it
// closes, fetch the result, and when traced also the job's trace.
func (s *server) do(ds []serveDesign, kind jobKind, design int, traced bool) jobRecord {
	rec := jobRecord{kind: kind, design: design, traced: traced}
	body, err := json.Marshal(ds[design].spec(kind))
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	var st service.Status
	if err := s.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &st); err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	tSubmitted := time.Now()
	rec.terminalEvents, err = s.follow(st.ID)
	tNotified := time.Now()
	if err != nil {
		rec.err = fmt.Errorf("events: %w", err)
		return rec
	}
	var res struct {
		Status service.Status       `json:"status"`
		Result service.AttackResult `json:"result"`
	}
	if err := s.call(http.MethodGet, "/jobs/"+st.ID+"/result", nil, http.StatusOK, &res); err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	}
	rec.latency = time.Since(t0)
	rec.result, rec.status = res.Result, res.Status
	if !traced || res.Status.State != service.StateDone {
		return rec
	}
	rec.layers = map[string]float64{
		"service.submit_ms": ms(tSubmitted.Sub(t0)),
		"service.result_ms": ms(time.Since(tNotified)),
	}
	if st := res.Status; st.Started != nil && st.Finished != nil {
		rec.layers["service.queue_wait_ms"] = ms(st.Started.Sub(st.Submitted))
		rec.layers["service.run_ms"] = ms(st.Finished.Sub(*st.Started))
		rec.layers["service.notify_ms"] = ms(tNotified.Sub(*st.Finished))
	}
	resp, err := s.client.Get(s.base + "/jobs/" + st.ID + "/trace")
	if err != nil {
		rec.err = fmt.Errorf("trace: %w", err)
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("trace: status %d", resp.StatusCode)
		return rec
	}
	sum, err := trace.Parse(resp.Body)
	if err != nil {
		rec.err = err
		return rec
	}
	for k, v := range sum.Layers() {
		rec.layers[k] = v
	}
	rec.fabricMS = sum.FabricMS
	for k, v := range oneshot.BatchLayers(res.Result.Loads, res.Result.Batch) {
		rec.layers[k] = v
	}
	return rec
}

// call makes one JSON request and decodes the reply into out.
func (s *server) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// follow reads a job's SSE stream until the server closes it and counts
// the terminal job events on it.
func (s *server) follow(id string) (terminal int, err error) {
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "job":
			var ev struct {
				Job  string `json:"job"`
				Name string `json:"name"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return terminal, err
			}
			switch ev.Name {
			case service.StateDone, service.StateFailed, service.StateCancelled:
				if ev.Job == id {
					terminal++
				}
			}
		}
	}
	return terminal, sc.Err()
}

// warm runs the set-up's cache warm-up from `clients` clients: a
// findlut job on every build of every pool design, which fills the
// victim cache, then one catalogue attack, which compiles the
// process-wide candidate catalogue.
func (s *server) warm(ds []serveDesign, clients int) []jobRecord {
	type job struct {
		kind   jobKind
		design int
	}
	var jobs []job
	for d := range ds {
		jobs = append(jobs, job{findJob, d})
		if d < serveSealed {
			jobs = append(jobs, job{sealedFindJob, d})
		}
	}
	jobs = append(jobs, job{plainJob, 0})
	recs := make([]jobRecord, len(jobs))
	closedLoop(clients, 0, len(jobs), func(i int) {
		recs[i] = s.do(ds, jobs[i].kind, jobs[i].design, false)
	})
	s.jobs += len(jobs)
	return recs
}

func runServe(o options) (*outcome, error) {
	ds := serveInputs(o.seed)
	var warm []jobRecord
	srv, setupS, err := timeSetups(o, func() (*server, error) {
		s, err := startServer(o.clients)
		if err != nil {
			return nil, err
		}
		warm = s.warm(ds, o.clients)
		for _, r := range warm {
			if r.err != nil {
				s.stop()
				os.RemoveAll(s.dir)
				return nil, fmt.Errorf("warm-up job: %w", r.err)
			}
		}
		return s, nil
	}, func(s *server) {
		s.stop()
		os.RemoveAll(s.dir)
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(srv.dir)

	walBefore, err := fileSize(srv.wal)
	if err != nil {
		srv.stop()
		return nil, err
	}
	var mu sync.Mutex
	var recs []jobRecord
	attempted, perSecond := closedLoop(o.clients, o.window(), serveRound, func(j int) {
		// A traced run traces every other round.
		kind, design := serveJob(j)
		r := srv.do(ds, kind, design, o.trace && (j/serveRound)%2 == 0)
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	})
	srv.jobs += attempted
	walAfter, werr := fileSize(srv.wal)
	hits, misses, _ := srv.eng.CacheStats()
	stopErr := srv.stop()
	if err := errors.Join(werr, stopErr); err != nil {
		return nil, err
	}

	refs, err := buildServeRefs(ds)
	if err != nil {
		return nil, err
	}
	oc := &outcome{attempted: attempted}
	all := slices.Concat(warm, recs)
	checkServe(oc, ds, refs, all)
	checkReplay(oc, srv, all)
	if o.trace {
		layers := serveLayers(refs, recs)
		layers["store.wal_bytes_per_job"] = float64(walAfter-walBefore) / float64(attempted)
		layers["victim.cache_hits"] = float64(hits)
		layers["victim.cache_misses"] = float64(misses)
		oc.metrics = layers
		return oc, nil
	}
	var lat []float64
	for _, r := range recs {
		if r.err == nil && r.status.State == service.StateDone && r.kind != censusJob {
			lat = append(lat, ms(r.latency))
		}
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

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// serveRefs are the benchmark's own references for the output checks:
// each pool design's unmodified device keystream, from victims it
// synthesises itself, and how long each synthesis took.
type serveRefs struct {
	keystream [][]uint32
	buildMS   []float64
}

func buildServeRefs(ds []serveDesign) (*serveRefs, error) {
	refs := &serveRefs{}
	for _, d := range ds {
		t := time.Now()
		v, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: d.key, Seed: d.seed, PadFrames: d.pad})
		if err != nil {
			return nil, err
		}
		refs.buildMS = append(refs.buildMS, ms(time.Since(t)))
		refs.keystream = append(refs.keystream, v.Keystream(d.iv, checkWords))
	}
	return refs, nil
}

// checkServe checks every job, warm-up jobs included: its event stream
// carried exactly one terminal event, and a job that ended `done` and
// ran an attack recovered the configured key and the driven IV, whose
// model keystream equals the unmodified device's. A job that ended
// otherwise counts in `failed`. Jobs of one design and mix slot must
// all take the program path (modelled loads, fabric passes) of the
// first such job.
func checkServe(oc *outcome, ds []serveDesign, refs *serveRefs, all []jobRecord) {
	type slot struct {
		design int
		kind   string
	}
	type path struct{ loads, passes int }
	paths := map[slot]path{}
	for _, r := range all {
		if r.err != nil { // set-up has already refused a failed warm-up job
			oc.failf("serve %s job on design %d: %v", r.kind.name, r.design, r.err)
			continue
		}
		d, res := ds[r.design], r.result
		if r.terminalEvents != 1 {
			oc.checkf("serve %s job %s: %d terminal events on its stream, want 1",
				r.kind.name, r.status.ID, r.terminalEvents)
		}
		if r.status.State != service.StateDone {
			oc.failf("serve %s job %s on design %d ended %s: %s",
				r.kind.name, r.status.ID, r.design, r.status.State, r.status.Error)
			continue
		}
		if r.kind.kind == service.KindFindLUT {
			continue // a warm-up job: only its completion is checked
		}
		if !res.Verified || res.Key != d.key || res.IV != d.iv {
			oc.checkf("serve %s job %s: recovered key %08x iv %08x verified=%v, configured key %08x iv %08x",
				r.kind.name, r.status.ID, res.Key, res.IV, res.Verified, d.key, d.iv)
		}
		if err := checkKeystream(res.Key, res.IV, refs.keystream[r.design]); err != nil {
			oc.checkf("serve %s job %s: %v", r.kind.name, r.status.ID, err)
		}
		got := path{res.Loads, res.Batch.Passes}
		k := slot{r.design, r.kind.name}
		if want, ok := paths[k]; !ok {
			paths[k] = got
		} else if got != want {
			oc.checkf("serve %s job %s (traced=%v): loads/passes %d/%d, earlier job on design %d %d/%d",
				r.kind.name, r.status.ID, r.traced, got.loads, got.passes, r.design, want.loads, want.passes)
		}
	}
}

// checkReplay reopens the stopped engine's WAL and checks that it
// replays every submitted job, each in the state its client saw.
func checkReplay(oc *outcome, s *server, all []jobRecord) {
	w, err := store.OpenWAL(s.wal)
	if err != nil {
		oc.checkf("reopening WAL: %v", err)
		return
	}
	defer w.Close()
	recs, err := w.Load()
	if err != nil {
		oc.checkf("replaying WAL: %v", err)
		return
	}
	jobs := store.FoldLatest(recs)
	if len(jobs) != s.jobs {
		oc.checkf("WAL replays %d jobs, %d were submitted", len(jobs), s.jobs)
	}
	seen := map[string]string{}
	for _, r := range all {
		seen[r.status.ID] = r.status.State
	}
	for _, r := range jobs {
		if r.State != seen[r.Job] {
			oc.checkf("WAL replays job %s as %s, its client saw %q", r.Job, r.State, seen[r.Job])
		}
	}
}

// serveLayers folds the layer figures of the jobs that ended done:
// medians over the traced catalogue-attack jobs, the census-guided
// jobs' own figures under census_attack.*, and the traced jobs' share
// of run time spent on the fabric.
func serveLayers(refs *serveRefs, recs []jobRecord) map[string]float64 {
	catalogue := samples{}
	var censusLat, censusBeta, tracedLat, plainLat []float64
	var fabricMS, runMS float64
	for _, r := range recs {
		if r.err != nil || r.status.State != service.StateDone {
			continue
		}
		if r.traced {
			fabricMS += r.fabricMS
			runMS += r.layers["service.run_ms"]
		}
		switch {
		case r.kind == censusJob:
			censusLat = append(censusLat, ms(r.latency))
			if r.traced {
				censusBeta = append(censusBeta, r.layers["core.resolve_beta_ms"])
			}
		case r.traced:
			catalogue.add(r.layers)
			tracedLat = append(tracedLat, ms(r.latency))
		default:
			plainLat = append(plainLat, ms(r.latency))
		}
	}
	m := catalogue.medians()
	m["victim.build_ms"] = median(refs.buildMS)
	m["census_attack.latency.p50_ms"] = median(censusLat)
	m["census_attack.resolve_beta_ms"] = median(censusBeta)
	m["trace.overhead_ms"] = median(tracedLat) - median(plainLat)
	if runMS > 0 {
		m["fabric.run_share"] = fabricMS / runMS
	}
	return m
}
