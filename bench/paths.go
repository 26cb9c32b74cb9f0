package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/tracestore"
	"github.com/bertisim/berti/internal/workloads"
)

// benchWorkers is the simulation concurrency of every path: GOMAXPROCS is
// pinned to this, and harness pools, engine passes and the fleet (two
// single-worker nodes) all run this many simulations at once.
const benchWorkers = 2

// fleetPoll is each fleet worker's idle wait between empty lease requests.
const fleetPoll = 50 * time.Millisecond

// traceKey names one generated trace: a registry workload and the
// RunSpec-level seed (generation uses GenConfig.Seed = 42+seed, as the
// harness does).
type traceKey struct {
	name string
	seed int64
}

// specTraces lists the traces one spec's cores read, in core order.
func specTraces(s harness.RunSpec) []traceKey {
	if len(s.Mix) == 0 {
		return []traceKey{{s.Workload, s.Seed}}
	}
	keys := make([]traceKey, len(s.Mix))
	for i, w := range s.Mix {
		keys[i] = traceKey{w, s.Seed + int64(i)}
	}
	return keys
}

// traces lists every trace the workload's specs read, in first-use order.
func (w *workload) traces() []traceKey {
	seen := map[traceKey]bool{}
	var out []traceKey
	for _, s := range w.specs {
		for _, k := range specTraces(s) {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// generate builds one trace exactly as the harness would.
func (w *workload) generate(k traceKey) (*trace.Slice, error) {
	gen, ok := workloads.ByName(k.name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", k.name)
	}
	return gen.Gen(workloads.GenConfig{MemRecords: w.scale.MemRecords, Seed: 42 + k.seed}), nil
}

// ensureCorpus writes one trace into the v2 corpus under the key the
// harness's streaming path looks up, so harness runs find it on disk.
func (w *workload) ensureCorpus(c *tracestore.Corpus, k traceKey) (*tracestore.File, error) {
	if _, ok := workloads.ByName(k.name); !ok {
		return nil, fmt.Errorf("unknown workload %q", k.name)
	}
	key := tracestore.Key{Workload: k.name, Records: w.scale.MemRecords, Seed: 42 + k.seed}
	return c.Ensure(key, func() *trace.Slice {
		s, _ := w.generate(k)
		return s
	})
}

// prewarm fills a fresh harness's trace memo (or, for streaming
// workloads, its corpus directory) so timed runs find every trace ready.
func (w *workload) prewarm(h *harness.Harness) error {
	if w.stream {
		c, err := tracestore.NewCorpus(h.CorpusDir)
		if err != nil {
			return err
		}
		for _, k := range w.traces() {
			f, err := w.ensureCorpus(c, k)
			if err != nil {
				return err
			}
			f.Close()
		}
		return nil
	}
	for _, k := range w.traces() {
		if _, err := h.Trace(k.name, k.seed); err != nil {
			return err
		}
	}
	return nil
}

// newHarness builds a harness at the workload's scale with its traces
// ready.
func (w *workload) newHarness(dir string, workers int) (*harness.Harness, error) {
	h := harness.New(w.scale)
	h.Workers = workers
	if w.stream {
		h.CorpusDir = filepath.Join(dir, "corpus")
	}
	return h, w.prewarm(h)
}

// repResult is one timed rep of a workload's spec set on one path.
type repResult struct {
	wall time.Duration
	// results holds one entry per spec, in spec order; nil where the spec
	// failed or went missing.
	results []*sim.Result
	// report is the campaign report as served (daemon and fleet only).
	report []byte
}

func (r *repResult) failed() int {
	n := 0
	for _, x := range r.results {
		if x == nil {
			n++
		}
	}
	return n
}

// runner executes reps of one workload on one path. open builds it; all
// of that work is set-up time.
type runner interface {
	rep(ctx context.Context) (*repResult, error)
	close()
}

// open sets up a fresh runner for path p under dir. A nil tracer gives
// the untraced runner.
func (w *workload) open(p pathKind, dir string, tr *tracer) (runner, error) {
	switch p {
	case pathEngine:
		return openEngine(w, dir, tr)
	case pathLocal:
		h, err := w.newHarness(dir, benchWorkers)
		if err != nil {
			return nil, err
		}
		return &localRunner{w: w, h: h, tr: tr}, nil
	default:
		return openService(w, dir, p == pathFleet, tr)
	}
}

// pool runs f(lane, i) for every i in [0, n) on up to workers goroutines,
// each taking its next index only after finishing the previous one.
func pool(n, workers int, f func(lane, i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for lane := 1; lane <= workers && lane <= n; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				f(lane, i)
			}
		}(lane)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// engineRunner builds machines directly with sim.New and runs them, the
// way cmd/bertisim does, with every core reading a looping reader.
type engineRunner struct {
	w      *workload
	slices map[traceKey]*trace.Slice
	files  map[traceKey]*tracestore.File
	tr     *tracer
	phase  string
	sched  sim.Scheduler
}

func openEngine(w *workload, dir string, tr *tracer) (*engineRunner, error) {
	r := &engineRunner{w: w, slices: map[traceKey]*trace.Slice{}, files: map[traceKey]*tracestore.File{}, tr: tr, phase: "engine"}
	var corpus *tracestore.Corpus
	if w.stream {
		var err error
		if corpus, err = tracestore.NewCorpus(filepath.Join(dir, "corpus")); err != nil {
			return nil, err
		}
	}
	for _, k := range w.traces() {
		if corpus != nil {
			f, err := w.ensureCorpus(corpus, k)
			if err != nil {
				r.close()
				return nil, err
			}
			r.files[k] = f
			continue
		}
		s, err := w.generate(k)
		if err != nil {
			return nil, err
		}
		r.slices[k] = s
	}
	return r, nil
}

func (r *engineRunner) close() {
	for _, f := range r.files {
		f.Close()
	}
}

func (r *engineRunner) rep(ctx context.Context) (*repResult, error) {
	specs := r.w.specs
	out := &repResult{results: make([]*sim.Result, len(specs))}
	errs := make([]error, len(specs))
	start := time.Now()
	pool(len(specs), benchWorkers, func(lane, i int) {
		out.results[i], errs[i] = r.run(specs[i], lane)
	})
	out.wall = time.Since(start)
	return out, errors.Join(errs...)
}

// run builds and runs one spec's machine. The timed region of sim_kips is
// exactly this call's sim.New plus Machine.Run.
func (r *engineRunner) run(spec harness.RunSpec, lane int) (*sim.Result, error) {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstructions = r.w.scale.WarmupInstr
	cfg.SimInstructions = r.w.scale.SimInstr
	keys := specTraces(spec)
	cfg.Cores = len(keys)
	var st *layerStats
	if r.tr != nil {
		st = &layerStats{}
	}
	readers := make([]trace.Reader, len(keys))
	for i, k := range keys {
		var rd trace.Reader
		if f := r.files[k]; f != nil {
			sr := f.NewReader(tracestore.ReaderOptions{Loop: true, Workers: 2})
			defer sr.Close()
			rd = sr
		} else if s := r.slices[k]; s != nil {
			rd = trace.NewLoopReader(s)
		} else {
			return nil, fmt.Errorf("no trace for %s seed %d", k.name, k.seed)
		}
		if st != nil {
			rd = &timedReader{Reader: rd, st: st}
		}
		readers[i] = rd
	}
	l1, err := prefetcherFactory(spec.L1DPf, st)
	if err != nil {
		return nil, err
	}
	l2, err := prefetcherFactory(spec.L2Pf, st)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, err := sim.New(cfg, readers, l1, l2)
	if err != nil {
		return nil, err
	}
	m.SetScheduler(r.sched)
	t1 := time.Now()
	res, err := m.Run()
	t2 := time.Now()
	if r.tr != nil {
		parent := r.tr.add(spec.Key(), lane, -1, t0, t2)
		r.tr.add("sim.New", lane, parent, t0, t1)
		r.tr.add("Machine.Run", lane, parent, t1, t2)
		var cycles uint64
		for i := 0; i < cfg.Cores; i++ {
			cycles = max(cycles, m.CoreAt(i).FinishedCycle)
		}
		r.tr.addRun(runRecord{phase: r.phase, spec: spec, newNs: int64(t1.Sub(t0)), runNs: int64(t2.Sub(t1)), cycles: cycles, st: st})
	}
	return res, err
}

// localRunner runs the spec set on a fresh harness: RunManyContext when
// untraced, and a closed-loop pool of timed RunContext calls when traced.
type localRunner struct {
	w  *workload
	h  *harness.Harness
	tr *tracer
}

func (r *localRunner) close() {}

func (r *localRunner) rep(ctx context.Context) (*repResult, error) {
	specs := r.w.specs
	out := &repResult{}
	start := time.Now()
	if r.tr == nil {
		var err error
		out.results, err = r.h.RunManyContext(ctx, specs)
		out.wall = time.Since(start)
		return out, err
	}
	out.results = make([]*sim.Result, len(specs))
	errs := make([]error, len(specs))
	pool(len(specs), r.h.Workers, func(lane, i int) {
		t0 := time.Now()
		out.results[i], errs[i] = r.h.RunContext(ctx, specs[i])
		t1 := time.Now()
		r.tr.add("RunContext "+specs[i].Key(), lane, -1, t0, t1)
		r.tr.sample("harness.spec_ms", float64(t1.Sub(t0).Nanoseconds())/1e6)
	})
	out.wall = time.Since(start)
	return out, errors.Join(errs...)
}

// serviceRunner drives an in-process campaign server behind httptest with
// one client: Submit, follow the SSE stream to the final event, then fetch
// the Report. With fleet set the server is a lease-only coordinator and
// two single-worker nodes execute the specs.
type serviceRunner struct {
	w       *workload
	label   string // "daemon" or "fleet": prefixes the traced samples
	srv     *server.Server
	ts      *httptest.Server
	client  *server.Client
	sse     *http.Client
	tr      *tracer
	stop    context.CancelFunc
	workers sync.WaitGroup
}

func quiet(string, ...any) {}

func openService(w *workload, dir string, fleet bool, tr *tracer) (*serviceRunner, error) {
	opts := server.Options{DataDir: filepath.Join(dir, "data"), Logf: quiet, LeaseOnly: fleet}
	if fleet {
		// The coordinator never simulates, so its harness needs no traces.
		opts.Harness = harness.New(w.scale)
	} else {
		h, err := w.newHarness(dir, benchWorkers)
		if err != nil {
			return nil, err
		}
		opts.Harness = h
	}
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	r := &serviceRunner{w: w, label: "daemon", srv: srv, ts: httptest.NewServer(srv.Handler()), tr: tr}
	transport := func(lane int) http.RoundTripper {
		if tr == nil {
			return http.DefaultTransport
		}
		return &timingTransport{base: http.DefaultTransport, tr: tr, lane: lane}
	}
	r.client = server.NewClient(r.ts.URL)
	r.client.SetTransport(transport(10))
	r.sse = &http.Client{Transport: transport(10)}
	if !fleet {
		return r, nil
	}
	r.label = "fleet"
	ctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	for i := 1; i <= benchWorkers; i++ {
		// Each node gets its own harness with the traces ready, like a
		// separate bertiworker process would have after start-up.
		wh, err := w.newHarness(dir, 1)
		if err != nil {
			r.close()
			return nil, err
		}
		c := server.NewClient(r.ts.URL)
		c.SetTransport(transport(10 + i))
		node := &server.Worker{ID: fmt.Sprintf("w%d", i), Client: c, Harness: wh, PollInterval: fleetPoll, Logf: quiet}
		r.workers.Add(1)
		go func() {
			defer r.workers.Done()
			_ = node.Run(ctx) // returns nil on cancellation; errors show up as missing results
		}()
	}
	return r, nil
}

func (r *serviceRunner) close() {
	if r.stop != nil {
		r.stop()
		r.workers.Wait()
	}
	r.ts.Close()
	r.srv.Close()
}

func (r *serviceRunner) rep(ctx context.Context) (*repResult, error) {
	start := time.Now()
	ack, err := r.client.Submit(ctx, r.w.name, r.w.specs)
	submitted := time.Now()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	r.tr.add("Submit", 10, -1, start, submitted)
	r.tr.sample(r.label+".submit_ms", float64(submitted.Sub(start).Nanoseconds())/1e6)

	// The traced run also waits the way a script would, with
	// Client.WaitCampaign's backoff, to price that against the stream.
	var waited time.Time
	var wg sync.WaitGroup
	wctx, cancelWait := context.WithCancel(ctx)
	defer cancelWait()
	if r.tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.client.WaitCampaign(wctx, ack.ID); err == nil {
				waited = time.Now()
			}
		}()
	}
	events, err := r.follow(ctx, ack.ID)
	done := time.Now()
	if err != nil {
		cancelWait()
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	r.tr.add("SSE", 10, -1, submitted, done)
	r.tr.sample(r.label+".sse_events", float64(events))
	if !waited.IsZero() {
		r.tr.sample(r.label+".client_wait_lag_s", waited.Sub(done).Seconds())
	}

	t0 := time.Now()
	report, err := r.client.Report(ctx, ack.ID)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	r.tr.add("Report", 10, -1, t0, t1)
	r.tr.sample(r.label+".report_ms", float64(t1.Sub(t0).Nanoseconds())/1e6)
	r.tr.sample(r.label+".report_bytes", float64(len(report)))

	results, err := reportResults(report, r.w.specs)
	if err != nil {
		return nil, err
	}
	return &repResult{wall: done.Sub(start), results: results, report: report}, nil
}

// follow reads the campaign's SSE stream until a status leaves the running
// state, returning how many events arrived.
func (r *serviceRunner) follow(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.ts.URL+"/api/v1/campaigns/"+id+"/stream", nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.sse.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET stream: %s", resp.Status)
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		events++
		var st server.CampaignStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return events, fmt.Errorf("decoding stream event: %w", err)
		}
		if st.State != server.StateRunning {
			return events, nil
		}
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	return events, errors.New("stream closed before the campaign finished")
}

// reportResults maps a served report back onto spec order; specs the
// report lacks (failed or missing) stay nil.
func reportResults(report []byte, specs []harness.RunSpec) ([]*sim.Result, error) {
	var doc struct {
		Runs []campaign.Entry `json:"runs"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	byKey := make(map[string]*sim.Result, len(doc.Runs))
	for _, e := range doc.Runs {
		byKey[e.Key] = e.Result
	}
	out := make([]*sim.Result, len(specs))
	for i, s := range specs {
		out[i] = byKey[s.Key()]
	}
	return out, nil
}
