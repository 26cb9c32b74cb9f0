package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/server"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/tracestore"
)

// runConfig is one workload run's settings.
type runConfig struct {
	seconds time.Duration
	dir     string // scratch directory, removed by the caller
}

const (
	// minReps is the fewest timed reps a run takes, however long they are.
	minReps = 3
	// minSetups is how many fresh set-ups setup_s takes its median over.
	minSetups = 5
)

// outcome is what one workload run reports.
type outcome struct {
	Workload   string            `json:"workload"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches int               `json:"output_mismatches"`
	Notes      []string          `json:"notes,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Digests fingerprints each spec's result (spec order) from the first
	// rep, so separate runs of one spec set can be compared.
	Digests []string `json:"digests"`
}

// specInstructions is what spec i simulates: warmup plus measured
// instructions on every core.
func specInstructions(w *workload, i int) float64 {
	return float64(len(specTraces(w.specs[i]))) * float64(w.scale.WarmupInstr+w.scale.SimInstr)
}

// measureTimed runs the untraced reps on the workload's own path until
// cfg.seconds of timed work (and at least minReps reps) are done. Every
// rep gets a fresh set-up, timed into setup_s; reps must agree byte for
// byte.
func measureTimed(ctx context.Context, w *workload, cfg runConfig, o *outcome, ck *checks) error {
	var setups, kips, perHour []float64
	var firstReport []byte
	var timed time.Duration
	for rep := 0; rep < minReps || timed < cfg.seconds; rep++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("rep%d", rep))
		start := time.Now()
		r, err := w.open(w.path, dir, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		runtime.GC()
		res, err := r.rep(ctx)
		r.close()
		os.RemoveAll(dir)
		o.Attempted += len(w.specs)
		if res == nil {
			o.Failed += len(w.specs)
			return fmt.Errorf("rep %d: %w", rep, err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: rep %d: %v\n", w.name, rep, err)
		}
		o.Failed += res.failed()
		timed += res.wall

		var instr float64
		for i, r := range res.results {
			if r != nil {
				instr += specInstructions(w, i)
			}
		}
		kips = append(kips, instr/1e3/res.wall.Seconds())
		perHour = append(perHour, float64(len(w.specs)-res.failed())/res.wall.Hours())

		d := digests(res.results)
		ck.sane(fmt.Sprintf("%s rep %d", w.path, rep), res.results, w.scale.SimInstr)
		if rep == 0 {
			o.Digests, firstReport = d, res.report
		} else {
			ck.same(fmt.Sprintf("%s rep %d vs rep 0", w.path, rep), o.Digests, d)
			if res.report != nil && !bytes.Equal(res.report, firstReport) {
				ck.fail("%s rep %d: report bytes differ from rep 0", w.path, rep)
			}
		}
	}
	for len(setups) < minSetups {
		dir := filepath.Join(cfg.dir, "setup")
		start := time.Now()
		r, err := w.open(w.path, dir, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		r.close()
		os.RemoveAll(dir)
	}
	o.Metrics["sim_kips"] = metric{median(kips), "kinstr/s", len(kips)}
	o.Metrics["specs_per_hour"] = metric{median(perHour), "specs/h", len(perHour)}
	o.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	return nil
}

// measureTraced is the traced run: it sends the workload's spec set
// through every layer with the timing wrappers on, checks every path
// against the untraced engine's digests, and derives the per-layer
// metrics. Any spec failure is counted; any other error aborts the run.
func measureTraced(ctx context.Context, w *workload, cfg runConfig, o *outcome, ck *checks) (*tracer, error) {
	tr := newTracer()
	m := o.Metrics
	msOf := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	attempt := func(what string, res *repResult, err error) ([]string, error) {
		o.Attempted += len(w.specs)
		if res == nil {
			o.Failed += len(w.specs)
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", w.name, what, err)
		}
		o.Failed += res.failed()
		ck.sane(what, res.results, w.scale.SimInstr)
		return digests(res.results), nil
	}

	// workloads: generation, cold (process-wide caches such as the GAP
	// graphs are built here, once per process).
	ph := tr.begin("workloads.generate")
	slices := map[traceKey]*trace.Slice{}
	var gen time.Duration
	records := 0
	for _, k := range w.traces() {
		start := time.Now()
		s, err := w.generate(k)
		gen += time.Since(start)
		if err != nil {
			return tr, err
		}
		slices[k] = s
		records += s.Len()
	}
	tr.end(ph)
	m["workloads.gen_ms"] = metric{Value: msOf(gen), Unit: "ms"}
	m["workloads.records"] = metric{Value: float64(records), Unit: "count"}

	// tracestore: encode into a fresh corpus, then drain every file once.
	ph = tr.begin("tracestore")
	corpus, err := tracestore.NewCorpus(filepath.Join(cfg.dir, "corpus"))
	if err != nil {
		return tr, err
	}
	files := map[traceKey]*tracestore.File{}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	var encode time.Duration
	var compressed int64
	for _, k := range w.traces() {
		start := time.Now()
		key := tracestore.Key{Workload: k.name, Records: w.scale.MemRecords, Seed: 42 + k.seed}
		f, err := corpus.Ensure(key, func() *trace.Slice { return slices[k] })
		encode += time.Since(start)
		if err != nil {
			return tr, err
		}
		files[k] = f
		compressed += f.CompressedSize()
	}
	var nextNs, read int64
	for _, k := range w.traces() {
		rd := files[k].NewReader(tracestore.ReaderOptions{Workers: 2})
		for {
			start := time.Now()
			_, err := rd.Next()
			nextNs += int64(time.Since(start))
			if err == io.EOF {
				break
			}
			if err != nil {
				rd.Close()
				return tr, fmt.Errorf("draining %s: %w", k.name, err)
			}
			read++
		}
		rd.Close()
	}
	tr.end(ph)
	if read != int64(records) {
		ck.fail("tracestore: drained %d records, generated %d", read, records)
	}
	m["tracestore.encode_ms"] = metric{Value: msOf(encode), Unit: "ms"}
	m["tracestore.compress_ratio"] = metric{Value: float64(records) * float64(unsafe.Sizeof(trace.Record{})) / float64(compressed), Unit: "x"}
	m["tracestore.next_ns"] = metric{Value: ratio(float64(nextNs), float64(read+int64(len(files)))), Unit: "ns"}
	m["tracestore.records_read"] = metric{Value: float64(read), Unit: "count"}

	// engine, untraced then traced: the same machines, byte for byte.
	eng := &engineRunner{w: w, slices: slices, phase: "engine"}
	if w.stream {
		eng.slices, eng.files = nil, files
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ph = tr.begin("engine untraced")
	res, err := eng.rep(ctx)
	tr.end(ph)
	runtime.ReadMemStats(&after)
	want, err := attempt("engine untraced", res, err)
	if err != nil {
		return tr, err
	}
	o.Digests = want
	untracedWall := res.wall
	results := res.results
	runs := float64(len(w.specs))
	m["sim.mallocs_per_run"] = metric{Value: float64(after.Mallocs-before.Mallocs) / runs, Unit: "count/run"}
	m["sim.gc_per_run"] = metric{Value: float64(after.NumGC-before.NumGC) / runs, Unit: "count/run"}

	eng.tr = tr
	runtime.GC()
	ph = tr.begin("engine traced")
	res, err = eng.rep(ctx)
	tr.end(ph)
	got, err := attempt("engine traced", res, err)
	if err != nil {
		return tr, err
	}
	ck.same("engine traced vs untraced", want, got)
	m["bench.trace_overhead_pct"] = metric{Value: (res.wall.Seconds()/untracedWall.Seconds() - 1) * 100, Unit: "%"}
	engineMetrics(m, tr.phaseRuns("engine"))
	modelMetrics(m, results)

	// sim: the first spec under the ticked reference loop and the horizon
	// scheduler, untimed by wrappers.
	ph = tr.begin("scheduler")
	single := *eng
	single.tr = nil
	var walls [2]time.Duration
	for i, sched := range []sim.Scheduler{sim.SchedHorizon, sim.SchedTicked} {
		single.sched = sched
		runtime.GC()
		start := time.Now()
		r, err := single.run(w.specs[0], 0)
		walls[i] = time.Since(start)
		o.Attempted++
		if err != nil {
			o.Failed++
			fmt.Fprintf(os.Stderr, "%s: %s run: %v\n", w.name, sched, err)
			continue
		}
		ck.same(sched.String()+" scheduler vs engine", want[:1], []string{digest(r)})
	}
	tr.end(ph)
	m["sim.horizon_speedup"] = metric{Value: ratio(walls[1].Seconds(), walls[0].Seconds()), Unit: "x"}

	// prefetch: every registry prefetcher on the zoo trace.
	ph = tr.begin("prefetch zoo")
	zw := w.zoo()
	zoo := &engineRunner{w: zw, slices: slices, tr: tr, phase: "zoo"}
	res, err = zoo.rep(ctx)
	tr.end(ph)
	o.Attempted += len(zw.specs)
	if res == nil {
		return tr, fmt.Errorf("prefetch zoo: %w", err)
	}
	o.Failed += res.failed()
	zooMetrics(m, tr.phaseRuns("zoo"))

	// harness: a fresh harness, pre-warmed, then timed RunContext calls.
	ph = tr.begin("harness")
	start := time.Now()
	lr, err := w.open(pathLocal, filepath.Join(cfg.dir, "local"), tr)
	if err != nil {
		return tr, fmt.Errorf("harness set-up: %w", err)
	}
	m["harness.trace_ms"] = metric{Value: msOf(time.Since(start)), Unit: "ms"}
	res, err = lr.rep(ctx)
	lr.close()
	tr.end(ph)
	got, err = attempt("harness", res, err)
	if err != nil {
		return tr, err
	}
	ck.same("harness vs engine", want, got)
	localWall := res.wall
	spec := tr.samples["harness.spec_ms"]
	m["harness.spec_ms_p50"] = metric{Value: median(spec), Unit: "ms", N: len(spec)}
	m["harness.spec_ms_p90"] = metric{Value: percentile(spec, 90), Unit: "ms", N: len(spec)}
	busy := 0.0
	for _, x := range spec {
		busy += x
	}
	capacity := float64(benchWorkers) * msOf(localWall)
	m["harness.pool_idle_share"] = metric{Value: (capacity - busy) / capacity, Unit: "ratio"}

	// server: the daemon, then the fleet, each fresh; both must serve the
	// engine's results in identical reports.
	var reports [2][]byte
	var walls2 [2]time.Duration
	for i, p := range []pathKind{pathDaemon, pathFleet} {
		ph = tr.begin(p.String())
		r, err := w.open(p, filepath.Join(cfg.dir, p.String()), tr)
		if err != nil {
			return tr, fmt.Errorf("%s set-up: %w", p, err)
		}
		res, err := r.rep(ctx)
		r.close()
		tr.end(ph)
		got, err := attempt(p.String(), res, err)
		if err != nil {
			return tr, err
		}
		ck.same(p.String()+" vs engine", want, got)
		reports[i], walls2[i] = res.report, res.wall
	}
	if !bytes.Equal(reports[0], reports[1]) {
		ck.fail("fleet report differs from daemon report")
	}
	serverMetrics(m, tr)
	m["server.daemon_overhead_pct"] = metric{Value: (walls2[0].Seconds()/localWall.Seconds() - 1) * 100, Unit: "%"}
	m["server.fleet_overhead_pct"] = metric{Value: (walls2[1].Seconds()/localWall.Seconds() - 1) * 100, Unit: "%"}

	// campaign and store: replay the results through a fresh journal and a
	// fresh result store, timing each write.
	ph = tr.begin("persist")
	err = replay(tr, w, results, cfg.dir, m)
	tr.end(ph)
	if err != nil {
		return tr, err
	}
	return tr, nil
}

// zoo is the workload the traced run prices every registry prefetcher on:
// no prefetching and each registry prefetcher at its own level, on the
// first trace of the first spec, with a short instruction budget.
func (w *workload) zoo() *workload {
	k := specTraces(w.specs[0])[0]
	scale := w.scale
	scale.WarmupInstr = min(scale.WarmupInstr, 20_000)
	scale.SimInstr = min(scale.SimInstr, 100_000)
	return &workload{name: w.name + "-zoo", scale: scale, specs: zooSpecs([]string{k.name}, k.seed), path: pathEngine}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineMetrics derives host-time layer costs from the traced engine runs.
func engineMetrics(m map[string]metric, runs []runRecord) {
	var st layerStats
	var newNs, runNs int64
	var cycles uint64
	for _, r := range runs {
		newNs += r.newNs
		runNs += r.runNs
		cycles += r.cycles
		st.accessNs += r.st.accessNs
		st.fillNs += r.st.fillNs
		st.nextNs += r.st.nextNs
		st.accessCalls += r.st.accessCalls
		st.fillCalls += r.st.fillCalls
		st.nextCalls += r.st.nextCalls
		st.candidates += r.st.candidates
	}
	n := float64(len(runs))
	self := float64(runNs - st.accessNs - st.fillNs - st.nextNs)
	m["sim.new_ms"] = metric{Value: float64(newNs) / 1e6 / n, Unit: "ms", N: len(runs)}
	m["sim.run_ms"] = metric{Value: float64(runNs) / 1e6 / n, Unit: "ms", N: len(runs)}
	m["sim.ns_per_cycle"] = metric{Value: ratio(float64(runNs), float64(cycles)), Unit: "ns/cycle"}
	m["sim.self_ms"] = metric{Value: self / 1e6 / n, Unit: "ms", N: len(runs)}
	m["sim.self_share"] = metric{Value: ratio(self, float64(runNs)), Unit: "ratio"}
	m["prefetch.train_ns"] = metric{Value: ratio(float64(st.accessNs), float64(st.accessCalls)), Unit: "ns"}
	m["prefetch.fill_ns"] = metric{Value: ratio(float64(st.fillNs), float64(st.fillCalls)), Unit: "ns"}
	m["prefetch.calls_access"] = metric{Value: float64(st.accessCalls), Unit: "count"}
	m["prefetch.calls_fill"] = metric{Value: float64(st.fillCalls), Unit: "count"}
	m["prefetch.candidates_per_access"] = metric{Value: ratio(float64(st.candidates), float64(st.accessCalls)), Unit: "count"}
	m["prefetch.share"] = metric{Value: ratio(float64(st.accessNs+st.fillNs), float64(runNs)), Unit: "ratio"}
	m["trace.next_ns"] = metric{Value: ratio(float64(st.nextNs), float64(st.nextCalls)), Unit: "ns"}
}

// zooMetrics gives each registry prefetcher's mean training-call cost.
func zooMetrics(m map[string]metric, runs []runRecord) {
	for _, e := range prefetch.All() {
		var ns, calls int64
		for _, r := range runs {
			if r.spec.L1DPf == e.Name || r.spec.L2Pf == e.Name {
				ns += r.st.accessNs
				calls += r.st.accessCalls
			}
		}
		m["prefetch."+e.Name+".ns_per_access"] = metric{Value: ratio(float64(ns), float64(calls)), Unit: "ns"}
	}
}

// modelMetrics sums the simulated statistics of the measured regions.
// They are exact: a change to any of them is a change to the model.
func modelMetrics(m map[string]metric, results []*sim.Result) {
	var l1, l2, llc struct {
		access, miss, issued, dropped, fills, useful, late, useless, merges, stalls, latSum, latN uint64
	}
	var dramReads, dramWrites, rowHits, rowAll, busy, rqFull uint64
	var stlbMiss, walks, pfDropTLB, cycles, instr, robStalls uint64
	var ipcSum float64
	cores := 0
	for _, r := range results {
		if r == nil {
			continue
		}
		cycles += r.Cycles
		for _, c := range r.Cores {
			cores++
			ipcSum += c.IPC
			instr += c.Core.Instructions
			robStalls += c.Core.ROBFullStalls
			stlbMiss += c.TLB.STLBMisses
			walks += c.TLB.PageWalks
			pfDropTLB += c.TLB.PrefDropTLB
			l1.access += c.L1D.DemandAccesses
			l1.miss += c.L1D.DemandMisses
			l1.issued += c.L1D.PrefIssued
			l1.dropped += c.L1D.PrefDropped
			l1.fills += c.L1D.PrefFills
			l1.useful += c.L1D.PrefUseful
			l1.late += c.L1D.PrefLate
			l1.useless += c.L1D.PrefUseless
			l1.merges += c.L1D.MSHRMerges
			l1.stalls += c.L1D.MSHRFullStalls
			l1.latSum += c.L1D.FillLatencySum
			l1.latN += c.L1D.FillLatencyCount
			l2.miss += c.L2.DemandMisses
			l2.issued += c.L2.PrefIssued
			l2.useful += c.L2.PrefUseful
			l2.stalls += c.L2.MSHRFullStalls
		}
		llc.miss += r.LLC.DemandMisses
		llc.stalls += r.LLC.MSHRFullStalls
		dramReads += r.DRAM.Reads
		dramWrites += r.DRAM.Writes
		rowHits += r.DRAM.RowHits
		rowAll += r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts
		busy += r.DRAM.BusyCycles
		rqFull += r.DRAM.RQFullStalls
	}
	f := func(v uint64) metric { return metric{Value: float64(v), Unit: "count"} }
	m["cache.l1d.demand_accesses"] = f(l1.access)
	m["cache.l1d.demand_misses"] = f(l1.miss)
	m["cache.l1d.pf_issued"] = f(l1.issued)
	m["cache.l1d.pf_dropped"] = f(l1.dropped)
	m["cache.l1d.pf_accept_ratio"] = metric{Value: ratio(float64(l1.issued), float64(l1.issued+l1.dropped)), Unit: "ratio"}
	m["cache.l1d.pf_useful"] = f(l1.useful)
	m["cache.l1d.pf_late"] = f(l1.late)
	m["cache.l1d.pf_useless"] = f(l1.useless)
	m["cache.l1d.pf_accuracy"] = metric{Value: ratio(float64(l1.useful+l1.late), float64(l1.fills)), Unit: "ratio"}
	m["cache.l1d.mshr_merges"] = f(l1.merges)
	m["cache.l1d.mshr_full_stalls"] = f(l1.stalls)
	m["cache.l1d.fill_latency_avg"] = metric{Value: ratio(float64(l1.latSum), float64(l1.latN)), Unit: "cycles"}
	m["cache.l2.demand_misses"] = f(l2.miss)
	m["cache.l2.pf_issued"] = f(l2.issued)
	m["cache.l2.pf_useful"] = f(l2.useful)
	m["cache.l2.mshr_full_stalls"] = f(l2.stalls)
	m["cache.llc.demand_misses"] = f(llc.miss)
	m["cache.llc.mshr_full_stalls"] = f(llc.stalls)
	m["dram.reads"] = f(dramReads)
	m["dram.writes"] = f(dramWrites)
	m["dram.row_hit_ratio"] = metric{Value: ratio(float64(rowHits), float64(rowAll)), Unit: "ratio"}
	m["dram.busy_cycles"] = metric{Value: float64(busy), Unit: "cycles"}
	m["dram.rq_full_stalls"] = f(rqFull)
	m["vm.stlb_misses"] = f(stlbMiss)
	m["vm.page_walks"] = f(walks)
	m["vm.pf_drop_tlb"] = f(pfDropTLB)
	m["sim.cycles"] = metric{Value: float64(cycles), Unit: "cycles"}
	m["sim.instructions"] = f(instr)
	m["sim.ipc"] = metric{Value: ratio(ipcSum, float64(cores)), Unit: "instr/cycle"}
	m["sim.rob_full_stalls"] = f(robStalls)
}

// serverMetrics derives the service layers' costs from the daemon and
// fleet passes' client calls and HTTP exchanges.
func serverMetrics(m map[string]metric, tr *tracer) {
	s := tr.samples
	p50 := func(name, unit string) metric { return metric{Value: median(s[name]), Unit: unit, N: len(s[name])} }
	p90 := func(name string) metric { return metric{Value: percentile(s[name], 90), Unit: "ms", N: len(s[name])} }
	m["server.submit_ms"] = p50("daemon.submit_ms", "ms")
	m["server.report_ms"] = p50("daemon.report_ms", "ms")
	m["server.report_bytes"] = metric{Value: median(s["daemon.report_bytes"]), Unit: "bytes"}
	m["server.sse_events"] = metric{Value: median(s["daemon.sse_events"]), Unit: "count"}
	m["server.client_wait_lag_s"] = p50("daemon.client_wait_lag_s", "s")
	requests := 0
	for name, xs := range s {
		if strings.HasPrefix(name, "http ") {
			requests += len(xs)
		}
	}
	m["server.http_requests"] = metric{Value: float64(requests), Unit: "count"}
	m["server.lease_acquire_ms_p50"] = p50("http POST /api/v1/leases", "ms")
	m["server.lease_acquire_ms_p90"] = p90("http POST /api/v1/leases")
	empty := 0.0
	for _, x := range s["lease.empty"] {
		empty += x
	}
	m["server.empty_lease_ratio"] = metric{Value: ratio(empty, float64(len(s["lease.empty"]))), Unit: "ratio", N: len(s["lease.empty"])}
	m["server.results_push_ms_p50"] = p50("http POST /api/v1/leases/{id}/results", "ms")
	m["server.results_push_ms_p90"] = p90("http POST /api/v1/leases/{id}/results")
}

// replay writes the results through a fresh campaign journal and a fresh
// result store, one timed call per result.
func replay(tr *tracer, w *workload, results []*sim.Result, dir string, m map[string]metric) error {
	path := filepath.Join(dir, "replay"+campaign.JournalExt)
	j, err := campaign.Create(path, w.scale)
	if err != nil {
		return err
	}
	store, err := server.NewStore(filepath.Join(dir, "replay-store"))
	if err != nil {
		return err
	}
	var appends, puts []float64
	for i, r := range results {
		key := w.specs[i].Key()
		start := time.Now()
		if err := j.Append(key, r); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		mid := time.Now()
		if err := store.Put(key, r); err != nil {
			return fmt.Errorf("store put: %w", err)
		}
		end := time.Now()
		appends = append(appends, float64(mid.Sub(start).Nanoseconds())/1e6)
		puts = append(puts, float64(end.Sub(mid).Nanoseconds())/1e6)
		tr.add("Journal.Append", 0, -1, start, mid)
		tr.add("Store.Put", 0, -1, mid, end)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["campaign.append_ms_p50"] = metric{Value: median(appends), Unit: "ms", N: len(appends)}
	m["campaign.append_ms_p90"] = metric{Value: percentile(appends, 90), Unit: "ms", N: len(appends)}
	m["campaign.append_ms_last"] = metric{Value: appends[len(appends)-1], Unit: "ms"}
	m["campaign.journal_bytes"] = metric{Value: float64(fi.Size()), Unit: "bytes"}
	m["server.store_put_ms_p50"] = metric{Value: median(puts), Unit: "ms", N: len(puts)}
	m["server.store_put_ms_p90"] = metric{Value: percentile(puts, 90), Unit: "ms", N: len(puts)}
	return nil
}
