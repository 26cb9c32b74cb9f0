// Command bertisim runs one workload through the simulator with a chosen
// prefetcher configuration and prints the full statistics report.
//
// Usage:
//
//	bertisim -workload mcf_like_1554 -l1d berti
//	bertisim -workload bfs-kron -l1d ipcp -l2 spp-ppf -records 500000
//	bertisim -workload mcf_like_1554 -l1d berti -warmup 500000 -simulate 2000000
//	bertisim -trace big.btr2 -skip 10000000 -l1d berti
//	bertisim -workload mcf_like_1554 -l1d berti -interval 100000 \
//	    -timeseries-out ts.csv -trace-out trace.json
//	bertisim -list
//
// Both sources run as one harness.RunSpec through the same machine builder:
// a -trace file takes -dram, -check, -fault-plan, -provenance and the
// windows exactly as a generated -workload does.
//
// Windows: -warmup and -simulate override the scale's ChampSim-style
// warmup/measurement instruction windows. -skip N fast-forwards a -trace
// run N instructions before the windows begin, seeking through the v2
// container's chunk index without decompressing the skipped region.
//
// Observability: -interval N samples all counters every N retired
// instructions into a per-interval time series (written to
// -timeseries-out as CSV or JSON by extension, and embedded in the -json
// report); -trace-out records structured events (demand misses, prefetch
// issue/fill/use/evict, MSHR stalls, TLB walks) into a bounded ring buffer
// and writes Chrome trace_event JSON loadable in chrome://tracing or
// Perfetto; -pprof serves net/http/pprof for profiling the simulator
// itself. Simulation throughput (kinstr/s) is reported on stderr. Output
// files are written to a temp file and renamed into place, so a failed or
// interrupted run leaves no torn file.
//
// Scheduler: -sched ticked runs the spec, a -trace file included, on the
// per-cycle reference loop instead of the event-horizon scheduler; both
// print the same report. No other command takes -sched.
//
// Robustness: -check runs the invariant checker (MSHR leaks, queue bounds,
// duplicate tags, ROB/TLB consistency) alongside the simulation;
// -fault-plan kind[:key=value,...] injects deterministic faults (see
// internal/fault) to exercise the checker and the error paths; the
// trace-level kinds (corrupt-record, truncate) damage a -trace file's
// container bytes and fail the run with a *tracestore.FormatError.
//
// Exit codes: 0 success; 1 runtime failure (I/O, stall, corrupt trace);
// 2 usage error (unknown workload/prefetcher, bad flags, bad fault plan,
// a -skip without -trace or past the trace's end, the oracle on a -trace);
// 3 invariant violations detected; 130 interrupted by SIGINT/SIGTERM (the
// first signal cancels the run cooperatively, a second exits immediately).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/cli"
	"github.com/bertisim/berti/internal/energy"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/workloads"
)

// Exit codes (see package comment).
const (
	exitOK          = 0
	exitRunFailed   = 1
	exitUsage       = 2
	exitViolations  = 3
	exitInterrupted = 130
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bertisim: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the spec and its IP-stride
// baseline, writes the report to stdout and diagnostics to stderr, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bertisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "mcf_like_1554", "workload name")
	traceFile := fs.String("trace", "", "run a trace file (from tracegen) instead of a generated workload")
	l1d := fs.String("l1d", "berti", "L1D prefetcher (empty = none)")
	l2 := fs.String("l2", "", "L2 prefetcher (empty = none)")
	dramCfg := fs.String("dram", "", "DRAM config: ddr5-6400 (default), ddr4-3200, ddr3-1600")
	records := fs.Int("records", 0, "memory records to generate (0 = scale default)")
	warmup := fs.Int64("warmup", -1, "warmup instructions before measurement (-1 = scale default)")
	simulate := fs.Int64("simulate", -1, "measured instructions after warmup (-1 = scale default)")
	skip := fs.Uint64("skip", 0, "instructions to fast-forward a -trace run before the windows start")
	list := fs.Bool("list", false, "list workloads and prefetchers, then exit")
	jsonOut := fs.Bool("json", false, "emit the report as JSON (machine-readable)")
	interval := fs.Uint64("interval", 0, "sample counters every N retired instructions (0 = sampling off)")
	tsOut := fs.String("timeseries-out", "", "write the sampled time series to this file (.json = JSON, else CSV)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON of structured events to this file")
	traceBuf := fs.Int("trace-buf", 1<<16, "event-trace ring-buffer capacity (oldest events overwritten)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	provOut := fs.String("provenance-out", "", "write the per-prefetch provenance attribution report to this file (.json = JSON, else CSV); implies -provenance")
	provFlag := fs.Bool("provenance", false, "track per-prefetch lifecycle provenance (attribution embedded in the -json report)")
	provCap := fs.Int("provenance-cap", 0, "provenance record-pool capacity (0 = default 65536); overflowing prefetches go untracked and are counted")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics (JSON snapshot + expvar) on this address, e.g. localhost:8090")
	checkFlag := fs.Bool("check", false, "run the invariant checker alongside the simulation")
	faultSpec := fs.String("fault-plan", "", "inject deterministic faults: kind[:key=value,...] (kinds: corrupt-record, truncate, drop-fill, delay-fill, dup-line, pq-orphan)")
	schedFlag := fs.String("sched", "horizon", "engine scheduler: horizon (event-horizon skipping) or ticked (exhaustive per-cycle reference)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "bertisim:", err)
		return code
	}
	sched, err := sim.ParseScheduler(*schedFlag)
	if err != nil {
		return fail(exitUsage, err)
	}

	var faultPlan *fault.Plan
	if *faultSpec != "" {
		faultPlan, err = fault.Parse(*faultSpec)
		if err != nil {
			return fail(exitUsage, err)
		}
	}
	// A fault plan without -check would inject damage nothing looks for;
	// checking is what makes the injection observable.
	runChecked := *checkFlag || faultPlan != nil

	if *list {
		printList(stdout)
		return exitOK
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "pprof server:", err)
			}
		}()
		fmt.Fprintf(stderr, "pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}

	// A live metrics endpoint needs sampler rows to serve; sampling and
	// writing a time series each imply a sane default interval.
	if (*tsOut != "" || *metricsAddr != "") && *interval == 0 {
		*interval = 100_000
	}
	if *traceOut != "" && *traceBuf <= 0 {
		return fail(exitUsage, errors.New("-trace-buf must be > 0"))
	}
	// Fail on unwritable output paths now, not after a long simulation.
	for _, path := range []string{*tsOut, *traceOut, *provOut} {
		if path == "" {
			continue
		}
		if err := campaign.WriteFileAtomic(path, func(io.Writer) error { return nil }); err != nil {
			return fail(exitRunFailed, err)
		}
	}
	var observer *obs.Observer
	if *interval > 0 || *traceOut != "" {
		observer = &obs.Observer{}
		if *interval > 0 {
			observer.Sampler = obs.NewSampler(*interval)
		}
		if *traceOut != "" {
			observer.Tracer = obs.NewTracer(*traceBuf)
		}
	}

	var tracker *provenance.Tracker
	if *provFlag || *provOut != "" {
		tracker = provenance.NewTracker(*provCap)
	}
	var metrics *live.Server
	if *metricsAddr != "" {
		metrics, err = live.New(*metricsAddr)
		if err != nil {
			return fail(exitUsage, err)
		}
		defer metrics.Close()
		fmt.Fprintf(stderr, "metrics: http://%s/metrics\n", metrics.Addr())
		if observer != nil && observer.Sampler != nil {
			observer.Sampler.OnRow = metrics.RecordRow
		}
	}

	scale := harness.ScaleFromEnv()
	if *records > 0 {
		scale.MemRecords = *records
	}
	if *warmup >= 0 {
		scale.WarmupInstr = uint64(*warmup)
	}
	if *simulate == 0 {
		return fail(exitUsage, errors.New("-simulate must be > 0"))
	}
	if *simulate > 0 {
		scale.SimInstr = uint64(*simulate)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the run at the
	// engine's next poll stride; a second signal exits immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := cli.OnInterrupt(func(sig os.Signal) {
		fmt.Fprintf(stderr, "\nbertisim: %v: cancelling run (send again to exit immediately)\n", sig)
		cancel()
	})
	defer stop()

	h := harness.New(scale)
	h.Scheduler = sched

	var checker *check.Checker
	if runChecked {
		checker = check.New()
	}

	spec := harness.RunSpec{Workload: *workload, L1DPf: *l1d, L2Pf: *l2, DRAMCfg: *dramCfg, Skip: *skip}
	if *traceFile != "" {
		spec.Workload, spec.TraceFile = "", *traceFile
		*workload = *traceFile
	}
	opts := sim.Options{Observer: observer, Checker: checker, Fault: faultPlan, Provenance: tracker}
	var res *sim.Result
	start := time.Now()
	if opts == (sim.Options{}) {
		res, err = h.RunContext(ctx, spec)
	} else {
		res, err = h.RunWithContext(ctx, spec, opts)
	}
	elapsed := time.Since(start)
	if err != nil {
		if metrics != nil {
			metrics.RunFailed()
		}
		return exitForError(stderr, err, checker)
	}
	baseSpec := spec
	baseSpec.L1DPf, baseSpec.L2Pf = "ip-stride", ""
	base, baseErr := h.RunContext(ctx, baseSpec)
	if metrics != nil {
		metrics.RunCompleted()
		if p := res.Provenance; p != nil {
			metrics.SetAttribution(func() any { return p })
		}
	}
	if baseErr != nil {
		if sim.IsCancel(baseErr) {
			fmt.Fprintln(stderr, "bertisim: run interrupted during the baseline; no report was produced")
			return exitInterrupted
		}
		return fail(exitRunFailed, fmt.Errorf("baseline run failed: %w", baseErr))
	}
	if checker != nil {
		// A checked run that produced violations returns them as an error
		// above, so reaching here means every invariant held.
		fmt.Fprintln(stderr, "check: all invariants held")
	}

	kinstr := float64(res.Config.SimInstructions+res.Config.WarmupInstructions) / 1000
	fmt.Fprintf(stderr, "sim throughput: %.0f kinstr/s (%.2fs wall, %d measured cycles)\n",
		kinstr/elapsed.Seconds(), elapsed.Seconds(), res.Cycles)
	if err := writeObservability(stderr, observer, res, *tsOut, *traceOut); err != nil {
		return fail(exitRunFailed, err)
	}
	if err := writeProvenance(stderr, res.Provenance, *provOut); err != nil {
		return fail(exitRunFailed, err)
	}

	if *jsonOut {
		if err := emitJSON(stdout, *workload, *l1d, *l2, res, base); err != nil {
			return fail(exitRunFailed, err)
		}
		return exitOK
	}
	printReport(stdout, *workload, *l1d, *l2, res, base)
	return exitOK
}

// printList renders the workload and prefetcher registries.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads.All() {
		memInt := ""
		if wl.MemIntensive {
			memInt = " [MemInt]"
		}
		fmt.Fprintf(w, "  %-24s %s%s\n", wl.Name, wl.Suite, memInt)
	}
	fmt.Fprintln(w, "prefetchers:")
	for _, e := range prefetch.All() {
		level := "L1D"
		if e.Level == prefetch.AtL2 {
			level = "L2 "
		}
		fmt.Fprintf(w, "  %-12s %s  %s\n", e.Name, level, e.Comment)
	}
}

// printReport renders the human-readable report of one run against its
// IP-stride baseline.
func printReport(w io.Writer, workload, l1d, l2 string, res, base *sim.Result) {
	instr := res.Config.SimInstructions
	c := &res.Cores[0]
	fmt.Fprintf(w, "workload: %s  l1d=%q l2=%q\n", workload, l1d, l2)
	fmt.Fprintf(w, "IPC            %.4f  (IP-stride baseline %.4f, speedup %.3fx)\n",
		res.IPC(), base.IPC(), harness.SpeedupOver(res, base))
	fmt.Fprintf(w, "L1D  accesses=%d hits=%d misses=%d MPKI=%.1f avgFillLat=%.0f cyc\n",
		c.L1D.DemandAccesses, c.L1D.DemandHits, c.L1D.DemandMisses,
		c.L1D.MPKI(instr), c.L1D.AvgFillLatency())
	fmt.Fprintf(w, "     prefetch: issued=%d fills=%d useful=%d late=%d useless=%d dropped=%d\n",
		c.L1D.PrefIssued, c.L1D.PrefFills, c.L1D.PrefUseful, c.L1D.PrefLate,
		c.L1D.PrefUseless, c.L1D.PrefDropped)
	fmt.Fprintf(w, "     accuracy=%.3f timelyFraction=%.3f\n", c.L1D.Accuracy(), c.L1D.TimelyFraction())
	fmt.Fprintf(w, "L2   accesses=%d misses=%d MPKI=%.1f pfFills=%d pfUseful=%d\n",
		c.L2.DemandAccesses, c.L2.DemandMisses, c.L2.MPKI(instr), c.L2.PrefFills, c.L2.PrefUseful)
	fmt.Fprintf(w, "LLC  accesses=%d misses=%d MPKI=%.1f\n",
		res.LLC.DemandAccesses, res.LLC.DemandMisses, res.LLC.MPKI(instr))
	fmt.Fprintf(w, "DRAM reads=%d writes=%d rowHit=%d rowMiss=%d rowConf=%d busBusy=%.2f\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHits, res.DRAM.RowMisses,
		res.DRAM.RowConflicts, float64(res.DRAM.BusyCycles)/float64(res.Cycles))
	tr := res.Traffic()
	l2t, llct, drt := tr.Total()
	fmt.Fprintf(w, "traffic lines: L1D<->L2=%d L2<->LLC=%d LLC<->DRAM=%d\n", l2t, llct, drt)
	e := energy.Compute(energy.Default22nm(), res)
	fmt.Fprintf(w, "dynamic energy (uJ): L1D=%.1f L2=%.1f LLC=%.1f DRAM=%.1f total=%.1f\n",
		e.L1D/1e6, e.L2/1e6, e.LLC/1e6, e.DRAM/1e6, e.Total()/1e6)
	fmt.Fprintf(w, "TLB  dTLBmiss=%d STLBmiss=%d walks=%d pfDropTLB=%d\n",
		c.TLB.DTLBMisses, c.TLB.STLBMisses, c.TLB.PageWalks, c.TLB.PrefDropTLB)
	if ts := res.TimeSeries; ts != nil && len(ts.Rows) > 0 {
		last := &ts.Rows[len(ts.Rows)-1]
		fmt.Fprintf(w, "timeseries: %d intervals of %d instr (last: ipc=%.3f acc=%.3f)\n",
			len(ts.Rows), ts.IntervalInstr, last.IPC, last.PfAccuracy)
	}
	printProvenance(w, res.Provenance)
}

// printProvenance renders the human-readable attribution summary: per-level
// outcome totals with mean slack, then the heaviest trigger PCs and deltas
// with Berti's claimed confidence next to the measured timely rate.
func printProvenance(w io.Writer, p *provenance.Report) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "provenance: pool=%d overflow=%d live_at_end=%d\n",
		p.Capacity, p.Overflow, p.LiveAtEnd)
	for i := range p.Levels {
		l := &p.Levels[i]
		fmt.Fprintf(w, "  %-4s issued=%d spawned=%d fills=%d timely=%d late=%d useless=%d dropped=%d avgSlack=%.0f avgFillLat=%.0f\n",
			l.Level, l.Issued, l.Spawned, l.Fills, l.Timely, l.Late, l.Useless,
			l.Dropped, l.Slack.Mean(), l.FillLatency.Mean())
	}
	printRows := func(kind string, rows []provenance.Row) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "  top %s (issued / claimed conf -> timely rate, avg slack):\n", kind)
		for i := range rows {
			r := &rows[i]
			fmt.Fprintf(w, "    %-18s issued=%-8d conf=%3.0f%% -> timely=%.2f slack=%.0f\n",
				r.Key, r.Issued, r.AvgConf, r.TimelyRate, r.AvgSlack)
		}
	}
	printRows("trigger PCs", p.TopPCs(5))
	printRows("deltas", p.TopDeltas(5))
}

// encodeJSON writes v as indented JSON.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeProvenance persists the attribution report (.json = JSON document,
// anything else = attribution CSV).
func writeProvenance(stderr io.Writer, p *provenance.Report, path string) error {
	if path == "" || p == nil {
		return nil
	}
	err := campaign.WriteFileAtomic(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return encodeJSON(w, p)
		}
		return p.WriteCSV(w)
	})
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	fmt.Fprintf(stderr, "provenance: wrote attribution (%d PCs, %d deltas) to %s\n",
		len(p.PCs), len(p.Deltas), path)
	return nil
}

// exitForError reports a failed run and returns the exit code matching the
// error class: a spec the harness refused is a usage error, and invariant
// violations get their own code (and a listing of the recorded violations)
// so scripts can distinguish "the simulator broke" from "the simulator
// caught breakage".
func exitForError(stderr io.Writer, err error, checker *check.Checker) int {
	if sim.IsCancel(err) {
		fmt.Fprintln(stderr, "bertisim: run interrupted before completion; no report was produced")
		return exitInterrupted
	}
	var se *harness.SpecError
	if errors.As(err, &se) {
		hint := ""
		if se.Err == nil {
			hint = " (use -list)"
		}
		fmt.Fprintf(stderr, "bertisim: %v%s\n", se, hint)
		return exitUsage
	}
	var ve *check.ViolationError
	if errors.As(err, &ve) {
		fmt.Fprintf(stderr, "bertisim: %d invariant violation(s) detected\n", ve.Total)
		for _, v := range ve.Violations {
			fmt.Fprintln(stderr, "  ", v.String())
		}
		if ve.Total > len(ve.Violations) {
			fmt.Fprintf(stderr, "   ... and %d more (raise check.Checker.MaxRecorded to keep them)\n",
				ve.Total-len(ve.Violations))
		}
		return exitViolations
	}
	fmt.Fprintln(stderr, "bertisim: run failed:", err)
	if checker != nil && checker.Total() > 0 {
		fmt.Fprintf(stderr, "bertisim: %d invariant violation(s) were also recorded before the failure\n",
			checker.Total())
	}
	return exitRunFailed
}

// writeObservability persists the sampled time series and the event trace.
func writeObservability(stderr io.Writer, o *obs.Observer, res *sim.Result, tsOut, traceOut string) error {
	if ts := res.TimeSeries; tsOut != "" && ts != nil {
		err := campaign.WriteFileAtomic(tsOut, func(w io.Writer) error {
			if strings.HasSuffix(tsOut, ".json") {
				return encodeJSON(w, ts)
			}
			return ts.WriteCSV(w)
		})
		if err != nil {
			return fmt.Errorf("timeseries: %w", err)
		}
		fmt.Fprintf(stderr, "timeseries: wrote %d intervals to %s\n", len(ts.Rows), tsOut)
	}
	if o == nil || o.Tracer == nil || traceOut == "" {
		return nil
	}
	if err := campaign.WriteFileAtomic(traceOut, o.Tracer.WriteChromeTrace); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(stderr, "trace: wrote %d events to %s (%d emitted, %d dropped by ring)\n",
		len(o.Tracer.Events()), traceOut, o.Tracer.Total(), o.Tracer.Dropped())
	return nil
}

// jsonReport is the machine-readable output of one run. SchemaVersion
// (obs.SchemaVersion) governs both this shape and the embedded time series.
type jsonReport struct {
	SchemaVersion int             `json:"schema_version"`
	Workload      string          `json:"workload"`
	L1DPf         string          `json:"l1d_prefetcher"`
	L2Pf          string          `json:"l2_prefetcher"`
	IPC           float64         `json:"ipc"`
	Baseline      float64         `json:"baseline_ipc"`
	Speedup       float64         `json:"speedup"`
	L1DMPKI       float64         `json:"l1d_mpki"`
	L2MPKI        float64         `json:"l2_mpki"`
	LLCMPKI       float64         `json:"llc_mpki"`
	Accuracy      float64         `json:"l1d_prefetch_accuracy"`
	Timely        float64         `json:"timely_fraction"`
	DRAMRead      uint64          `json:"dram_reads"`
	DRAMWrit      uint64          `json:"dram_writes"`
	EnergyPJ      float64         `json:"dynamic_energy_pj"`
	TimeSeries    *obs.TimeSeries `json:"time_series,omitempty"`
	Provenance    *jsonProvenance `json:"provenance,omitempty"`
}

// jsonTopN bounds the attribution rows embedded in the -json report (the
// full tables go to -provenance-out).
const jsonTopN = 10

// jsonProvenance is the -json report's condensed attribution view:
// per-level outcome stats plus the top-N trigger PCs and deltas.
type jsonProvenance struct {
	SchemaVersion int                     `json:"schema_version"`
	Capacity      int                     `json:"capacity"`
	Overflow      uint64                  `json:"overflow"`
	LiveAtEnd     uint64                  `json:"live_at_end"`
	Levels        []provenance.LevelStats `json:"levels"`
	TopPCs        []provenance.Row        `json:"top_pcs"`
	TopDeltas     []provenance.Row        `json:"top_deltas"`
	Calibration   []provenance.CalBand    `json:"calibration"`
}

// emitJSON writes the machine-readable report.
func emitJSON(w io.Writer, workload, l1d, l2 string, res, base *sim.Result) error {
	instr := res.Config.SimInstructions
	c := &res.Cores[0]
	rep := jsonReport{
		SchemaVersion: obs.SchemaVersion,
		Workload:      workload,
		L1DPf:         l1d,
		L2Pf:          l2,
		IPC:           res.IPC(),
		Baseline:      base.IPC(),
		Speedup:       harness.SpeedupOver(res, base),
		L1DMPKI:       c.L1D.MPKI(instr),
		L2MPKI:        c.L2.MPKI(instr),
		LLCMPKI:       res.LLC.MPKI(instr),
		Accuracy:      c.L1D.Accuracy(),
		Timely:        c.L1D.TimelyFraction(),
		DRAMRead:      res.DRAM.Reads,
		DRAMWrit:      res.DRAM.Writes,
		EnergyPJ:      energy.Compute(energy.Default22nm(), res).Total(),
		TimeSeries:    res.TimeSeries,
	}
	if p := res.Provenance; p != nil {
		rep.Provenance = &jsonProvenance{
			SchemaVersion: p.SchemaVersion,
			Capacity:      p.Capacity,
			Overflow:      p.Overflow,
			LiveAtEnd:     p.LiveAtEnd,
			Levels:        p.Levels,
			TopPCs:        p.TopPCs(jsonTopN),
			TopDeltas:     p.TopDeltas(jsonTopN),
			Calibration:   p.Calibration,
		}
	}
	return encodeJSON(w, rep)
}
