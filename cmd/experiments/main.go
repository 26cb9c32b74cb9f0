// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run Fig8L1DSpeedup[,Fig9PerTrace,...]
//	experiments -all
//	experiments -all -j 8 -corpus-dir ~/.cache/berti-traces
//	experiments -all -journal campaign.journal -json-out results.json
//	experiments -all -journal campaign.journal -resume
//	experiments -all -server http://127.0.0.1:9090
//	BERTI_SCALE=quick experiments -all
//
// A campaign is one batch: the selected experiments' specs are planned up
// front, executed together on one worker pool, and only then rendered.
// -server switches to thin-client mode: the batch runs as one campaign on
// a bertid daemon (deduped there against every other client) while the
// journal, reports, metrics, and exit codes stay local; a daemon at a
// different BERTI_SCALE is a usage error. -max-failures bounds the
// failures logged verbatim; the overflow is reported as suppressed but
// still counts toward the exit code and the failed-run metric.
//
// -corpus-dir enables the content-addressed trace corpus: generated
// workload traces are persisted there as v2 containers and simulations
// stream them from disk with bounded memory instead of regenerating and
// holding every trace in RAM. -j (alias -workers) bounds concurrent
// simulations. -run-timeout bounds each individual run's wall clock (a
// runaway simulation surfaces as a DeadlineError naming its spec instead
// of wedging the campaign).
//
// Crash safety: -journal records every completed run (append-only,
// CRC-protected, atomically written) the moment it finishes; -resume loads
// the journal and skips finished work, so a campaign interrupted at hour N
// re-executes only what is missing. The first SIGINT/SIGTERM cancels the
// campaign cooperatively — in-flight runs drain, the journal is flushed,
// and a partial report is printed with a resume hint; a second signal
// exits immediately. -json-out writes a deterministic machine-readable
// report of every completed run (sorted by run key), byte-identical
// between an uninterrupted campaign and an interrupted-then-resumed one.
//
// Exit codes: 0 success; 1 one or more runs failed (reports may be
// partial); 2 usage error; 130 interrupted by signal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/server"
	"github.com/bertisim/berti/internal/sim"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	runIDs := flag.String("run", "", "comma-separated experiment IDs to run")
	all := flag.Bool("all", false, "run every experiment")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = NumCPU)")
	flag.IntVar(workers, "j", 0, "alias for -workers")
	corpusDir := flag.String("corpus-dir", "", "cache generated traces here (v2 containers) and stream them from disk")
	checkFlag := flag.Bool("check", false, "run the invariant checker on every simulation")
	schedFlag := flag.String("sched", "horizon", "engine scheduler: horizon (event-horizon skipping) or ticked (exhaustive per-cycle reference)")
	journalPath := flag.String("journal", "", "journal completed runs to this file (crash-safe campaign log)")
	resume := flag.Bool("resume", false, "load the -journal and skip already-completed runs")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock budget (0 = 10m default, negative disables)")
	jsonOut := flag.String("json-out", "", "write a deterministic JSON report of every completed run to this file")
	provFlag := flag.Bool("provenance", false, "track per-prefetch lifecycle provenance on every run")
	provOut := flag.String("provenance-out", "", "write the cross-workload attribution roll-up to this file (.json = JSON, else CSV); implies -provenance")
	provCap := flag.Int("provenance-cap", 0, "per-run provenance record-pool capacity (0 = default 65536)")
	metricsAddr := flag.String("metrics-addr", "", "serve live campaign metrics (run counters, merged attribution, expvar) on this address")
	serverURL := flag.String("server", "", "thin-client mode: run every simulation on the bertid daemon at this URL; journaling, reports, and metrics stay local")
	maxFailures := flag.Int("max-failures", 0, "failures recorded verbatim (0 = default 64, negative = unbounded); overflow is suppressed from the log but still counts toward metrics and the exit code")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-24s %-14s %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}

	var selected []harness.Experiment
	switch {
	case *all:
		selected = harness.Experiments()
	case *runIDs != "":
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := harness.ExperimentByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -journal")
		os.Exit(2)
	}

	h := harness.New(harness.ScaleFromEnv())
	if *workers > 0 {
		h.Workers = *workers
	}
	h.CorpusDir = *corpusDir
	h.EnableChecks = *checkFlag
	h.RunTimeout = *runTimeout
	h.EnableProvenance = *provFlag || *provOut != ""
	h.ProvenanceCap = *provCap
	h.MaxFailures = *maxFailures
	sched, err := sim.ParseScheduler(*schedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	h.Scheduler = sched
	// Thin-client mode: the daemon executes (and dedupes) every run; the
	// local harness keeps its memo cache, journal, metrics, and reports, so
	// everything downstream is oblivious to where the cycles were spent.
	// Execution knobs (-check, -sched, -corpus-dir, provenance) belong to
	// the daemon in this mode.
	var daemon *server.Client
	if *serverURL != "" {
		daemon = server.NewClient(*serverURL)
		fmt.Fprintf(os.Stderr, "experiments: running on daemon %s\n", *serverURL)
	}

	// The crash-safe campaign log: every completed run is journaled as it
	// finishes; -resume seeds the memo cache so finished work is skipped.
	var journal *campaign.Journal
	if *journalPath != "" {
		if *resume {
			journal, err = campaign.OpenOrCreate(*journalPath, h.Scale)
		} else {
			journal, err = campaign.Create(*journalPath, h.Scale)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		journal.Attach(h)
		if *resume {
			if d := journal.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "experiments: journal had %d damaged tail record(s); truncated, those runs re-execute\n", d)
			}
			if n := journal.Seed(h); n > 0 {
				fmt.Fprintf(os.Stderr, "experiments: resume: %d completed run(s) loaded from %s\n", n, *journalPath)
			}
		}
	}

	// The attribution roll-up chains onto the journal's OnResult hook
	// (journaling keeps firing), merging every run's provenance report.
	var rollup *harness.ProvenanceRollup
	if h.EnableProvenance {
		rollup = harness.NewProvenanceRollup()
		rollup.Attach(h)
	}
	var metrics *live.Server
	if *metricsAddr != "" {
		metrics, err = live.New(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		defer metrics.Close()
		fmt.Fprintf(os.Stderr, "experiments: metrics: http://%s/metrics\n", metrics.Addr())
		prev := h.OnResult
		h.OnResult = func(key string, spec harness.RunSpec, r *sim.Result) {
			if prev != nil {
				prev(key, spec, r)
			}
			metrics.RunCompleted()
		}
		if rollup != nil {
			metrics.SetAttribution(func() any { return rollup.Report() })
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the campaign
	// context — in-flight simulations stop at the engine's next poll
	// stride, the worker pool drains, and the journal keeps everything
	// that finished. A second signal exits immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "\nexperiments: %v: cancelling campaign; in-flight runs are draining (send again to exit immediately)\n", s)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "experiments: second signal: exiting immediately")
		os.Exit(130)
	}()

	fmt.Printf("scale=%s (%d mem records, %d warmup, %d measured instructions)\n\n",
		h.Scale.Name, h.Scale.MemRecords, h.Scale.WarmupInstr, h.Scale.SimInstr)
	specs := harness.Plan(h.Scale, selected)
	memo := 0
	for _, spec := range specs {
		if _, ok := h.ResultFor(spec.Key()); ok {
			memo++
		}
	}
	start := time.Now()
	if daemon != nil {
		err = daemon.Batch(ctx, h, specs)
	} else {
		_, err = h.RunManyContext(ctx, specs)
	}
	took := time.Since(start)
	fmt.Printf("[batch: %d specs, %d from memo/journal, took %s, %.0f specs/h]\n\n",
		len(specs), memo, took.Round(time.Millisecond), float64(len(specs)-memo)/took.Hours())
	var mismatch *server.ScaleMismatchError
	switch {
	case errors.As(err, &mismatch):
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	case daemon != nil && err != nil && !sim.IsCancel(err):
		fmt.Fprintln(os.Stderr, "experiments: daemon:", err)
		os.Exit(1)
	}
	// Placeholder rows of an interrupted batch would pass for results, so
	// only a finished batch renders; failed runs render as placeholders and
	// are reported below.
	interrupted := ctx.Err() != nil
	if !interrupted {
		runs := h.Runs(ctx)
		for _, e := range selected {
			fmt.Printf("--- %s (%s) ---\n", e.ID, e.Paper)
			e.Render(runs, os.Stdout)
			fmt.Println()
		}
		interrupted = ctx.Err() != nil
	}
	failed := noteFailures(h, metrics)

	if journal != nil {
		if err := journal.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: journal writes failed (campaign is NOT resumable): %v\n", err)
			failed++
		}
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, h, interrupted); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing -json-out:", err)
			os.Exit(1)
		}
	}
	if rollup != nil && *provOut != "" {
		// Written even when interrupted: a partial campaign's attribution is
		// still attribution for the runs that finished.
		if err := writeRollup(*provOut, rollup); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing -provenance-out:", err)
			os.Exit(1)
		}
	}
	if interrupted {
		fmt.Println("*** PARTIAL REPORT: campaign interrupted before completion ***")
		if journal != nil {
			fmt.Printf("*** %d completed run(s) are journaled; resume with: experiments -journal %s -resume ***\n",
				journal.Len(), *journalPath)
		} else {
			fmt.Println("*** no journal was active; rerun with -journal FILE to make campaigns resumable ***")
		}
		os.Exit(130)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d run(s) failed; reports above may be partial\n", failed)
		os.Exit(1)
	}
}

// noteFailures reports the batch's run failures and returns how many
// count toward the exit code, bumping the live failed-run metric for each.
// Failures are capped by the harness (-max-failures); the overflow is
// suppressed only from the verbatim log — every suppressed failure still
// counts toward the returned total and the failed-run metric, so a
// campaign whose failure set blew past the cap can never masquerade as
// clean in either the exit code or /metrics.
func noteFailures(h *harness.Harness, metrics *live.Server) int {
	failed := 0
	for _, f := range h.Failures() {
		failed++
		var dle *sim.DeadlineError
		if errors.As(f, &dle) {
			fmt.Fprintf(os.Stderr, "experiments: run-timeout %v exceeded by spec %s (cycle %d; raise -run-timeout or lower BERTI_SCALE)\n",
				dle.Limit, f.Spec.Key(), dle.Snapshot.Cycle)
			continue
		}
		fmt.Fprintf(os.Stderr, "experiments: run failed: %v\n", f)
	}
	if n := h.SuppressedFailures(); n > 0 {
		failed += n
		cap := h.MaxFailures
		if cap == 0 {
			cap = harness.DefaultMaxFailures
		}
		fmt.Fprintf(os.Stderr, "experiments: ... and %d more failure(s) suppressed (cap %d)\n", n, cap)
	}
	if metrics != nil {
		for i := 0; i < failed; i++ {
			metrics.RunFailed()
		}
	}
	return failed
}

// writeReport emits the deterministic campaign report (a server.Report
// with no ID): every memoized completed run sorted by key. An interrupted
// campaign is marked partial; a completed one (resumed or not) produces
// byte-identical output for the same scale and run set.
func writeReport(path string, h *harness.Harness, partial bool) error {
	results := h.Results()
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	rep := server.Report{
		SchemaVersion: server.ReportSchemaVersion,
		Scale:         h.Scale,
		Partial:       partial,
		Runs:          server.SortedRuns(h, keys),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeRollup persists the cross-workload attribution roll-up (.json = the
// full roll-up document, anything else = the merged attribution CSV).
func writeRollup(path string, rollup *harness.ProvenanceRollup) error {
	rep := rollup.Report()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = rep.WriteJSON(f)
	} else {
		err = rep.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "experiments: wrote attribution roll-up (%d run(s), %d workload(s)) to %s\n",
			rep.Runs, len(rep.Workloads), path)
	}
	return err
}
