// Command bench is the repository benchmark. It runs one workload (or,
// without -workload, every workload in its own child process), prints each
// metric as `workload metric value unit n=samples`, checks that every
// output agrees with every other way of computing it, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//	bash bench/run.sh --workload sim-mem --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -seed 1 -out base.json              # every workload
//	bash bench/run.sh -workload campaign-fleet -trace 1   # per-layer metrics
//	bash bench/run.sh compare base1.json new1.json ...    # paired runs
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the traced pass
// instead, reports the per-layer metrics and writes a Chrome trace_event
// file to <workdir>/spans-<workload>.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runLimit bounds one workload run; a hang fails the run instead of
// outliving the caller's deadline.
const runLimit = 170 * time.Second

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: every workload, each in its own child process)")
	seed := flag.Int64("seed", 1, "workload seed: RunSpec.Seed, so traces are generated with GenConfig.Seed = 42+seed")
	seconds := flag.Int("seconds", 10, "timed seconds per workload (at least 3 reps)")
	traced := flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a Chrome trace instead of end-to-end metrics")
	out := flag.String("out", "", "also write the run's results to this JSON file (the input of compare)")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory; span files are written here too")
	flag.Parse()
	runtime.GOMAXPROCS(benchWorkers)

	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:], os.Stdout, os.Stderr))
	}
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	rf := &runFile{Seed: *seed, Seconds: *seconds, Traced: *traced == 1, Workloads: map[string]*outcome{}}
	var err error
	if *workloadName == "" {
		err = runAll(rf, *workdir)
	} else if w := findWorkload(benchWorkloads(rf.Seed), *workloadName); w == nil {
		err = fmt.Errorf("unknown workload %q", *workloadName)
	} else {
		watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
			fmt.Fprintln(os.Stderr, "bench: run exceeded its time limit")
			os.Exit(3)
		})
		err = runOne(rf, w, *workdir, os.Stdout)
		watchdog.Stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if *out != "" {
		if werr := writeRunFile(*out, rf); werr != nil {
			fmt.Fprintln(os.Stderr, "bench:", werr)
			err = errors.Join(err, werr)
		}
	}
	if len(rf.Workloads) == 0 {
		os.Exit(1) // nothing measured: no result line
	}
	if !summarize(rf, os.Stdout) || err != nil {
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its metrics.
func runOne(rf *runFile, w *workload, workdir string, stdout io.Writer) error {
	rf.Host = fingerprint()
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s revision=%s calib_score=%.4g\n",
		rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Host.Revision, rf.Host.CalibScore)

	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	o := &outcome{Workload: w.name, Metrics: map[string]metric{}}
	ck := &checks{}
	cfg := runConfig{seconds: time.Duration(rf.Seconds) * time.Second, dir: dir}
	var err error
	if rf.Traced {
		var tr *tracer
		tr, err = measureTraced(ctx, w, cfg, o, ck)
		o.Metrics["bench.calib_score"] = metric{Value: rf.Host.CalibScore, Unit: "iter/s"}
		spans := filepath.Join(workdir, "spans-"+w.name+".json")
		if werr := tr.writeChrome(spans); werr != nil {
			err = errors.Join(err, werr)
		} else {
			fmt.Fprintf(stdout, "# spans %s\n", spans)
		}
	} else {
		err = measureTimed(ctx, w, cfg, o, ck)
		o.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	}
	o.Mismatches, o.Notes = ck.mismatches, ck.notes
	o.Correct = err == nil && o.Mismatches == 0 && o.Failed == 0
	for _, n := range o.Notes {
		fmt.Fprintf(os.Stderr, "%s: output check failed: %s\n", w.name, n)
	}
	rf.Workloads[w.name] = o
	printMetrics(o, stdout)
	return err
}

// runAll measures every workload, each in a child process of its own so
// peak RSS and GC state are per workload, then checks that the fleet
// served exactly the local campaign's results.
func runAll(rf *runFile, workdir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	traceFlag := "0"
	if rf.Traced {
		traceFlag = "1"
	}
	var errs []error
	for _, w := range benchWorkloads(rf.Seed) {
		path := filepath.Join(workdir, fmt.Sprintf("child-%s-%d.json", w.name, os.Getpid()))
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(rf.Seed),
			"-seconds", fmt.Sprint(rf.Seconds), "-trace", traceFlag, "-workdir", workdir, "-out", path)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
		}
		var child runFile
		if err := readJSON(path, &child); err != nil {
			errs = append(errs, err)
			continue
		}
		os.Remove(path)
		rf.Host = child.Host
		for k, o := range child.Workloads {
			rf.Workloads[k] = o
		}
	}
	checkFleet(rf)
	return errors.Join(errs...)
}

// checkFleet counts, against campaign-fleet, every spec whose result
// differs from campaign-local's: both run the same specs, so the fleet must
// serve exactly the local results.
func checkFleet(rf *runFile) {
	local, fleet := rf.Workloads["campaign-local"], rf.Workloads["campaign-fleet"]
	if local == nil || fleet == nil {
		return
	}
	ck := &checks{}
	ck.same("campaign-fleet vs campaign-local", local.Digests, fleet.Digests)
	for _, n := range ck.notes {
		fmt.Fprintf(os.Stderr, "campaign-fleet: output check failed: %s\n", n)
	}
	fleet.Mismatches += ck.mismatches
	fleet.Notes = append(fleet.Notes, ck.notes...)
	fleet.Correct = fleet.Correct && ck.mismatches == 0
}

// printMetrics prints one line per metric, then the failure counts.
func printMetrics(o *outcome, w io.Writer) {
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := o.Metrics[k]
		fmt.Fprintf(w, "%s %s %v %s n=%d\n", o.Workload, k, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "%s failed_frac %v ratio n=%d\n", o.Workload, ratio(float64(o.Failed), float64(o.Attempted)), o.Attempted)
	fmt.Fprintf(w, "%s output_mismatches %d count\n", o.Workload, o.Mismatches)
}

// summarize prints the result line and reports whether every output was
// correct. With several workloads, metric names are prefixed by workload.
func summarize(rf *runFile, w io.Writer) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for name, o := range rf.Workloads {
		line.Correct = line.Correct && o.Correct
		line.Attempted += o.Attempted
		line.Failed += o.Failed
		for k, m := range o.Metrics {
			if len(rf.Workloads) > 1 {
				k = name + "." + k
			}
			line.Metrics[k] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return line.Correct
}

func writeRunFile(path string, rf *runFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
