// Command benchengine measures raw engine throughput under both schedulers
// and writes the comparison to BENCH_engine.json.
//
// Usage:
//
//	benchengine                     # quick matrix -> BENCH_engine.json
//	benchengine -o /tmp/bench.json -reps 5
//	BERTI_SCALE=default benchengine
//
// The matrix crosses a memory-bound and a compute-bound workload with
// prefetching off and on (Berti at L1D), under the exhaustive ticked
// scheduler and the event-horizon scheduler. Each cell reports kinstr/s
// (simulated instructions, warmup included, per wall second; best of -reps)
// and the horizon cells additionally report speedup over the matching
// ticked cell. Every paired run is also byte-compared: a stats divergence
// between schedulers fails the whole command, so the benchmark doubles as a
// coarse differential check at benchmark scale.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
)

type cell struct {
	Workload   string  `json:"workload"`
	Class      string  `json:"class"` // membound | computebound
	Prefetcher string  `json:"prefetcher"`
	Scheduler  string  `json:"scheduler"`
	KInstrPerS float64 `json:"kinstr_per_s"`
	Cycles     uint64  `json:"cycles"`
	IPC        float64 `json:"ipc"`
	Speedup    float64 `json:"speedup_vs_ticked,omitempty"`
}

type report struct {
	Scale       string    `json:"scale"`
	MemRecords  int       `json:"mem_records"`
	WarmupInstr uint64    `json:"warmup_instr"`
	SimInstr    uint64    `json:"sim_instr"`
	Reps        int       `json:"reps"`
	GeneratedAt time.Time `json:"generated_at"`
	// CalibScore is the host-speed calibration (iterations/s of a fixed
	// arithmetic + random-memory-walk loop) measured alongside the cells.
	// kinstr/s is machine- and load-dependent; the gate scales the
	// baseline by the calibration ratio so a slower CI runner or a noisy
	// neighbour does not read as a simulator regression.
	CalibScore float64 `json:"calib_score,omitempty"`
	Cells      []cell  `json:"cells"`
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// calibScore measures single-thread host throughput with a workload shaped
// like the simulator's inner loop — hash arithmetic plus dependent loads
// over a 4 MB working set — and returns the best iterations/s of five short
// reps. The loop is independent of the simulator packages, so a code
// regression in the engine moves the cells but not the calibration, while a
// slower host or background load moves both.
func calibScore() float64 {
	buf := make([]uint64, 1<<19) // 4 MB, LLC-sized: sensitive to memory contention
	for i := range buf {
		buf[i] = uint64(i)
	}
	const inner = 1 << 22
	best := 0.0
	s := uint64(0x9e3779b97f4a7c15)
	for r := 0; r < 5; r++ {
		start := time.Now()
		acc := uint64(0)
		for i := 0; i < inner; i++ {
			s += 0x9e3779b97f4a7c15
			z := s
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
			z ^= z >> 27
			acc += buf[z&uint64(len(buf)-1)]
		}
		calibSink += acc
		if sc := inner / time.Since(start).Seconds(); sc > best {
			best = sc
		}
	}
	return best
}

// trajectorySchemaVersion governs the BENCH_engine.json container shape.
const trajectorySchemaVersion = 1

// trajectory is the on-disk container: every benchengine run appends its
// timestamped report, so throughput history accumulates instead of each run
// clobbering the last. Legacy single-report files (the pre-trajectory
// format) are migrated into the first entry on the next run.
type trajectory struct {
	SchemaVersion int      `json:"schema_version"`
	Entries       []report `json:"entries"`
}

// loadTrajectory reads an existing output file in either format. A missing
// file starts an empty trajectory; an unrecognized one is an error rather
// than silent clobbering.
func loadTrajectory(path string) (*trajectory, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &trajectory{SchemaVersion: trajectorySchemaVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	// Probe the container shape by key: "entries" = trajectory (possibly
	// empty), "cells" = a legacy single report.
	var probe struct {
		Entries *[]report `json:"entries"`
		Cells   *[]cell   `json:"cells"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w (move the file aside to start a fresh trajectory)", path, err)
	}
	switch {
	case probe.Entries != nil:
		var tr trajectory
		if err := json.Unmarshal(data, &tr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		tr.SchemaVersion = trajectorySchemaVersion
		return &tr, nil
	case probe.Cells != nil:
		var legacy report
		if err := json.Unmarshal(data, &legacy); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &trajectory{SchemaVersion: trajectorySchemaVersion, Entries: []report{legacy}}, nil
	default:
		return nil, fmt.Errorf("%s: neither a benchengine trajectory nor a legacy report (move the file aside)", path)
	}
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output path")
	reps := flag.Int("reps", 3, "repetitions per cell (best is kept)")
	gate := flag.Bool("gate", false,
		"compare against the last committed trajectory entry instead of appending: "+
			"exit 1 if any cell regresses by more than -gate-tol")
	gateTol := flag.Float64("gate-tol", 0.10,
		"allowed fractional kinstr/s regression per cell in -gate mode")
	flag.Parse()

	scale := harness.ScaleQuick
	if os.Getenv("BERTI_SCALE") != "" {
		scale = harness.ScaleFromEnv()
	}
	rep := report{
		Scale:       scale.Name,
		MemRecords:  scale.MemRecords,
		WarmupInstr: scale.WarmupInstr,
		SimInstr:    scale.SimInstr,
		Reps:        *reps,
		GeneratedAt: time.Now().UTC(),
		CalibScore:  calibScore(),
	}

	workloads := []struct{ name, class string }{
		{"mcf_like_1554", "membound"},
		{"deepsjeng_like", "computebound"},
	}
	for _, w := range workloads {
		for _, pf := range []string{"", "berti"} {
			var tickedCell *cell
			var tickedJSON []byte
			for _, sched := range []sim.Scheduler{sim.SchedTicked, sim.SchedHorizon} {
				c, resJSON, err := measure(scale, w.name, w.class, pf, sched, *reps)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchengine:", err)
					os.Exit(1)
				}
				if sched == sim.SchedTicked {
					tickedCell, tickedJSON = &c, resJSON
				} else {
					if !bytes.Equal(resJSON, tickedJSON) {
						fmt.Fprintf(os.Stderr, "benchengine: schedulers diverged on %s pf=%q\n", w.name, pf)
						os.Exit(1)
					}
					c.Speedup = c.KInstrPerS / tickedCell.KInstrPerS
				}
				rep.Cells = append(rep.Cells, c)
				fmt.Printf("%-16s %-12s pf=%-6s %-8s %8.1f kinstr/s\n",
					w.name, w.class, orNone(pf), sched, c.KInstrPerS)
			}
		}
	}

	traj, err := loadTrajectory(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchengine:", err)
		os.Exit(1)
	}
	if *gate {
		if err := checkGate(traj, rep, *gateTol); err != nil {
			fmt.Fprintln(os.Stderr, "benchengine:", err)
			os.Exit(1)
		}
		fmt.Printf("gate: no cell regressed more than %.0f%% vs the committed trajectory\n", *gateTol*100)
		return
	}
	traj.Entries = append(traj.Entries, rep)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchengine:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traj); err != nil {
		fmt.Fprintln(os.Stderr, "benchengine:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchengine:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (run %d of the trajectory)\n", *out, len(traj.Entries))
}

// checkGate compares the fresh report against the newest committed
// trajectory entry, cell by cell keyed on (workload, prefetcher, scheduler).
// When both reports carry a calibration score the baseline is first scaled
// by the host-speed ratio, so the comparison measures the simulator, not
// the machine or its background load. A cell slower than the (scaled)
// baseline by more than tol (fractional) is a regression; cells new in
// this run (no baseline) or present only in the baseline are ignored, so
// matrix growth does not break the gate. Scale mismatches are an error:
// kinstr/s at quick scale cannot be compared to another scale's numbers.
func checkGate(traj *trajectory, fresh report, tol float64) error {
	if len(traj.Entries) == 0 {
		return fmt.Errorf("gate: no committed trajectory entry to compare against")
	}
	base := traj.Entries[len(traj.Entries)-1]
	if base.Scale != fresh.Scale {
		return fmt.Errorf("gate: baseline scale %q != current scale %q", base.Scale, fresh.Scale)
	}
	hostRatio := 1.0
	if base.CalibScore > 0 && fresh.CalibScore > 0 {
		hostRatio = fresh.CalibScore / base.CalibScore
		// Clamp: a calibration gap beyond 4x either way means the hosts
		// are not comparable at all; fall back to the raw numbers rather
		// than amplifying a bogus ratio.
		if hostRatio < 0.25 || hostRatio > 4 {
			hostRatio = 1.0
		}
		fmt.Printf("gate: host calibration ratio %.3f (baseline %.2e, now %.2e)\n",
			hostRatio, base.CalibScore, fresh.CalibScore)
	}
	key := func(c cell) string { return c.Workload + "|" + c.Prefetcher + "|" + c.Scheduler }
	baseline := make(map[string]float64, len(base.Cells))
	for _, c := range base.Cells {
		baseline[key(c)] = c.KInstrPerS * hostRatio
	}
	var failed []string
	for _, c := range fresh.Cells {
		want, ok := baseline[key(c)]
		if !ok || want <= 0 {
			continue
		}
		if c.KInstrPerS < want*(1-tol) {
			failed = append(failed, fmt.Sprintf(
				"%s pf=%s %s: %.1f kinstr/s, %.1f%% below baseline %.1f (tolerance %.0f%%)",
				c.Workload, c.Prefetcher, c.Scheduler,
				c.KInstrPerS, (1-c.KInstrPerS/want)*100, want, tol*100))
		}
	}
	if len(failed) > 0 {
		msg := "gate: throughput regression"
		for _, f := range failed {
			msg += "\n  " + f
		}
		return errors.New(msg)
	}
	return nil
}

// measure runs one matrix cell reps times and keeps the fastest wall time
// (the least-perturbed sample). Stats are identical across reps — runs are
// deterministic — so any rep's Result stands for the cell.
func measure(scale harness.Scale, workload, class, pf string, sched sim.Scheduler, reps int) (cell, []byte, error) {
	h := harness.New(scale)
	h.Scheduler = sched
	spec := harness.RunSpec{Workload: workload, L1DPf: pf}
	if _, err := h.Trace(workload, 0); err != nil {
		return cell{}, nil, err
	}
	best := time.Duration(1<<63 - 1)
	var res *sim.Result
	var instr uint64
	for r := 0; r < reps; r++ {
		start := time.Now()
		out, err := h.RunWithContext(context.Background(), spec, sim.Options{})
		elapsed := time.Since(start)
		if err != nil {
			return cell{}, nil, fmt.Errorf("%s pf=%q %s: %w", workload, pf, sched, err)
		}
		if elapsed < best {
			best = elapsed
			res = out
			instr = scale.WarmupInstr
			for i := range out.Cores {
				instr += out.Cores[i].Core.Instructions
			}
		}
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return cell{}, nil, err
	}
	return cell{
		Workload:   workload,
		Class:      class,
		Prefetcher: orNone(pf),
		Scheduler:  sched.String(),
		KInstrPerS: float64(instr) / 1e3 / best.Seconds(),
		Cycles:     res.Cycles,
		IPC:        res.IPC(),
	}, resJSON, nil
}

func orNone(pf string) string {
	if pf == "" {
		return "none"
	}
	return pf
}
