// Package berti is the public API of the Berti reproduction: a trace-driven
// cache-hierarchy simulator with the Berti local-delta L1D prefetcher
// (Navarro-Torres et al., MICRO 2022) and the baseline prefetchers the
// paper evaluates against.
//
// The package exposes three layers:
//
//   - Simulate: run one workload through the simulated memory hierarchy
//     with a chosen prefetcher configuration and get a metrics report.
//   - Workloads / Prefetchers: enumerate the registered synthetic
//     workloads (SPEC CPU2017-, GAP-, and CloudSuite-like) and prefetcher
//     designs.
//   - RunExperiment / Experiments: regenerate the paper's tables and
//     figures.
//
// The underlying subsystems (simulator core, cache model, DRAM model,
// prefetcher implementations, workload generators) live under internal/
// and are documented in DESIGN.md.
package berti

import (
	"context"
	"fmt"
	"io"

	"github.com/bertisim/berti/internal/energy"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/metrics"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/workloads"
)

// Options configures one simulation.
type Options struct {
	// Workload is a registered workload name (see Workloads).
	Workload string
	// Mix optionally replaces Workload with one workload per core for a
	// multi-core heterogeneous run.
	Mix []string
	// L1DPrefetcher and L2Prefetcher are registered prefetcher names
	// (see Prefetchers); empty disables prefetching at that level.
	// The paper's baseline is "ip-stride" at L1D.
	L1DPrefetcher string
	L2Prefetcher  string
	// DRAM selects the channel: "" or "ddr5-6400" (default),
	// "ddr4-3200", "ddr3-1600".
	DRAM string
	// MemRecords sizes the generated trace (0 = default scale).
	MemRecords int
	// WarmupInstructions and Instructions bound the simulation
	// (0 = default scale).
	WarmupInstructions uint64
	Instructions       uint64
	// Seed perturbs trace generation.
	Seed int64
}

// LevelReport summarizes one cache level.
type LevelReport struct {
	DemandAccesses uint64
	DemandMisses   uint64
	MPKI           float64
	// Prefetch effectiveness (artifact formulas, Section "Notes" of the
	// paper's appendix).
	PrefetchFills    uint64
	PrefetchUseful   uint64
	PrefetchLate     uint64
	PrefetchAccuracy float64
	TimelyFraction   float64
	AvgFillLatency   float64
}

// Report is the outcome of one simulation.
type Report struct {
	// IPC of core 0 (single-core runs) over the measured region.
	IPC float64
	// PerCoreIPC for multi-core runs.
	PerCoreIPC []float64
	L1D        LevelReport
	L2         LevelReport
	LLC        LevelReport
	// DRAMReads/Writes are line transfers at the memory controller.
	DRAMReads, DRAMWrites uint64
	// TrafficL2, TrafficLLC, TrafficDRAM are total line transfers at
	// each boundary (demand + prefetch + writeback).
	TrafficL2, TrafficLLC, TrafficDRAM uint64
	// EnergyPJ is the dynamic memory-hierarchy energy estimate.
	EnergyPJ float64
}

// Simulate runs one simulation and returns its report.
func Simulate(opts Options) (*Report, error) {
	if opts.Workload == "" && len(opts.Mix) == 0 {
		return nil, fmt.Errorf("berti: Options.Workload or Options.Mix required")
	}
	spec := harness.RunSpec{
		Workload: opts.Workload,
		Mix:      opts.Mix,
		L1DPf:    opts.L1DPrefetcher,
		L2Pf:     opts.L2Prefetcher,
		DRAMCfg:  opts.DRAM,
		Seed:     opts.Seed,
	}
	if err := harness.ValidateSpec(spec); err != nil {
		return nil, fmt.Errorf("berti: %w", err)
	}

	scale := harness.ScaleFromEnv()
	if opts.MemRecords > 0 {
		scale.MemRecords = opts.MemRecords
	}
	if opts.WarmupInstructions > 0 {
		scale.WarmupInstr = opts.WarmupInstructions
	}
	if opts.Instructions > 0 {
		scale.SimInstr = opts.Instructions
	}
	h := harness.New(scale)
	res, err := h.RunContext(context.TODO(), spec)
	if err != nil {
		return nil, fmt.Errorf("berti: simulation failed: %w", err)
	}

	instr := res.Config.SimInstructions
	rep := &Report{IPC: res.IPC()}
	for i := range res.Cores {
		rep.PerCoreIPC = append(rep.PerCoreIPC, res.Cores[i].IPC)
	}
	c := &res.Cores[0]
	rep.L1D = LevelReport{
		DemandAccesses: c.L1D.DemandAccesses, DemandMisses: c.L1D.DemandMisses,
		MPKI:          c.L1D.MPKI(instr),
		PrefetchFills: c.L1D.PrefFills, PrefetchUseful: c.L1D.PrefUseful,
		PrefetchLate: c.L1D.PrefLate, PrefetchAccuracy: c.L1D.Accuracy(),
		TimelyFraction: c.L1D.TimelyFraction(), AvgFillLatency: c.L1D.AvgFillLatency(),
	}
	rep.L2 = LevelReport{
		DemandAccesses: c.L2.DemandAccesses, DemandMisses: c.L2.DemandMisses,
		MPKI:          c.L2.MPKI(instr),
		PrefetchFills: c.L2.PrefFills, PrefetchUseful: c.L2.PrefUseful,
		PrefetchLate: c.L2.PrefLate, PrefetchAccuracy: c.L2.Accuracy(),
		TimelyFraction: c.L2.TimelyFraction(), AvgFillLatency: c.L2.AvgFillLatency(),
	}
	rep.LLC = LevelReport{
		DemandAccesses: res.LLC.DemandAccesses, DemandMisses: res.LLC.DemandMisses,
		MPKI:          res.LLC.MPKI(instr),
		PrefetchFills: res.LLC.PrefFills, PrefetchUseful: res.LLC.PrefUseful,
		PrefetchLate: res.LLC.PrefLate, PrefetchAccuracy: res.LLC.Accuracy(),
		TimelyFraction: res.LLC.TimelyFraction(), AvgFillLatency: res.LLC.AvgFillLatency(),
	}
	rep.DRAMReads, rep.DRAMWrites = res.DRAM.Reads, res.DRAM.Writes
	tr := res.Traffic()
	rep.TrafficL2, rep.TrafficLLC, rep.TrafficDRAM = tr.Total()
	rep.EnergyPJ = energy.Compute(energy.Default22nm(), res).Total()
	return rep, nil
}

// WorkloadInfo describes one registered workload.
type WorkloadInfo struct {
	Name         string
	Suite        string // "spec", "gap", "cloud"
	MemIntensive bool
}

// Workloads lists the registered synthetic workloads.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workloads.All() {
		out = append(out, WorkloadInfo{Name: w.Name, Suite: w.Suite, MemIntensive: w.MemIntensive})
	}
	return out
}

// PrefetcherInfo describes one registered prefetcher design.
type PrefetcherInfo struct {
	Name string
	// Level is "L1D" or "L2".
	Level string
	// StorageKB is the declared hardware budget.
	StorageKB float64
	Comment   string
}

// Prefetchers lists the registered prefetcher designs.
func Prefetchers() []PrefetcherInfo {
	var out []PrefetcherInfo
	for _, e := range prefetch.All() {
		level := "L1D"
		if e.Level == prefetch.AtL2 {
			level = "L2"
		}
		out = append(out, PrefetcherInfo{
			Name:      e.Name,
			Level:     level,
			StorageKB: float64(e.New().StorageBits()) / 8 / 1024,
			Comment:   e.Comment,
		})
	}
	return out
}

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	ID    string
	Paper string
	Desc  string
}

// Experiments lists the paper's tables and figures this repository
// regenerates, in presentation order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range harness.Experiments() {
		out = append(out, ExperimentInfo{ID: e.ID, Paper: e.Paper, Desc: e.Desc})
	}
	return out
}

// RunExperiment regenerates one table or figure, writing the report to w.
// scale is "quick", "default", or "full" ("" = default, honoring
// $BERTI_SCALE).
func RunExperiment(id string, w io.Writer, scale string) error {
	e, ok := harness.ExperimentByID(id)
	if !ok {
		return fmt.Errorf("berti: unknown experiment %q", id)
	}
	s, ok := harness.ScaleByName(scale)
	switch {
	case scale == "":
		s = harness.ScaleFromEnv()
	case !ok:
		return fmt.Errorf("berti: unknown scale %q", scale)
	}
	h := harness.New(s)
	// Failed runs are recorded on h and reported from h.Failures below.
	_, _ = h.RunManyContext(context.TODO(), harness.Plan(s, []harness.Experiment{e}))
	if _, err := io.WriteString(w, metrics.Format(e.Tables(h.Runs(context.TODO())))); err != nil {
		return fmt.Errorf("berti: writing experiment %s: %w", id, err)
	}
	if fails := h.Failures(); len(fails) > 0 {
		// The report was still rendered from the surviving runs; surface
		// the failures so callers do not mistake it for a clean artifact.
		return fmt.Errorf("berti: experiment %s finished with %d failed run(s): %w",
			id, len(fails), fails[0])
	}
	return nil
}
