package main

import (
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/workloads"
)

// pathKind names the execution path a workload's timed reps go through.
type pathKind int

const (
	// pathEngine builds machines with sim.New and calls Machine.Run.
	pathEngine pathKind = iota
	// pathLocal runs the spec set through Harness.RunManyContext.
	pathLocal
	// pathDaemon submits the spec set to an in-process campaign server.
	pathDaemon
	// pathFleet submits to a lease-only coordinator served by two workers.
	pathFleet
)

func (p pathKind) String() string {
	return [...]string{"engine", "local", "daemon", "fleet"}[p]
}

// workload is one set of inputs the benchmark runs: a spec set at a scale,
// and the path its timed reps use. The traced run sends the same spec set
// through every path, so each path's digests can be compared. Why each
// workload was chosen is recorded in BENCHMARK.json and README.md.
type workload struct {
	name  string
	scale harness.Scale
	specs []harness.RunSpec
	// stream makes every path read traces from a v2 corpus on disk through
	// the tracestore decode pipeline instead of in-memory slices.
	stream bool
	path   pathKind
}

// mix4 is a memory-bound SPEC trace, a GAP graph walk, a cloud server and a
// streaming stencil sharing one LLC and DRAM channel.
var mix4 = []string{"mcf_like_1554", "bfs-kron", "cassandra_like", "lbm_like"}

// campaignWorkloads are one SPEC-like, one GAP and one cloud trace.
var campaignWorkloads = []string{"mcf_like_1554", "bfs-kron", "cassandra_like"}

// benchWorkloads returns the workload table for one seed. The seed reaches
// the program only as RunSpec.Seed, which sets GenConfig.Seed = 42+seed.
func benchWorkloads(seed int64) []*workload {
	simScale := func(name string, records int, warmup, measured uint64) harness.Scale {
		return harness.Scale{Name: name, MemRecords: records, WarmupInstr: warmup, SimInstr: measured}
	}
	return []*workload{
		{
			name:  "sim-mem",
			scale: simScale("bench-sim-mem", 300_000, 200_000, 1_000_000),
			specs: []harness.RunSpec{{Workload: "mcf_like_1554", L1DPf: "berti", Seed: seed}},
			path:  pathEngine,
		},
		{
			name:  "sim-compute",
			scale: simScale("bench-sim-compute", 300_000, 200_000, 4_000_000),
			specs: []harness.RunSpec{{Workload: "deepsjeng_like", L1DPf: "berti", Seed: seed}},
			path:  pathEngine,
		},
		{
			name:   "sim-mix4-stream",
			scale:  simScale("bench-sim-mix4", 120_000, 25_000, 100_000),
			specs:  []harness.RunSpec{{Mix: mix4, L1DPf: "berti", Seed: seed}},
			stream: true,
			path:   pathEngine,
		},
		{
			name:  "campaign-local",
			scale: harness.ScaleQuick,
			specs: zooSpecs(campaignWorkloads, seed),
			path:  pathLocal,
		},
		{
			name:  "campaign-daemon",
			scale: simScale("bench-daemon", 20_000, 20_000, 50_000),
			specs: daemonSpecs(seed),
			path:  pathDaemon,
		},
		{
			name:  "campaign-fleet",
			scale: harness.ScaleQuick,
			specs: zooSpecs(campaignWorkloads, seed),
			path:  pathFleet,
		},
	}
}

// zooSpecs crosses the workloads with no prefetching and every registry
// prefetcher at its own level.
func zooSpecs(names []string, seed int64) []harness.RunSpec {
	var specs []harness.RunSpec
	for _, w := range names {
		specs = append(specs, harness.RunSpec{Workload: w, Seed: seed})
		for _, e := range prefetch.All() {
			spec := harness.RunSpec{Workload: w, Seed: seed}
			if e.Level == prefetch.AtL1D {
				spec.L1DPf = e.Name
			} else {
				spec.L2Pf = e.Name
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

// daemonSpecs crosses every registered workload with no prefetching,
// Berti, IP-stride at L1D and SPP at L2.
func daemonSpecs(seed int64) []harness.RunSpec {
	var specs []harness.RunSpec
	for _, w := range workloads.All() {
		specs = append(specs,
			harness.RunSpec{Workload: w.Name, Seed: seed},
			harness.RunSpec{Workload: w.Name, L1DPf: "berti", Seed: seed},
			harness.RunSpec{Workload: w.Name, L1DPf: "ip-stride", Seed: seed},
			harness.RunSpec{Workload: w.Name, L2Pf: "spp", Seed: seed},
		)
	}
	return specs
}

// findWorkload returns the named workload of the table, or nil.
func findWorkload(table []*workload, name string) *workload {
	for _, w := range table {
		if w.name == name {
			return w
		}
	}
	return nil
}
