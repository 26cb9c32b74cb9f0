package harness

import (
	"context"
	"io"

	"github.com/bertisim/berti/internal/metrics"
	"github.com/bertisim/berti/internal/sim"
)

// Experiment regenerates one of the paper's tables or figures. Render is
// a pure function of the results it reads through r: it asks for the same
// specs whatever the results say, which is what lets Plan enumerate a
// campaign up front. Fig3 is the one exception; see renderFig3.
type Experiment struct {
	ID     string
	Paper  string // which table/figure of the paper it reproduces
	Desc   string
	Render func(r *Runs, w io.Writer)
}

// experiments lists every experiment in the paper's presentation order.
var experiments = []Experiment{
	{ID: "Fig1Accuracy", Paper: "Figure 1(a)",
		Desc:   "prefetch accuracy of state-of-the-art prefetchers, SPEC vs GAP",
		Render: renderFig1Accuracy},
	{ID: "Fig1Energy", Paper: "Figure 1(b)",
		Desc:   "dynamic memory-hierarchy energy normalized to no prefetching",
		Render: renderFig1Energy},
	{ID: "Fig3LocalVsGlobal", Paper: "Figure 3",
		Desc:   "per-IP local deltas (Berti) vs one global delta (BOP) on mcf",
		Render: renderFig3},
	{ID: "Tab1Storage", Paper: "Table I",
		Desc:   "Berti storage breakdown (must total 2.55 KB)",
		Render: renderTab1},
	{ID: "Tab2Config", Paper: "Table II",
		Desc:   "baseline system configuration",
		Render: renderTab2},
	{ID: "Tab3PrefConfig", Paper: "Table III",
		Desc:   "evaluated prefetcher configurations and storage",
		Render: renderTab3},
	{ID: "Fig7SpeedupVsStorage", Paper: "Figure 7",
		Desc:   "geomean speedup vs storage for L1D, L2, and multi-level prefetchers",
		Render: renderFig7},
	{ID: "Fig8L1DSpeedup", Paper: "Figure 8",
		Desc:   "L1D prefetcher speedup over IP-stride, per suite",
		Render: renderFig8},
	{ID: "Fig9PerTrace", Paper: "Figure 9",
		Desc:   "per-workload speedups of the L1D prefetchers",
		Render: renderFig9},
	{ID: "Fig10AccuracyTimeliness", Paper: "Figure 10",
		Desc:   "L1D prefetch accuracy split into timely and late",
		Render: renderFig10},
	{ID: "Fig11MPKI", Paper: "Figure 11",
		Desc:   "demand MPKI at L1D/L2/LLC with each L1D prefetcher",
		Render: renderFig11},
	{ID: "Fig12MultiLevel", Paper: "Figure 12",
		Desc:   "multi-level (L1D+L2) prefetching speedups vs Berti alone",
		Render: renderFig12},
	{ID: "Fig13MultiLevelMPKI", Paper: "Figure 13",
		Desc:   "L2/LLC demand MPKI with multi-level prefetching",
		Render: renderFig13},
	{ID: "Fig14Traffic", Paper: "Figure 14",
		Desc:   "inter-level traffic normalized to no prefetching",
		Render: renderFig14},
	{ID: "Fig15Energy", Paper: "Figure 15",
		Desc:   "dynamic energy normalized to no prefetching, incl. multi-level",
		Render: renderFig15},
	{ID: "Fig16BandwidthL1D", Paper: "Figure 16",
		Desc:   "L1D prefetcher speedups under constrained DRAM bandwidth",
		Render: renderFig16},
	{ID: "Fig17BandwidthML", Paper: "Figure 17",
		Desc:   "multi-level prefetching under constrained DRAM bandwidth",
		Render: renderFig17},
	{ID: "Fig18CloudSuite", Paper: "Figure 18",
		Desc:   "CloudSuite-like speedups for L1D and multi-level prefetching",
		Render: renderFig18},
	{ID: "Fig19MISB", Paper: "Figure 19",
		Desc:   "adding the MISB temporal prefetcher at L2",
		Render: renderFig19},
	{ID: "Fig20MultiCore", Paper: "Figure 20",
		Desc:   "4-core heterogeneous mixes, speedup over IP-stride",
		Render: renderFig20},
	{ID: "Fig21Watermarks", Paper: "Figure 21",
		Desc:   "L1/L2 coverage watermark sensitivity",
		Render: renderFig21},
	{ID: "Fig22TableSizes", Paper: "Figure 22",
		Desc:   "Berti table size sensitivity (0.25x..4x)",
		Render: renderFig22},
	{ID: "AblLatencyBits", Paper: "Section IV.J",
		Desc:   "latency counter width (4/12/32 bits)",
		Render: renderAblLatency},
	{ID: "AblCrossPage", Paper: "Section IV.J",
		Desc:   "cross-page prefetching on/off",
		Render: renderAblCrossPage},
	{ID: "AblIdealL1D", Paper: "Section IV-G",
		Desc:   "ideal (oracle) L1D prefetcher headroom, cloud vs MemInt",
		Render: renderAblIdeal},
	{ID: "AblCalibration", Paper: "DESIGN.md §6",
		Desc:   "this reproduction's calibration knob: the timeliness margin",
		Render: renderAblCalibration},
	{ID: "AblPythia", Paper: "Section V",
		Desc:   "Pythia (RL, L2) with and without Berti at L1D",
		Render: renderAblPythia},
	{ID: "AblPerIP", Paper: "Section I / ref [46]",
		Desc:   "per-IP (local) deltas vs the DPC-3 per-page keying",
		Render: renderAblPerIP},
}

// Experiments returns every experiment in the paper's presentation order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Runs is the result source renderers read from.
type Runs struct {
	Scale  Scale
	lookup func(specs []RunSpec) []*sim.Result
	// h and ctx let Fig3 drive its machines; h is nil while planning.
	h   *Harness
	ctx context.Context
}

// All returns one result per spec, in spec order. Failed or missing runs
// read as zero-stats placeholders, so sibling rows of a table still render
// and ratios over a lost run degrade to 0.
func (r *Runs) All(specs []RunSpec) []*sim.Result { return r.lookup(specs) }

// Runs returns the view renderers read h's memoized results through, for
// rendering after a batch over Plan. ctx bounds the machines Fig3 drives.
func (h *Harness) Runs(ctx context.Context) *Runs {
	return &Runs{Scale: h.Scale, h: h, ctx: ctx, lookup: func(specs []RunSpec) []*sim.Result {
		out := make([]*sim.Result, len(specs))
		for i, s := range specs {
			if res, ok := h.ResultFor(s.key()); ok {
				out[i] = res
			} else {
				out[i] = placeholderResult(s)
			}
		}
		return out
	}}
}

// Plan lists every spec the experiments read at scale, deduplicated by key
// in first-request order: it renders each experiment once against
// placeholder results and records what it asks for.
func Plan(scale Scale, exps []Experiment) []RunSpec {
	var plan []RunSpec
	seen := map[string]bool{}
	r := &Runs{Scale: scale, lookup: func(specs []RunSpec) []*sim.Result {
		out := make([]*sim.Result, len(specs))
		for i, s := range specs {
			if k := s.key(); !seen[k] {
				seen[k] = true
				plan = append(plan, s)
			}
			out[i] = placeholderResult(s)
		}
		return out
	}}
	for _, e := range exps {
		e.Render(r, io.Discard)
	}
	return plan
}

// L1DPrefetchers are the L1D designs compared in Figures 8-11.
var L1DPrefetchers = []string{"mlop", "ipcp", "berti"}

// MultiLevelCombos are the Figure 12 combinations (L1D + L2).
var MultiLevelCombos = []struct{ L1, L2 string }{
	{"mlop", "bingo"},
	{"mlop", "spp-ppf"},
	{"ipcp", "ipcp-l2"},
	{"berti", "bingo"},
	{"berti", "spp-ppf"},
}

// SensitivitySubset is the workload subset used by the parameter sweeps
// (Figs. 21-22 and the §IV.J ablations) to bound runtime; it spans the
// archetypes: chains, streams, alternating strides, interleaved IPs, and a
// graph kernel.
func SensitivitySubset() []string {
	return []string{"mcf_like_1554", "lbm_like", "roms_like", "cactu_like", "fotonik_like", "bfs-kron", "pr-urand"}
}

// baseSpec is the paper's baseline: IP-stride at L1D, nothing at L2.
func baseSpec(w string) RunSpec { return RunSpec{Workload: w, L1DPf: "ip-stride"} }

// GeomeanSpeedup reads spec and the baseline for every workload and
// returns the geometric-mean speedup (the paper's headline metric:
// speedup over an L1D with IP-stride).
func GeomeanSpeedup(r *Runs, names []string, spec func(w string) RunSpec, base func(w string) RunSpec) float64 {
	specs := make([]RunSpec, 0, 2*len(names))
	for _, w := range names {
		specs = append(specs, spec(w), base(w))
	}
	out := r.All(specs)
	ratios := make([]float64, len(names))
	for i := range ratios {
		ratios[i] = SpeedupOver(out[2*i], out[2*i+1])
	}
	return metrics.Geomean(ratios)
}

// suiteSpeedup computes the geomean speedup of a config over the IP-stride
// baseline across a suite.
func suiteSpeedup(r *Runs, names []string, l1, l2 string) float64 {
	return GeomeanSpeedup(r, names,
		func(w string) RunSpec { return RunSpec{Workload: w, L1DPf: l1, L2Pf: l2} },
		baseSpec)
}
