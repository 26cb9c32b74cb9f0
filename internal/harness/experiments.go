package harness

import (
	"context"
	"io"
	"sort"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it reproduces
	Desc  string
	Run   func(ctx context.Context, h *Harness, w io.Writer)
}

var experiments []Experiment

func registerExperiment(e Experiment) { experiments = append(experiments, e) }

// paperOrder lists experiment IDs in the paper's presentation order.
var paperOrder = []string{
	"Fig1Accuracy", "Fig1Energy", "Fig3LocalVsGlobal",
	"Tab1Storage", "Tab2Config", "Tab3PrefConfig",
	"Fig7SpeedupVsStorage", "Fig8L1DSpeedup", "Fig9PerTrace",
	"Fig10AccuracyTimeliness", "Fig11MPKI",
	"Fig12MultiLevel", "Fig13MultiLevelMPKI", "Fig14Traffic", "Fig15Energy",
	"Fig16BandwidthL1D", "Fig17BandwidthML", "Fig18CloudSuite", "Fig19MISB",
	"Fig20MultiCore", "Fig21Watermarks", "Fig22TableSizes",
	"AblLatencyBits", "AblCrossPage", "AblIdealL1D", "AblCalibration", "AblPythia", "AblPerIP",
}

// Experiments returns every experiment in the paper's presentation order.
func Experiments() []Experiment {
	rank := map[string]int{}
	for i, id := range paperOrder {
		rank[id] = i
	}
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	sort.Slice(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		if iok && jok {
			return ri < rj
		}
		if iok != jok {
			return iok
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
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

// suiteSpeedup computes the geomean speedup of a config over the IP-stride
// baseline across a suite.
func (h *Harness) suiteSpeedup(ctx context.Context, names []string, l1, l2 string) float64 {
	return h.GeomeanSpeedup(ctx, names,
		func(w string) RunSpec { return RunSpec{Workload: w, L1DPf: l1, L2Pf: l2} },
		baseSpec)
}
