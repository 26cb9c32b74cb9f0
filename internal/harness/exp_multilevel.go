package harness

import (
	"context"
	"fmt"
	"io"

	"github.com/bertisim/berti/internal/energy"
	"github.com/bertisim/berti/internal/metrics"
)

func init() {
	registerExperiment(Experiment{
		ID: "Fig12MultiLevel", Paper: "Figure 12",
		Desc: "multi-level (L1D+L2) prefetching speedups vs Berti alone",
		Run:  runFig12,
	})
	registerExperiment(Experiment{
		ID: "Fig13MultiLevelMPKI", Paper: "Figure 13",
		Desc: "L2/LLC demand MPKI with multi-level prefetching",
		Run:  runFig13,
	})
	registerExperiment(Experiment{
		ID: "Fig14Traffic", Paper: "Figure 14",
		Desc: "inter-level traffic normalized to no prefetching",
		Run:  runFig14,
	})
	registerExperiment(Experiment{
		ID: "Fig15Energy", Paper: "Figure 15",
		Desc: "dynamic energy normalized to no prefetching, incl. multi-level",
		Run:  runFig15,
	})
	registerExperiment(Experiment{
		ID: "Fig16BandwidthL1D", Paper: "Figure 16",
		Desc: "L1D prefetcher speedups under constrained DRAM bandwidth",
		Run:  runFig16,
	})
	registerExperiment(Experiment{
		ID: "Fig17BandwidthML", Paper: "Figure 17",
		Desc: "multi-level prefetching under constrained DRAM bandwidth",
		Run:  runFig17,
	})
	registerExperiment(Experiment{
		ID: "Fig18CloudSuite", Paper: "Figure 18",
		Desc: "CloudSuite-like speedups for L1D and multi-level prefetching",
		Run:  runFig18,
	})
	registerExperiment(Experiment{
		ID: "Fig19MISB", Paper: "Figure 19",
		Desc: "adding the MISB temporal prefetcher at L2",
		Run:  runFig19,
	})
	registerExperiment(Experiment{
		ID: "Fig20MultiCore", Paper: "Figure 20",
		Desc: "4-core heterogeneous mixes, speedup over IP-stride",
		Run:  runFig20,
	})
}

func runFig12(ctx context.Context, h *Harness, w io.Writer) {
	t := metrics.NewTable("Figure 12: multi-level prefetching speedup over IP-stride",
		"config", "SPEC", "GAP", "ALL")
	t.AddRow("Berti (L1D only)",
		h.suiteSpeedup(ctx, MemIntSuite("spec"), "berti", ""),
		h.suiteSpeedup(ctx, MemIntSuite("gap"), "berti", ""),
		h.suiteSpeedup(ctx, MemIntSuite("all"), "berti", ""))
	for _, c := range MultiLevelCombos {
		label := c.L1 + "+" + c.L2
		t.AddRow(label,
			h.suiteSpeedup(ctx, MemIntSuite("spec"), c.L1, c.L2),
			h.suiteSpeedup(ctx, MemIntSuite("gap"), c.L1, c.L2),
			h.suiteSpeedup(ctx, MemIntSuite("all"), c.L1, c.L2))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti alone >= every combo without Berti; adding an L2")
	fmt.Fprintln(w, "prefetcher on top of Berti gains little")
}

func runFig13(ctx context.Context, h *Harness, w io.Writer) {
	t := metrics.NewTable("Figure 13: demand MPKI with multi-level prefetching",
		"config", "suite", "L2", "LLC")
	cfgs := [][2]string{{"mlop", ""}, {"berti", ""}}
	for _, c := range MultiLevelCombos {
		cfgs = append(cfgs, [2]string{c.L1, c.L2})
	}
	for _, c := range cfgs {
		label := c[0]
		if c[1] != "" {
			label += "+" + c[1]
		}
		for _, suite := range []string{"spec", "gap"} {
			names := MemIntSuite(suite)
			var l2, llc float64
			for _, r := range h.runAll(ctx, specsFor(names, c[0], c[1])) {
				instr := r.Config.SimInstructions
				l2 += r.Cores[0].L2.MPKI(instr)
				llc += r.LLC.MPKI(instr)
			}
			n := float64(len(names))
			t.AddRow(label, suite, l2/n, llc/n)
		}
	}
	fmt.Fprintln(w, t)
}

// trafficRatios returns (L2, LLC, DRAM) traffic normalized to no-prefetch.
func (h *Harness) trafficRatios(ctx context.Context, names []string, l1, l2 string) (rl2, rllc, rdram float64) {
	var tl2, tllc, tdram, bl2, bllc, bdram float64
	out := h.runAll(ctx, append(specsFor(names, l1, l2), specsFor(names, "", "")...))
	results, bases := out[:len(names)], out[len(names):]
	for i := range results {
		ta := results[i].Traffic()
		tb := bases[i].Traffic()
		a2, allc, adram := ta.Total()
		b2, bllc2, bdram2 := tb.Total()
		tl2 += float64(a2)
		tllc += float64(allc)
		tdram += float64(adram)
		bl2 += float64(b2)
		bllc += float64(bllc2)
		bdram += float64(bdram2)
	}
	if bl2 > 0 {
		rl2 = tl2 / bl2
	}
	if bllc > 0 {
		rllc = tllc / bllc
	}
	if bdram > 0 {
		rdram = tdram / bdram
	}
	return
}

func runFig14(ctx context.Context, h *Harness, w io.Writer) {
	t := metrics.NewTable("Figure 14: traffic normalized to no prefetching",
		"config", "suite", "L1D<->L2", "L2<->LLC", "LLC<->DRAM")
	cfgs := [][2]string{
		{"ip-stride", ""}, {"mlop", ""}, {"ipcp", ""}, {"berti", ""},
		{"mlop", "bingo"}, {"berti", "bingo"},
	}
	for _, c := range cfgs {
		label := c[0]
		if c[1] != "" {
			label += "+" + c[1]
		}
		for _, suite := range []string{"spec", "gap"} {
			a, b, d := h.trafficRatios(ctx, MemIntSuite(suite), c[0], c[1])
			t.AddRow(label, suite, a, b, d)
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: traffic increase inversely tracks accuracy; Berti lowest;")
	fmt.Fprintln(w, "L2 prefetchers (Bingo) add large off-chip traffic, especially on GAP")
}

func runFig15(ctx context.Context, h *Harness, w io.Writer) {
	t := metrics.NewTable("Figure 15: dynamic energy normalized to no prefetching",
		"config", "SPEC", "GAP")
	cfgs := [][2]string{
		{"ip-stride", ""}, {"mlop", ""}, {"ipcp", ""}, {"berti", ""},
		{"mlop", "bingo"}, {"mlop", "spp-ppf"}, {"berti", "bingo"}, {"berti", "spp-ppf"},
	}
	for _, c := range cfgs {
		label := c[0]
		if c[1] != "" {
			label += "+" + c[1]
		}
		t.AddRow(label,
			h.energyRatio(ctx, MemIntSuite("spec"), c[0], c[1]),
			h.energyRatio(ctx, MemIntSuite("gap"), c[0], c[1]))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti consumes the least extra energy among L1D prefetchers;")
	fmt.Fprintln(w, "L2 prefetchers on top significantly increase energy")
	_ = energy.Default22nm() // model documented in internal/energy
}

func bandwidthRows(ctx context.Context, h *Harness, w io.Writer, title string, cfgs [][2]string) {
	t := metrics.NewTable(title, "config", "MTPS", "SPEC", "GAP")
	for _, c := range cfgs {
		label := c[0]
		if c[1] != "" {
			label += "+" + c[1]
		}
		for _, d := range []struct {
			name string
			mtps string
		}{{"", "6400"}, {"ddr4-3200", "3200"}, {"ddr3-1600", "1600"}} {
			spec := h.GeomeanSpeedup(ctx, MemIntSuite("spec"),
				func(wl string) RunSpec {
					return RunSpec{Workload: wl, L1DPf: c[0], L2Pf: c[1], DRAMCfg: d.name}
				},
				func(wl string) RunSpec {
					return RunSpec{Workload: wl, L1DPf: "ip-stride", DRAMCfg: d.name}
				})
			gap := h.GeomeanSpeedup(ctx, MemIntSuite("gap"),
				func(wl string) RunSpec {
					return RunSpec{Workload: wl, L1DPf: c[0], L2Pf: c[1], DRAMCfg: d.name}
				},
				func(wl string) RunSpec {
					return RunSpec{Workload: wl, L1DPf: "ip-stride", DRAMCfg: d.name}
				})
			t.AddRow(label, d.mtps, spec, gap)
		}
	}
	fmt.Fprintln(w, t)
}

func runFig16(ctx context.Context, h *Harness, w io.Writer) {
	bandwidthRows(ctx, h, w, "Figure 16: L1D prefetchers under constrained DRAM bandwidth",
		[][2]string{{"mlop", ""}, {"ipcp", ""}, {"berti", ""}})
	fmt.Fprintln(w, "shape target: GAP insensitive to bandwidth; SPEC loses a few percent at 1600 MTPS")
}

func runFig17(ctx context.Context, h *Harness, w io.Writer) {
	bandwidthRows(ctx, h, w, "Figure 17: multi-level prefetching under constrained DRAM bandwidth",
		[][2]string{{"berti", "spp-ppf"}, {"mlop", "bingo"}})
}

func runFig18(ctx context.Context, h *Harness, w io.Writer) {
	names := CloudSuiteNames()
	t := metrics.NewTable("Figure 18: CloudSuite-like speedup over IP-stride",
		"workload", "mlop", "ipcp", "berti", "berti+spp-ppf")
	for _, n := range names {
		specs := []RunSpec{baseSpec(n)}
		for _, c := range [][2]string{{"mlop", ""}, {"ipcp", ""}, {"berti", ""}, {"berti", "spp-ppf"}} {
			specs = append(specs, RunSpec{Workload: n, L1DPf: c[0], L2Pf: c[1]})
		}
		out := h.runAll(ctx, specs)
		row := []interface{}{n}
		for _, r := range out[1:] {
			row = append(row, SpeedupOver(r, out[0]))
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: small gains everywhere (low data MPKI);")
	fmt.Fprintln(w, "classification_like favours the accurate prefetcher (Berti)")
}

func runFig19(ctx context.Context, h *Harness, w io.Writer) {
	t := metrics.NewTable("Figure 19: MISB at L2 under each L1D prefetcher",
		"config", "CLOUD", "SPEC", "GAP")
	for _, l1 := range L1DPrefetchers {
		for _, l2 := range []string{"", "misb"} {
			label := l1
			if l2 != "" {
				label += "+misb"
			}
			cloud := h.GeomeanSpeedup(ctx, CloudSuiteNames(),
				func(wl string) RunSpec { return RunSpec{Workload: wl, L1DPf: l1, L2Pf: l2} },
				baseSpec)
			t.AddRow(label, cloud,
				h.suiteSpeedup(ctx, MemIntSuite("spec"), l1, l2),
				h.suiteSpeedup(ctx, MemIntSuite("gap"), l1, l2))
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: MISB helps the temporally-correlated cloud traces;")
	fmt.Fprintln(w, "it does not help SPEC/GAP")
}

// Mixes returns n deterministic heterogeneous 4-core mixes over the
// memory-intensive workloads.
func Mixes(n int) [][]string {
	names := MemIntSuite("all")
	var out [][]string
	state := uint64(0x9E3779B97F4A7C15)
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(m))
	}
	for i := 0; i < n; i++ {
		mix := make([]string, 4)
		for c := range mix {
			mix[c] = names[next(len(names))]
		}
		out = append(out, mix)
	}
	return out
}

// mixSpeedup computes the geomean over cores of per-core IPC ratio vs the
// same mix under the baseline config.
func mixSpeedup(r, base []float64) float64 {
	ratios := make([]float64, len(r))
	for i := range r {
		if base[i] > 0 {
			ratios[i] = r[i] / base[i]
		}
	}
	return metrics.Geomean(ratios)
}

func runFig20(ctx context.Context, h *Harness, w io.Writer) {
	mixes := Mixes(h.Scale.Mixes)
	t := metrics.NewTable(
		fmt.Sprintf("Figure 20: 4-core mixes (%d), speedup over IP-stride", len(mixes)),
		"config", "geomean-speedup")
	cfgs := [][2]string{
		{"mlop", ""}, {"ipcp", ""}, {"berti", ""},
		{"mlop", "bingo"}, {"berti", "spp-ppf"},
	}
	for _, c := range cfgs {
		label := c[0]
		if c[1] != "" {
			label += "+" + c[1]
		}
		var specs []RunSpec
		for mi, mix := range mixes {
			specs = append(specs,
				RunSpec{Mix: mix, L1DPf: c[0], L2Pf: c[1], Seed: int64(mi) * 16},
				RunSpec{Mix: mix, L1DPf: "ip-stride", Seed: int64(mi) * 16})
		}
		out := h.runAll(ctx, specs)
		var sps []float64
		for mi := range mixes {
			r, b := out[2*mi], out[2*mi+1]
			var ripc, bipc []float64
			for ci := range r.Cores {
				ripc = append(ripc, r.Cores[ci].IPC)
				bipc = append(bipc, b.Cores[ci].IPC)
			}
			sps = append(sps, mixSpeedup(ripc, bipc))
		}
		t.AddRow(label, metrics.Geomean(sps))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti best, with a larger margin than single-core")
	fmt.Fprintln(w, "(bandwidth contention rewards accuracy)")
}
