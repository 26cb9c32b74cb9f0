package harness

import (
	"fmt"
	"io"

	"github.com/bertisim/berti/internal/energy"
	"github.com/bertisim/berti/internal/metrics"
)

func renderFig12(r *Runs, w io.Writer) {
	t := metrics.NewTable("Figure 12: multi-level prefetching speedup over IP-stride",
		"config", "SPEC", "GAP", "ALL")
	t.AddRow("Berti (L1D only)",
		suiteSpeedup(r, MemIntSuite("spec"), "berti", ""),
		suiteSpeedup(r, MemIntSuite("gap"), "berti", ""),
		suiteSpeedup(r, MemIntSuite("all"), "berti", ""))
	for _, c := range MultiLevelCombos {
		label := c.L1 + "+" + c.L2
		t.AddRow(label,
			suiteSpeedup(r, MemIntSuite("spec"), c.L1, c.L2),
			suiteSpeedup(r, MemIntSuite("gap"), c.L1, c.L2),
			suiteSpeedup(r, MemIntSuite("all"), c.L1, c.L2))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti alone >= every combo without Berti; adding an L2")
	fmt.Fprintln(w, "prefetcher on top of Berti gains little")
}

func renderFig13(r *Runs, w io.Writer) {
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
			for _, res := range r.All(specsFor(names, c[0], c[1])) {
				instr := res.Config.SimInstructions
				l2 += res.Cores[0].L2.MPKI(instr)
				llc += res.LLC.MPKI(instr)
			}
			n := float64(len(names))
			t.AddRow(label, suite, l2/n, llc/n)
		}
	}
	fmt.Fprintln(w, t)
}

// trafficRatios returns (L2, LLC, DRAM) traffic normalized to no-prefetch.
func trafficRatios(r *Runs, names []string, l1, l2 string) (rl2, rllc, rdram float64) {
	var tl2, tllc, tdram, bl2, bllc, bdram float64
	out := r.All(append(specsFor(names, l1, l2), specsFor(names, "", "")...))
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

func renderFig14(r *Runs, w io.Writer) {
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
			a, b, d := trafficRatios(r, MemIntSuite(suite), c[0], c[1])
			t.AddRow(label, suite, a, b, d)
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: traffic increase inversely tracks accuracy; Berti lowest;")
	fmt.Fprintln(w, "L2 prefetchers (Bingo) add large off-chip traffic, especially on GAP")
}

func renderFig15(r *Runs, w io.Writer) {
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
			energyRatio(r, MemIntSuite("spec"), c[0], c[1]),
			energyRatio(r, MemIntSuite("gap"), c[0], c[1]))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti consumes the least extra energy among L1D prefetchers;")
	fmt.Fprintln(w, "L2 prefetchers on top significantly increase energy")
	_ = energy.Default22nm() // model documented in internal/energy
}

func bandwidthRows(r *Runs, w io.Writer, title string, cfgs [][2]string) {
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
			spec := GeomeanSpeedup(r, MemIntSuite("spec"),
				func(wl string) RunSpec {
					return RunSpec{Workload: wl, L1DPf: c[0], L2Pf: c[1], DRAMCfg: d.name}
				},
				func(wl string) RunSpec {
					return RunSpec{Workload: wl, L1DPf: "ip-stride", DRAMCfg: d.name}
				})
			gap := GeomeanSpeedup(r, MemIntSuite("gap"),
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

func renderFig16(r *Runs, w io.Writer) {
	bandwidthRows(r, w, "Figure 16: L1D prefetchers under constrained DRAM bandwidth",
		[][2]string{{"mlop", ""}, {"ipcp", ""}, {"berti", ""}})
	fmt.Fprintln(w, "shape target: GAP insensitive to bandwidth; SPEC loses a few percent at 1600 MTPS")
}

func renderFig17(r *Runs, w io.Writer) {
	bandwidthRows(r, w, "Figure 17: multi-level prefetching under constrained DRAM bandwidth",
		[][2]string{{"berti", "spp-ppf"}, {"mlop", "bingo"}})
}

func renderFig18(r *Runs, w io.Writer) {
	names := CloudSuiteNames()
	t := metrics.NewTable("Figure 18: CloudSuite-like speedup over IP-stride",
		"workload", "mlop", "ipcp", "berti", "berti+spp-ppf")
	for _, n := range names {
		specs := []RunSpec{baseSpec(n)}
		for _, c := range [][2]string{{"mlop", ""}, {"ipcp", ""}, {"berti", ""}, {"berti", "spp-ppf"}} {
			specs = append(specs, RunSpec{Workload: n, L1DPf: c[0], L2Pf: c[1]})
		}
		out := r.All(specs)
		row := []interface{}{n}
		for _, res := range out[1:] {
			row = append(row, SpeedupOver(res, out[0]))
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: small gains everywhere (low data MPKI);")
	fmt.Fprintln(w, "classification_like favours the accurate prefetcher (Berti)")
}

func renderFig19(r *Runs, w io.Writer) {
	t := metrics.NewTable("Figure 19: MISB at L2 under each L1D prefetcher",
		"config", "CLOUD", "SPEC", "GAP")
	for _, l1 := range L1DPrefetchers {
		for _, l2 := range []string{"", "misb"} {
			label := l1
			if l2 != "" {
				label += "+misb"
			}
			cloud := GeomeanSpeedup(r, CloudSuiteNames(),
				func(wl string) RunSpec { return RunSpec{Workload: wl, L1DPf: l1, L2Pf: l2} },
				baseSpec)
			t.AddRow(label, cloud,
				suiteSpeedup(r, MemIntSuite("spec"), l1, l2),
				suiteSpeedup(r, MemIntSuite("gap"), l1, l2))
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

func renderFig20(r *Runs, w io.Writer) {
	mixes := Mixes(r.Scale.Mixes)
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
		out := r.All(specs)
		var sps []float64
		for mi := range mixes {
			res, b := out[2*mi], out[2*mi+1]
			var ripc, bipc []float64
			for ci := range res.Cores {
				ripc = append(ripc, res.Cores[ci].IPC)
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
