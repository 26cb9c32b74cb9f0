package harness

import (
	"fmt"
	"io"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/energy"
	"github.com/bertisim/berti/internal/metrics"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/prefetch/bop"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
)

// accuracyOf returns the artifact-formula accuracy for one run.
func accuracyOf(r *sim.Result) float64 { return r.Cores[0].L1D.Accuracy() }

func renderFig1Accuracy(r *Runs, w io.Writer) {
	t := metrics.NewTable("Figure 1(a): prefetch accuracy (useful fraction of prefetch fills)",
		"prefetcher", "level", "SPEC", "GAP")
	type cfgT struct {
		name, l1, l2, level string
	}
	cfgs := []cfgT{
		{"MLOP", "mlop", "", "L1D"},
		{"IPCP", "ipcp", "", "L1D"},
		{"SPP-PPF", "ip-stride", "spp-ppf", "L2"},
		{"Bingo", "ip-stride", "bingo", "L2"},
		{"Berti", "berti", "", "L1D"},
	}
	for _, c := range cfgs {
		var accs [2]float64
		for si, suite := range []string{"spec", "gap"} {
			names := MemIntSuite(suite)
			var num, den float64
			results := r.All(specsFor(names, c.l1, c.l2))
			for _, res := range results {
				st := res.Cores[0].L1D
				if c.level == "L2" {
					st = res.Cores[0].L2
				}
				num += float64(st.PrefUseful + st.PrefLate)
				den += float64(st.PrefFills)
			}
			if den > 0 {
				accs[si] = num / den
			}
		}
		t.AddRow(c.name, c.level, accs[0], accs[1])
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti ~0.9; others well below, GAP worse than SPEC for IPCP")
}

func specsFor(names []string, l1, l2 string) []RunSpec {
	specs := make([]RunSpec, len(names))
	for i, n := range names {
		specs[i] = RunSpec{Workload: n, L1DPf: l1, L2Pf: l2}
	}
	return specs
}

// energyRatio returns total dynamic energy normalized to the no-prefetch
// run, averaged (arithmetic mean of ratios) across the names.
func energyRatio(r *Runs, names []string, l1, l2 string) float64 {
	specs := make([]RunSpec, 0, 2*len(names))
	for _, name := range names {
		specs = append(specs, RunSpec{Workload: name, L1DPf: l1, L2Pf: l2}, RunSpec{Workload: name})
	}
	out := r.All(specs)
	model := energy.Default22nm()
	var sum float64
	var n int
	for i := 0; i < len(out); i += 2 {
		er := energy.Compute(model, out[i]).Total()
		eb := energy.Compute(model, out[i+1]).Total()
		if eb > 0 {
			sum += er / eb
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func renderFig1Energy(r *Runs, w io.Writer) {
	t := metrics.NewTable("Figure 1(b)/15: dynamic energy normalized to no prefetching",
		"prefetcher", "SPEC", "GAP")
	cfgs := []struct{ name, l1, l2 string }{
		{"IP-stride", "ip-stride", ""},
		{"MLOP", "mlop", ""},
		{"IPCP", "ipcp", ""},
		{"SPP-PPF(L2)", "ip-stride", "spp-ppf"},
		{"Bingo(L2)", "ip-stride", "bingo"},
		{"Berti", "berti", ""},
	}
	for _, c := range cfgs {
		spec := energyRatio(r, MemIntSuite("spec"), c.l1, c.l2)
		gap := energyRatio(r, MemIntSuite("gap"), c.l1, c.l2)
		t.AddRow(c.name, spec, gap)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti's overhead smallest among the prefetchers")
}

// renderFig3 inspects learned state directly: it replays mcf-like accesses
// into a Berti and a BOP instance inside full simulations and dumps the
// per-IP deltas vs. the single global offset. It is the one renderer that
// reads no sim.Result, so it asks Plan for nothing and instead drives its
// two machines itself, under the batch's context; while planning it does
// nothing.
func renderFig3(r *Runs, w io.Writer) {
	if r.h == nil {
		return
	}
	tr, err := r.h.Trace("mcf_like_1554", 0)
	if err != nil {
		fmt.Fprintf(w, "Figure 3 failed: %v\n", err)
		return
	}
	cfg := sim.DefaultConfig()
	cfg.WarmupInstructions = r.Scale.WarmupInstr
	cfg.SimInstructions = r.Scale.SimInstr

	var berti *core.Berti
	var bopPf *bop.Prefetcher
	m := sim.MustNew(cfg, []trace.Reader{trace.NewLoopReader(tr)}, func() cache.Prefetcher {
		berti = core.New(core.DefaultConfig())
		return berti
	}, nil)
	m.SetContext(r.ctx)
	if _, err := m.Run(); err != nil {
		fmt.Fprintf(w, "Figure 3 failed (berti run): %v\n", err)
		return
	}
	m2 := sim.MustNew(cfg, []trace.Reader{trace.NewLoopReader(tr)}, func() cache.Prefetcher {
		bopPf = bop.New(bop.DefaultConfig())
		return bopPf
	}, nil)
	m2.SetContext(r.ctx)
	res2, err := m2.Run()
	if err != nil {
		fmt.Fprintf(w, "Figure 3 failed (bop run): %v\n", err)
		return
	}

	fmt.Fprintf(w, "== Figure 3: local (per-IP) deltas vs a global delta on mcf-like ==\n")
	fmt.Fprintf(w, "BOP global best offset: %+d (accuracy %.2f)\n",
		bopPf.BestOffset(), res2.Cores[0].L1D.Accuracy())
	ips := []uint64{1, 2, 3, 4, 5}
	for _, loc := range ips {
		ip := ipOf(int(loc))
		ds := berti.SnapshotDeltas(ip)
		fmt.Fprintf(w, "Berti IP#%d (0x%x): ", loc, ip)
		if len(ds) == 0 {
			fmt.Fprintf(w, "(no entry)\n")
			continue
		}
		for _, d := range ds {
			fmt.Fprintf(w, "%+d[%s] ", d.Delta, d.Status)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "shape target: each IP has its own best deltas; no single global offset covers them")
}

// ipOf mirrors workloads.IP without importing it here (cycle avoidance is
// not needed, but keeps the harness decoupled from generator internals).
func ipOf(loc int) uint64 { return 0x400000 + uint64(loc)*21 }

func renderFig7(r *Runs, w io.Writer) {
	names := MemIntSuite("all")
	t := metrics.NewTable("Figure 7: geomean speedup (SPEC+GAP) vs storage",
		"config", "storage-KB", "speedup-vs-ipstride")
	type cfgT struct {
		label, l1, l2 string
	}
	cfgs := []cfgT{
		{"IP-stride (L1D)", "ip-stride", ""},
		{"MLOP (L1D)", "mlop", ""},
		{"IPCP (L1D)", "ipcp", ""},
		{"Berti (L1D)", "berti", ""},
		{"SPP-PPF (L2)", "ip-stride", "spp-ppf"},
		{"Bingo (L2)", "ip-stride", "bingo"},
		{"MLOP+Bingo", "mlop", "bingo"},
		{"MLOP+SPP-PPF", "mlop", "spp-ppf"},
		{"IPCP+IPCP", "ipcp", "ipcp-l2"},
		{"Berti+Bingo", "berti", "bingo"},
		{"Berti+SPP-PPF", "berti", "spp-ppf"},
	}
	for _, c := range cfgs {
		sp := suiteSpeedup(r, names, c.l1, c.l2)
		t.AddRow(c.label, storageKB(c.l1, c.l2), sp)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti best among L1D prefetchers at ~2.55 KB;")
	fmt.Fprintln(w, "Berti alone >= every multi-level combo without Berti")
}

// storageKB sums the registry designs' declared storage.
func storageKB(names ...string) float64 {
	bits := 0
	for _, n := range names {
		if n == "" {
			continue
		}
		if e, ok := prefetch.ByName(n); ok {
			bits += e.New().StorageBits()
		}
	}
	return float64(bits) / 8 / 1024
}

func renderFig8(r *Runs, w io.Writer) {
	t := metrics.NewTable("Figure 8: L1D prefetcher speedup over IP-stride",
		"prefetcher", "SPEC", "GAP", "ALL")
	for _, pf := range L1DPrefetchers {
		t.AddRow(pf,
			suiteSpeedup(r, MemIntSuite("spec"), pf, ""),
			suiteSpeedup(r, MemIntSuite("gap"), pf, ""),
			suiteSpeedup(r, MemIntSuite("all"), pf, ""))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti highest on both suites; only Berti >= 1.0 on GAP")
}

func renderFig9(r *Runs, w io.Writer) {
	names := MemIntSuite("all")
	t := metrics.NewTable("Figure 9: per-workload speedup over IP-stride",
		"workload", "mlop", "ipcp", "berti")
	for _, n := range names {
		specs := []RunSpec{baseSpec(n)}
		for _, pf := range L1DPrefetchers {
			specs = append(specs, RunSpec{Workload: n, L1DPf: pf})
		}
		out := r.All(specs)
		row := []interface{}{n}
		for _, res := range out[1:] {
			row = append(row, SpeedupOver(res, out[0]))
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti wins or ties everywhere except cactu_like,")
	fmt.Fprintln(w, "where global-pattern prefetchers (MLOP) win")
}

func renderFig10(r *Runs, w io.Writer) {
	t := metrics.NewTable("Figure 10: L1D accuracy, split timely vs late",
		"prefetcher", "suite", "accuracy", "timely-frac")
	for _, pf := range L1DPrefetchers {
		for _, suite := range []string{"spec", "gap"} {
			names := MemIntSuite(suite)
			var useful, late, fills float64
			for _, res := range r.All(specsFor(names, pf, "")) {
				st := res.Cores[0].L1D
				useful += float64(st.PrefUseful)
				late += float64(st.PrefLate)
				fills += float64(st.PrefFills)
			}
			acc, timely := 0.0, 0.0
			if fills > 0 {
				acc = (useful + late) / fills
			}
			if useful+late > 0 {
				timely = useful / (useful + late)
			}
			t.AddRow(pf, suite, acc, timely)
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti ~0.9 accuracy and mostly timely; MLOP/IPCP lower with more late")
}

func renderFig11(r *Runs, w io.Writer) {
	t := metrics.NewTable("Figure 11: demand MPKI with L1D prefetchers",
		"config", "suite", "L1D", "L2", "LLC")
	cfgs := append([]string{"ip-stride"}, L1DPrefetchers...)
	for _, pf := range cfgs {
		for _, suite := range []string{"spec", "gap"} {
			names := MemIntSuite(suite)
			var l1, l2, llc float64
			for _, res := range r.All(specsFor(names, pf, "")) {
				instr := res.Config.SimInstructions
				l1 += res.Cores[0].L1D.MPKI(instr)
				l2 += res.Cores[0].L2.MPKI(instr)
				llc += res.LLC.MPKI(instr)
			}
			n := float64(len(names))
			t.AddRow(pf, suite, l1/n, l2/n, llc/n)
		}
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "shape target: Berti lowest (or tied) at L2/LLC thanks to its L2 preloading")
}
