package harness

import (
	"fmt"
	"strings"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/energy"
	"github.com/bertisim/berti/internal/metrics"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/prefetch/bop"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/workloads"
)

func fig1Accuracy(r *Runs) []*metrics.Table {
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
	t.Notes = []string{"shape target: Berti ~0.9; others well below, GAP worse than SPEC for IPCP"}
	return []*metrics.Table{t}
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

func fig1Energy(r *Runs) []*metrics.Table {
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
	t.Notes = []string{"shape target: Berti's overhead smallest among the prefetchers"}
	return []*metrics.Table{t}
}

// fig3 inspects learned state directly: it simulates mcf-like accesses
// with a Berti and with a BOP L1D prefetcher and tabulates Berti's per-IP
// deltas against BOP's single global offset. It is the one experiment that
// reads no sim.Result, so it asks Plan for nothing and instead drives its
// two machines itself, under the batch's context; while planning it
// returns nil.
func fig3(r *Runs) []*metrics.Table {
	if r.h == nil {
		return nil
	}
	failed := func(run string, err error) []*metrics.Table {
		return []*metrics.Table{{Notes: []string{fmt.Sprintf("Figure 3 failed (%s run): %v", run, err)}}}
	}
	berti, _, err := fig3Run(r, "berti")
	if err != nil {
		return failed("berti", err)
	}
	bopPf, res, err := fig3Run(r, "bop")
	if err != nil {
		return failed("bop", err)
	}
	t := metrics.NewTable("Figure 3: local (per-IP) deltas vs a global delta on mcf-like",
		"prefetcher", "context", "accuracy", "deltas[status]")
	t.AddRow("BOP", "global best offset", res.Cores[0].L1D.Accuracy(),
		fmt.Sprintf("%+d", bopPf.(*bop.Prefetcher).BestOffset()))
	for loc := 1; loc <= 5; loc++ {
		ip := workloads.IP(loc)
		deltas := "(no entry)"
		if ds := berti.(*core.Berti).SnapshotDeltas(ip); len(ds) > 0 {
			cells := make([]string, len(ds))
			for i, d := range ds {
				cells[i] = fmt.Sprintf("%+d[%s]", d.Delta, d.Status)
			}
			deltas = strings.Join(cells, " ")
		}
		t.AddRow("Berti", fmt.Sprintf("IP#%d (0x%x)", loc, ip), "", deltas)
	}
	t.Notes = []string{"shape target: each IP has its own best deltas; no single global offset covers them"}
	return []*metrics.Table{t}
}

// fig3Run simulates mcf_like_1554 with l1d as the L1D prefetcher through
// the harness's machine builder, under the batch's context, and returns
// the prefetcher with its learned state alongside the result.
func fig3Run(r *Runs, l1d string) (cache.Prefetcher, *sim.Result, error) {
	m, cleanup, err := r.h.newMachine(RunSpec{Workload: "mcf_like_1554", L1DPf: l1d}, nil)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	m.SetContext(r.ctx)
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	return m.L1D(0).Prefetcher(), res, nil
}

func fig7(r *Runs) []*metrics.Table {
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
	t.Notes = []string{
		"shape target: Berti best among L1D prefetchers at ~2.55 KB;",
		"Berti alone >= every multi-level combo without Berti",
	}
	return []*metrics.Table{t}
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

func fig8(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Figure 8: L1D prefetcher speedup over IP-stride",
		"prefetcher", "SPEC", "GAP", "ALL")
	for _, pf := range L1DPrefetchers {
		t.AddRow(pf,
			suiteSpeedup(r, MemIntSuite("spec"), pf, ""),
			suiteSpeedup(r, MemIntSuite("gap"), pf, ""),
			suiteSpeedup(r, MemIntSuite("all"), pf, ""))
	}
	t.Notes = []string{"shape target: Berti highest on both suites; only Berti >= 1.0 on GAP"}
	return []*metrics.Table{t}
}

func fig9(r *Runs) []*metrics.Table {
	names := MemIntSuite("all")
	t := metrics.NewTable("Figure 9: per-workload speedup over IP-stride",
		"workload", "mlop", "ipcp", "berti")
	for _, n := range names {
		specs := []RunSpec{baseSpec(n)}
		for _, pf := range L1DPrefetchers {
			specs = append(specs, RunSpec{Workload: n, L1DPf: pf})
		}
		out := r.All(specs)
		row := []any{n}
		for _, res := range out[1:] {
			row = append(row, SpeedupOver(res, out[0]))
		}
		t.AddRow(row...)
	}
	t.Notes = []string{
		"shape target: Berti wins or ties everywhere except cactu_like,",
		"where global-pattern prefetchers (MLOP) win",
	}
	return []*metrics.Table{t}
}

func fig10(r *Runs) []*metrics.Table {
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
	t.Notes = []string{"shape target: Berti ~0.9 accuracy and mostly timely; MLOP/IPCP lower with more late"}
	return []*metrics.Table{t}
}

func fig11(r *Runs) []*metrics.Table {
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
	t.Notes = []string{"shape target: Berti lowest (or tied) at L2/LLC thanks to its L2 preloading"}
	return []*metrics.Table{t}
}
