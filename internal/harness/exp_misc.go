package harness

import (
	"fmt"

	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/metrics"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/sim"
)

// ablPerIP compares the paper's per-IP local deltas against the same
// machinery keyed by page (the DPC-3 Berti the design evolved from) — the
// choice the paper's title is about.
func ablPerIP(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Ablation: per-IP (local) vs per-page delta context",
		"keying", "SPEC", "GAP")
	for _, c := range []struct{ label, pf string }{
		{"per-IP (paper)", "berti"},
		{"per-page (DPC-3)", "berti-dpc3"},
	} {
		t.AddRow(c.label,
			suiteSpeedup(r, MemIntSuite("spec"), c.pf, ""),
			suiteSpeedup(r, MemIntSuite("gap"), c.pf, ""))
	}
	t.Notes = []string{"the paper's thesis: IP-local context beats page context for delta selection"}
	return []*metrics.Table{t}
}

// ablPythia reproduces the Section V claim: Pythia is a capable L2
// prefetcher on its own, but adds less than ~1% once Berti runs at the L1D.
func ablPythia(r *Runs) []*metrics.Table {
	names := MemIntSuite("all")
	t := metrics.NewTable("Ablation: Pythia at L2 vs Berti at L1D (speedup over IP-stride)",
		"config", "ALL")
	cfgs := []struct {
		label, l1, l2 string
	}{
		{"pythia (L2 only)", "ip-stride", "pythia"},
		{"berti (L1D only)", "berti", ""},
		{"berti + pythia", "berti", "pythia"},
	}
	for _, c := range cfgs {
		t.AddRow(c.label, suiteSpeedup(r, names, c.l1, c.l2))
	}
	t.Notes = []string{"paper: with Berti at the L1D, Pythia adds <1%"}
	return []*metrics.Table{t}
}

// ablCalibration ablates the Berti calibration decision this
// reproduction adds on top of the paper's text (DESIGN.md §6): the
// timeliness margin on the timely-delta search.
func ablCalibration(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Ablation: reproduction calibration knob (speedup over IP-stride)",
		"margin-%", "speedup")
	for _, margin := range []int{0, 25, 50} {
		cfg := core.DefaultConfig()
		cfg.TimelinessMarginPct = margin
		t.AddRow(margin, bertiVariantSpeedup(r, cfg))
	}
	t.Notes = []string{"defaults: margin 25%; the medium band issues on every access (see DESIGN.md §6 for rationale)"}
	return []*metrics.Table{t}
}

// ablIdeal reproduces the Section IV-G observation: for CloudSuite-like
// traces even an ideal L1D prefetcher gains little, while the MemInt suites
// have large headroom.
func ablIdeal(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Ablation: ideal L1D prefetcher headroom (speedup over IP-stride)",
		"workload", "berti", "ideal")
	names := append(append([]string{}, CloudSuiteNames()...), SensitivitySubset()...)
	for _, n := range names {
		out := r.All([]RunSpec{baseSpec(n), {Workload: n, L1DPf: "berti"}, {Workload: n, L1DPf: "oracle"}})
		t.AddRow(n, SpeedupOver(out[1], out[0]), SpeedupOver(out[2], out[0]))
	}
	t.Notes = []string{
		"paper: cloud traces show little headroom even for an ideal prefetcher;",
		"Berti approaches the oracle where local deltas exist",
	}
	return []*metrics.Table{t}
}

func tab1(r *Runs) []*metrics.Table {
	cfg := core.DefaultConfig()
	b := core.New(cfg)
	histEntryBits := 7 + cfg.LineAddrBits + cfg.TimestampBits
	histBits := cfg.HistorySets*cfg.HistoryWays*histEntryBits + cfg.HistorySets*4
	deltaBits := cfg.DeltaTableEntries*(10+4+cfg.DeltasPerEntry*(cfg.DeltaBits+4+2)) + 4
	queueBits := (cfg.PQEntries + cfg.MSHREntries) * cfg.TimestampBits
	l1dBits := cfg.L1DLines * cfg.LatencyBits

	t := metrics.NewTable("Table I: Berti storage overhead", "structure", "geometry", "KB")
	kb := func(bits int) float64 { return float64(bits) / 8 / 1024 }
	t.AddRow("History table",
		fmt.Sprintf("%d-set, %d-way, %d-bit entries", cfg.HistorySets, cfg.HistoryWays, histEntryBits),
		fmt.Sprintf("%.2f", kb(histBits)))
	t.AddRow("Table of deltas",
		fmt.Sprintf("%d-entry FA, %d deltas each", cfg.DeltaTableEntries, cfg.DeltasPerEntry),
		fmt.Sprintf("%.2f", kb(deltaBits)))
	t.AddRow("PQ + MSHR timestamps",
		fmt.Sprintf("%d+%d entries x %d bits", cfg.PQEntries, cfg.MSHREntries, cfg.TimestampBits),
		fmt.Sprintf("%.2f", kb(queueBits)))
	t.AddRow("L1D latency metadata",
		fmt.Sprintf("%d lines x %d bits", cfg.L1DLines, cfg.LatencyBits),
		fmt.Sprintf("%.2f", kb(l1dBits)))
	t.AddRow("Total", "", fmt.Sprintf("%.2f", kb(b.StorageBits())))
	t.Notes = []string{"paper value: 2.55 KB"}
	return []*metrics.Table{t}
}

func tab2(r *Runs) []*metrics.Table {
	c := sim.DefaultConfig()
	t := metrics.NewTable("Table II: baseline system", "component", "configuration")
	t.AddRow("Core", fmt.Sprintf("OoO approx, %d-entry window, %d-issue, %d-retire, %dld/%dst ports",
		c.Core.ROBSize, c.Core.IssueWidth, c.Core.RetireWidth, c.Core.LoadPorts, c.Core.StorePorts))
	t.AddRow("TLBs", fmt.Sprintf("dTLB %d-entry/%d-way %dcyc; STLB %d-entry/%d-way %dcyc; walk %dcyc",
		c.MMU.DTLBEntries, c.MMU.DTLBWays, c.MMU.DTLBLatency,
		c.MMU.STLBEntries, c.MMU.STLBWays, c.MMU.STLBLatency, c.MMU.WalkLatency))
	t.AddRow("L1D", fmt.Sprintf("%d KB, %d-way, %d cyc, %d MSHRs, %s",
		c.L1D.SizeBytes/1024, c.L1D.Ways, c.L1D.LatencyCyc, c.L1D.MSHRs, c.L1D.Repl))
	t.AddRow("L2", fmt.Sprintf("%d KB, %d-way, %d cyc, %d MSHRs, %s, non-inclusive",
		c.L2.SizeBytes/1024, c.L2.Ways, c.L2.LatencyCyc, c.L2.MSHRs, c.L2.Repl))
	t.AddRow("LLC", fmt.Sprintf("%d MB/core, %d-way, %d cyc, %d MSHRs, %s, non-inclusive",
		c.LLC.SizeBytes/1024/1024, c.LLC.Ways, c.LLC.LatencyCyc, c.LLC.MSHRs, c.LLC.Repl))
	t.AddRow("DRAM", fmt.Sprintf("%d banks, %d B rows, tRP/tRCD/tCAS=%d/%d/%d cyc, burst %d cyc/line, RQ/WQ %d/%d",
		c.DRAM.Banks, c.DRAM.RowBytes, c.DRAM.TRP, c.DRAM.TRCD, c.DRAM.TCAS,
		c.DRAM.BurstCycles, c.DRAM.RQSize, c.DRAM.WQSize))
	return []*metrics.Table{t}
}

func tab3(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Table III: evaluated prefetchers", "name", "level", "storage-KB", "notes")
	for _, e := range prefetch.All() {
		level := "L1D"
		if e.Level == prefetch.AtL2 {
			level = "L2"
		}
		t.AddRow(e.Name, level, float64(e.New().StorageBits())/8/1024, e.Comment)
	}
	return []*metrics.Table{t}
}

// bertiVariantSpeedup computes geomean speedup over IP-stride on the
// sensitivity subset for a Berti config.
func bertiVariantSpeedup(r *Runs, cfg core.Config) float64 {
	return GeomeanSpeedup(r, SensitivitySubset(),
		func(wl string) RunSpec {
			c := cfg
			return RunSpec{Workload: wl, L1DPf: "berti", BertiOverride: &c}
		},
		baseSpec)
}

func fig21(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Figure 21: watermark sensitivity (speedup over IP-stride, sensitivity subset)",
		"L1-watermark", "L2-watermark", "speedup")
	for _, hi := range []int{35, 50, 65, 80, 95} {
		for _, lo := range []int{15, 35, 50, 65} {
			if lo > hi {
				continue
			}
			cfg := core.DefaultConfig()
			cfg.HighWatermarkPct = hi
			cfg.MediumWatermarkPct = lo
			t.AddRow(hi, lo, bertiVariantSpeedup(r, cfg))
		}
	}
	t.Notes = []string{"paper: 65/35 is the sweet spot; many configurations still help"}
	return []*metrics.Table{t}
}

func fig22(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Figure 22: Berti table size sensitivity",
		"structure", "scale", "speedup")
	scales := []struct {
		label string
		mul   func(cfg *core.Config, f int) // f in quarters: 1=0.25x ... 16=4x
	}{
		{"history-table", func(c *core.Config, q int) {
			c.HistoryWays = max(1, c.HistoryWays*q/4)
		}},
		{"table-of-deltas", func(c *core.Config, q int) {
			c.DeltaTableEntries = max(1, c.DeltaTableEntries*q/4)
		}},
		{"num-deltas", func(c *core.Config, q int) {
			c.DeltasPerEntry = max(1, c.DeltasPerEntry*q/4)
		}},
	}
	for _, s := range scales {
		for _, q := range []int{1, 2, 4, 8, 16} {
			cfg := core.DefaultConfig()
			s.mul(&cfg, q)
			t.AddRow(s.label, fmt.Sprintf("%.2fx", float64(q)/4), bertiVariantSpeedup(r, cfg))
		}
	}
	t.Notes = []string{"paper: shrinking the table of deltas hurts the most; growing tables gains little"}
	return []*metrics.Table{t}
}

func ablLatency(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Ablation: latency counter width (Section IV.J)",
		"bits", "speedup")
	for _, bits := range []int{4, 8, 12, 32} {
		cfg := core.DefaultConfig()
		cfg.LatencyBits = bits
		t.AddRow(bits, bertiVariantSpeedup(r, cfg))
	}
	t.Notes = []string{"paper: 4 bits drops performance noticeably; 32 bits gains nothing over 12"}
	return []*metrics.Table{t}
}

func ablCrossPage(r *Runs) []*metrics.Table {
	t := metrics.NewTable("Ablation: cross-page prefetching (Section IV.J)",
		"cross-page", "speedup")
	for _, cp := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.CrossPage = cp
		t.AddRow(cp, bertiVariantSpeedup(r, cfg))
	}
	t.Notes = []string{"paper: disabling cross-page prefetching costs a few percent"}
	return []*metrics.Table{t}
}
