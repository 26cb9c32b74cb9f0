// Package berti_test hosts the repository's benchmark targets: one
// macro-benchmark per table and figure of the paper (regenerating it via
// the experiment harness) plus micro-benchmarks of the core structures.
//
// The macro-benchmarks share one memoized harness, so the first iteration
// of each benchmark performs the real simulations and later iterations
// only re-aggregate; run with -benchtime=1x for pure regeneration timing.
// Experiment tables are printed with -v via b.Log.
//
// Scale defaults to "quick" for benchmarks; override with BERTI_SCALE.
package berti_test

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/metrics"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/tracestore"
	"github.com/bertisim/berti/internal/workloads"
)

var (
	benchH    *harness.Harness
	benchOnce sync.Once
)

func benchHarness() *harness.Harness {
	benchOnce.Do(func() {
		scale := harness.ScaleQuick
		if os.Getenv("BERTI_SCALE") != "" {
			scale = harness.ScaleFromEnv()
		}
		benchH = harness.New(scale)
	})
	return benchH
}

// benchExperiment regenerates one paper table/figure per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := harness.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	h := benchHarness()
	var out string
	for i := 0; i < b.N; i++ {
		h.RunManyContext(context.Background(), harness.Plan(h.Scale, []harness.Experiment{e}))
		out = metrics.Format(e.Tables(h.Runs(context.Background())))
	}
	if out == "" {
		b.Fatal("experiment produced no output")
	}
	b.Log("\n" + out)
}

// One benchmark per evaluation artifact (see DESIGN.md §4).

func BenchmarkFig1Accuracy(b *testing.B)            { benchExperiment(b, "Fig1Accuracy") }
func BenchmarkFig1Energy(b *testing.B)              { benchExperiment(b, "Fig1Energy") }
func BenchmarkFig3LocalVsGlobal(b *testing.B)       { benchExperiment(b, "Fig3LocalVsGlobal") }
func BenchmarkTab1Storage(b *testing.B)             { benchExperiment(b, "Tab1Storage") }
func BenchmarkTab2Config(b *testing.B)              { benchExperiment(b, "Tab2Config") }
func BenchmarkTab3PrefConfig(b *testing.B)          { benchExperiment(b, "Tab3PrefConfig") }
func BenchmarkFig7SpeedupVsStorage(b *testing.B)    { benchExperiment(b, "Fig7SpeedupVsStorage") }
func BenchmarkFig8L1DSpeedup(b *testing.B)          { benchExperiment(b, "Fig8L1DSpeedup") }
func BenchmarkFig9PerTrace(b *testing.B)            { benchExperiment(b, "Fig9PerTrace") }
func BenchmarkFig10AccuracyTimeliness(b *testing.B) { benchExperiment(b, "Fig10AccuracyTimeliness") }
func BenchmarkFig11MPKI(b *testing.B)               { benchExperiment(b, "Fig11MPKI") }
func BenchmarkFig12MultiLevel(b *testing.B)         { benchExperiment(b, "Fig12MultiLevel") }
func BenchmarkFig13MultiLevelMPKI(b *testing.B)     { benchExperiment(b, "Fig13MultiLevelMPKI") }
func BenchmarkFig14Traffic(b *testing.B)            { benchExperiment(b, "Fig14Traffic") }
func BenchmarkFig15Energy(b *testing.B)             { benchExperiment(b, "Fig15Energy") }
func BenchmarkFig16BandwidthL1D(b *testing.B)       { benchExperiment(b, "Fig16BandwidthL1D") }
func BenchmarkFig17BandwidthML(b *testing.B)        { benchExperiment(b, "Fig17BandwidthML") }
func BenchmarkFig18CloudSuite(b *testing.B)         { benchExperiment(b, "Fig18CloudSuite") }
func BenchmarkFig19MISB(b *testing.B)               { benchExperiment(b, "Fig19MISB") }
func BenchmarkFig20MultiCore(b *testing.B)          { benchExperiment(b, "Fig20MultiCore") }
func BenchmarkFig21Watermarks(b *testing.B)         { benchExperiment(b, "Fig21Watermarks") }
func BenchmarkFig22TableSizes(b *testing.B)         { benchExperiment(b, "Fig22TableSizes") }
func BenchmarkAblLatencyBits(b *testing.B)          { benchExperiment(b, "AblLatencyBits") }
func BenchmarkAblCrossPage(b *testing.B)            { benchExperiment(b, "AblCrossPage") }
func BenchmarkAblIdealL1D(b *testing.B)             { benchExperiment(b, "AblIdealL1D") }
func BenchmarkAblCalibration(b *testing.B)          { benchExperiment(b, "AblCalibration") }
func BenchmarkAblPythia(b *testing.B)               { benchExperiment(b, "AblPythia") }
func BenchmarkAblPerIP(b *testing.B)                { benchExperiment(b, "AblPerIP") }

// Micro-benchmarks.

// BenchmarkBertiOnAccess measures the prefetcher's per-access cost (the
// hardware-critical-path analogue: table lookup + prediction).
func BenchmarkBertiOnAccess(b *testing.B) {
	p := core.New(core.DefaultConfig())
	// Warm the tables with a stride pattern.
	for i := uint64(0); i < 1024; i++ {
		p.OnAccess(cache.AccessEvent{IP: 0x400040, LineAddr: 1000 + 4*i, Cycle: 100 * i, Hit: false})
		p.OnFill(cache.FillEvent{IP: 0x400040, LineAddr: 1000 + 4*i, Cycle: 100*i + 300, Latency: 300})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnAccess(cache.AccessEvent{
			IP: 0x400040, LineAddr: 1000 + 4*uint64(i), Cycle: uint64(i) * 30,
			Hit: true, MSHRCap: 16,
		})
	}
}

// BenchmarkBertiTrainingSearch measures the timely-delta history search.
func BenchmarkBertiTrainingSearch(b *testing.B) {
	p := core.New(core.DefaultConfig())
	for i := uint64(0); i < 128; i++ {
		p.OnAccess(cache.AccessEvent{IP: 0x400040, LineAddr: 1000 + 4*i, Cycle: 100 * i, Hit: false})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnFill(cache.FillEvent{
			IP: 0x400040, LineAddr: 1000 + 4*uint64(i%1024),
			Cycle: uint64(i) * 100, Latency: 280,
		})
	}
}

// BenchmarkSimulatorThroughput reports simulated cycles per wall second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workloads.ByName("roms_like")
	tr := w.Gen(workloads.GenConfig{MemRecords: 50_000, Seed: 1})
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.WarmupInstructions = 10_000
		cfg.SimInstructions = 100_000
		m := sim.MustNew(cfg, []trace.Reader{trace.NewSliceReader(tr)}, func() cache.Prefetcher { return core.New(core.DefaultConfig()) }, nil)
		res := sim.MustRun(m)
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkTraceGeneration measures workload generator throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	w, _ := workloads.ByName("mcf_like_1554")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := w.Gen(workloads.GenConfig{MemRecords: 100_000, Seed: int64(i)})
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTraceEncode measures the v2 container encoder.
func BenchmarkTraceEncode(b *testing.B) {
	w, _ := workloads.ByName("bfs-kron")
	tr := w.Gen(workloads.GenConfig{MemRecords: 100_000, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tracestore.Write(&buf, tr, tracestore.Meta{}); err != nil {
			b.Fatal(err)
		}
	}
}
