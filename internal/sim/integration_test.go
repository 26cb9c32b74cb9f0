package sim

import (
	"testing"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/prefetch/spp"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/workloads"
	_ "github.com/bertisim/berti/internal/workloads/speclike"
)

// bertiFactory builds the default Berti.
func bertiFactory() cache.Prefetcher { return core.New(core.DefaultConfig()) }

// TestBertiLearnsAndCoversChains is the package-level integration test for
// the full pipeline: trace -> core -> hierarchy -> Berti training ->
// prefetch fills -> measurable speedup.
func TestBertiLearnsAndCoversChains(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	w, _ := workloads.ByName("mcf_like_1554")
	tr := w.Gen(workloads.GenConfig{MemRecords: 120_000, Seed: 1})
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 80_000
	cfg.SimInstructions = 200_000

	base := mustRunOnce(cfg, tr, nil, nil)
	withBerti := mustRunOnce(cfg, tr, bertiFactory, nil)

	if sp := withBerti.IPC() / base.IPC(); sp < 1.5 {
		t.Fatalf("Berti speedup on chains = %.3f, want > 1.5", sp)
	}
	l1 := withBerti.Cores[0].L1D
	if acc := l1.Accuracy(); acc < 0.85 {
		t.Fatalf("accuracy %.3f below the paper's profile", acc)
	}
	if l1.PrefUseful == 0 {
		t.Fatal("no useful prefetches")
	}
	if withBerti.Cores[0].L1D.MPKI(cfg.SimInstructions) >= base.Cores[0].L1D.MPKI(cfg.SimInstructions) {
		t.Fatal("coverage did not reduce L1D MPKI")
	}
}

// TestBertiL2FillsLandAtL2 verifies fill-level plumbing end to end: Berti's
// medium-band prefetches must install at L2 (not L1D) and convert L1D
// misses into fast L2 hits.
func TestBertiL2FillsLandAtL2(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	w, _ := workloads.ByName("lbm_like")
	tr := w.Gen(workloads.GenConfig{MemRecords: 120_000, Seed: 1})
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 80_000
	cfg.SimInstructions = 200_000
	res := mustRunOnce(cfg, tr, bertiFactory, nil)
	if res.Cores[0].L2.PrefFills == 0 {
		t.Fatal("no prefetch fills reached L2")
	}
	if res.Cores[0].L2.PrefUseful == 0 {
		t.Fatal("L2 prefetch fills never hit")
	}
}

// TestL2PrefetcherIntegration wires SPP at L2 under an IP-stride L1D and
// checks it trains on the filtered stream and fills usefully.
func TestL2PrefetcherIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	w, _ := workloads.ByName("roms_like")
	tr := w.Gen(workloads.GenConfig{MemRecords: 120_000, Seed: 1})
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 60_000
	cfg.SimInstructions = 150_000
	res := mustRunOnce(cfg, tr, nil, func() cache.Prefetcher { return spp.New(spp.DefaultConfig()) })
	l2 := res.Cores[0].L2
	if l2.PrefFills == 0 {
		t.Fatal("SPP at L2 never filled")
	}
	if float64(l2.PrefUseful)/float64(l2.PrefFills) < 0.5 {
		t.Fatalf("SPP on a pure stream should be mostly useful: %d/%d",
			l2.PrefUseful, l2.PrefFills)
	}
}

// TestLoopReaderMixFairness: in a 2-core mix of unequal traces both cores
// must be measured over the same instruction budget (the paper's replay
// methodology).
func TestLoopReaderMixFairness(t *testing.T) {
	fast := strideTrace(20_000, 0, 3) // all hits
	slow := chainTrace(20_000, 1)     // serialized misses
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.WarmupInstructions = 5_000
	cfg.SimInstructions = 30_000
	m := MustNew(cfg, []trace.Reader{
		trace.NewLoopReader(fast),
		trace.NewLoopReader(slow),
	}, nil, nil)
	res := MustRun(m)
	// The fast core replays its trace until the slow core finishes (the
	// paper's methodology), so it retires MORE than the budget in total;
	// its IPC is still measured over exactly SimInstructions. The slow
	// core ends the run at exactly the budget.
	if res.Cores[0].Core.Instructions < cfg.SimInstructions ||
		res.Cores[1].Core.Instructions != cfg.SimInstructions {
		t.Fatalf("budget accounting wrong: %d / %d",
			res.Cores[0].Core.Instructions, res.Cores[1].Core.Instructions)
	}
	if res.Cores[0].IPC < res.Cores[1].IPC*2 {
		t.Fatalf("hit-dominated core should be far faster: %.3f vs %.3f",
			res.Cores[0].IPC, res.Cores[1].IPC)
	}
}

// TestBandwidthConstrainedSlower: the DDR3-1600 channel must not be faster
// than DDR5-6400 on a bandwidth-hungry stream.
func TestBandwidthConstrainedSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	w, _ := workloads.ByName("roms_like")
	tr := w.Gen(workloads.GenConfig{MemRecords: 120_000, Seed: 1})
	fast := DefaultConfig()
	fast.WarmupInstructions = 60_000
	fast.SimInstructions = 150_000
	slow := fast
	slow.DRAM.BurstCycles = 20 // DDR3-1600
	fr := mustRunOnce(fast, tr, bertiFactory, nil)
	sr := mustRunOnce(slow, tr, bertiFactory, nil)
	if sr.IPC() > fr.IPC()*1.02 {
		t.Fatalf("constrained DRAM must not be faster: %.3f vs %.3f", sr.IPC(), fr.IPC())
	}
}
