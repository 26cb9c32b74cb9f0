package sim

import (
	"testing"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/workloads"
	_ "github.com/bertisim/berti/internal/workloads/gap"
	_ "github.com/bertisim/berti/internal/workloads/speclike"
)

// allocMachine wires a single-core machine (Berti on the L1D, the paper's
// primary configuration) over a looping mixed load/store trace with a
// bounded footprint: 32 pages, several interleaved strides, a dependent
// chain, and stores, so every queue, MSHR chain, writeback path, and the
// prefetcher's train/issue path all see steady traffic while the page
// tables stop first-touch allocating after warmup.
func allocMachine() *Machine {
	tr := &trace.Slice{}
	base := uint64(0x2_0000_0000)
	for i := 0; i < 4096; i++ {
		page := uint64(i*7%32) * 4096
		off := uint64(i*13%64) * 64
		rec := trace.Record{
			IP:           0x400000 + uint64(i%8)*16,
			Addr:         base + page + off,
			Kind:         trace.Load,
			NonMemBefore: uint32(i % 3),
		}
		switch {
		case i%11 == 3:
			rec.Kind = trace.Store
		case i%5 == 2:
			rec.DepDist = 1
		}
		tr.Append(rec)
	}
	cfg := DefaultConfig()
	cfg.Cores = 1
	return MustNew(cfg, []trace.Reader{trace.NewLoopReader(tr)},
		func() cache.Prefetcher { return core.New(core.DefaultConfig()) }, nil)
}

// TestMachineTickZeroAllocSteadyState asserts the whole simulation hot path
// — core issue/retire, L1D/L2/LLC queues and MSHRs, DRAM scheduling, and
// Berti training — performs zero heap allocations per cycle once warm. All
// steady-state state lives in fixed-capacity rings, open-addressed tables,
// and pooled waiter chains sized at construction; completions flow through
// DoneSink tokens instead of per-request closures.
func TestMachineTickZeroAllocSteadyState(t *testing.T) {
	m := allocMachine()
	// Warm: touch every page, fill the waiter pool and ring high-water
	// marks, and let the prefetcher reach steady state.
	for i := 0; i < 300_000; i++ {
		m.tick()
	}
	// One batch per run: AllocsPerRun divides by its run count in integer
	// arithmetic, so timing single ticks would round any rate below one
	// allocation per tick down to zero.
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			m.tick()
		}
	})
	if n != 0 {
		t.Fatalf("%.0f allocations over 2000 ticks in steady state, want 0", n)
	}
}

// forwardsBelow lists the registry prefetchers that fill some requests
// below their own level, so the issuing cache hands those straight to the
// level beneath it: Berti's medium-coverage band fills L2 from the L1D, and
// SPP's lower-confidence lookahead fills the LLC from L2.
var forwardsBelow = map[string]bool{"berti": true, "berti-dpc3": true, "spp": true, "spp-ppf": true}

// TestMachineTickZeroAllocPrefetcherMatrix runs every registry prefetcher at
// its own level through the whole machine, on a pointer-chasing SPEC-like
// trace and on a GAP traversal, and asserts zero allocations per tick once
// warm. Unlike the single-configuration test above, it reaches the path
// that hands a prefetch filling below the issuing level to the next level
// down. Each cell checks that its measured window took that path (or, for
// a prefetcher outside forwardsBelow, did not), so the coverage cannot
// silently disappear. The L2 is shrunk to 64 KB so the small looping
// traces still overflow it after warm-up: a prefetch for a line already
// resident in L2 is dropped before it could be forwarded to the LLC.
func TestMachineTickZeroAllocPrefetcherMatrix(t *testing.T) {
	for _, wname := range []string{"mcf_like_1554", "bfs-kron"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("workload %s not registered", wname)
		}
		tr := w.Gen(workloads.GenConfig{MemRecords: 8000, Seed: 1})
		for _, e := range prefetch.All() {
			t.Run(wname+"/"+e.Name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Cores = 1
				cfg.L2.SizeBytes = 64 * 1024
				var l1, l2 PrefetcherFactory
				if e.Level == prefetch.AtL1D {
					l1 = PrefetcherFactory(e.New)
				} else {
					l2 = PrefetcherFactory(e.New)
				}
				rd := trace.NewLoopReader(tr)
				m := MustNew(cfg, []trace.Reader{rd}, l1, l2)
				issuer := m.l1ds[0]
				if e.Level == prefetch.AtL2 {
					issuer = m.l2s[0]
				}
				// Warm: one lap of the looping trace touches every page
				// and grows every pool to its high-water mark.
				for rd.Loops < 1 {
					m.tick()
				}
				// AllocsPerRun calls the window once untimed first; fwd
				// keeps the timed call's count.
				var fwd uint64
				n := testing.AllocsPerRun(1, func() {
					before := issuer.PrefForwarded
					for i := 0; i < 10_000; i++ {
						m.tick()
					}
					fwd = issuer.PrefForwarded - before
				})
				switch {
				case forwardsBelow[e.Name] && fwd == 0:
					t.Fatalf("measured window forwarded no prefetch below %s; the cell no longer covers that path", issuer.Config().Name)
				case !forwardsBelow[e.Name] && fwd != 0:
					t.Fatalf("%d prefetches forwarded below %s; add %s to forwardsBelow", fwd, issuer.Config().Name, e.Name)
				}
				if n != 0 {
					t.Fatalf("%.0f allocations over 10000 ticks in steady state (%d prefetches forwarded below %s), want 0",
						n, fwd, issuer.Config().Name)
				}
			})
		}
	}
}
