package sim

import (
	"fmt"
	"runtime"
	"strings"
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
	profileEveryAlloc(t)
	// Warm: touch every page, fill the waiter pool and ring high-water
	// marks, and let the prefetcher reach steady state.
	for i := 0; i < 300_000; i++ {
		m.tick()
	}
	if n, sites := machineAllocs(m, 2000); n != 0 {
		t.Fatalf("%d allocations over 2000 ticks in steady state, want 0:\n%s", n, sites)
	}
}

// profileEveryAlloc makes the memory profile record every allocation
// until the test ends, so tickAllocs sees each one with its stack.
func profileEveryAlloc(t *testing.T) {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	t.Cleanup(func() { runtime.MemProfileRate = rate })
}

// tickAllocs returns, for each allocation stack that passes through
// (*Machine).tick, the objects it has allocated since the process
// started. It collects garbage first, because the memory profile
// publishes allocations only up to the last completed collection. The
// profile keeps one record per stack and object size, so a site that grows
// a slice or map by doubling adds a record at each new size; summing the
// records per stack counts those allocations too.
func tickAllocs() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	sites := map[[32]uintptr]int64{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, "/sim.(*Machine).tick") {
				sites[r.Stack0] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return sites
}

// tickAllocsSince returns how many objects the tick path allocated after
// the snapshot before was taken, and the stacks that allocated them.
func tickAllocsSince(before map[[32]uintptr]int64) (int64, string) {
	var total int64
	var b strings.Builder
	for stk, objs := range tickAllocs() {
		if d := objs - before[stk]; d > 0 {
			total += d
			fmt.Fprintf(&b, "%d object(s) at:\n", d)
			frames := runtime.CallersFrames(stk[:])
			for {
				f, more := frames.Next()
				if f.Function != "" {
					fmt.Fprintf(&b, "\t%s (%s:%d)\n", f.Function, f.File, f.Line)
				}
				if !more {
					break
				}
			}
		}
	}
	return total, b.String()
}

// machineAllocs ticks m n times and returns the heap allocations those
// ticks made, with the stacks that made them; profileEveryAlloc must be in
// effect. Only stacks that pass through (*Machine).tick count, so the
// runtime's and other goroutines' allocations in the window do not.
func machineAllocs(m *Machine, n int) (int64, string) {
	before := tickAllocs()
	for i := 0; i < n; i++ {
		m.tick()
	}
	return tickAllocsSince(before)
}

// pages returns how many pages the machine's page tables have mapped.
func (m *Machine) pages() int {
	n := 0
	for _, mmu := range m.mmus {
		n += mmu.PageTable().Pages()
	}
	return n
}

// maxWarmLaps bounds warmUntilSteady; a machine still growing after that
// many laps of a looping trace has no steady state to measure.
const maxWarmLaps = 20

// warmUntilSteady ticks m one lap of rd at a time until a whole lap maps
// no new page and allocates nothing under (*Machine).tick. Every pool
// grows only by allocating, so such a lap leaves them all at their
// high-water marks; the page table is checked on its own because a new
// page can land in a map bucket with room to spare and the next one
// allocate.
func warmUntilSteady(t *testing.T, m *Machine, rd *trace.LoopReader) {
	t.Helper()
	for lap := 1; ; lap++ {
		pages, before := m.pages(), tickAllocs()
		for start := rd.Loops; rd.Loops == start; {
			m.tick()
		}
		n, sites := tickAllocsSince(before)
		if n == 0 && m.pages() == pages {
			return
		}
		if lap == maxWarmLaps {
			t.Fatalf("still growing after %d warm-up laps: %d page(s) mapped and %d allocation(s) on the tick path in the last lap:\n%s",
				lap, m.pages()-pages, n, sites)
		}
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
// warm (see warmUntilSteady). Unlike the single-configuration test above, it reaches the path
// that hands a prefetch filling below the issuing level to the next level
// down. Each cell checks that its measured window took that path (or, for
// a prefetcher outside forwardsBelow, did not), so the coverage cannot
// silently disappear. The L2 is shrunk to 64 KB so the small looping
// traces still overflow it after warm-up: a prefetch for a line already
// resident in L2 is dropped before it could be forwarded to the LLC.
func TestMachineTickZeroAllocPrefetcherMatrix(t *testing.T) {
	profileEveryAlloc(t)
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
				warmUntilSteady(t, m, rd)
				fwdBefore := issuer.PrefForwarded
				n, sites := machineAllocs(m, 10_000)
				fwd := issuer.PrefForwarded - fwdBefore
				switch {
				case forwardsBelow[e.Name] && fwd == 0:
					t.Fatalf("measured window forwarded no prefetch below %s; the cell no longer covers that path", issuer.Config().Name)
				case !forwardsBelow[e.Name] && fwd != 0:
					t.Fatalf("%d prefetches forwarded below %s; add %s to forwardsBelow", fwd, issuer.Config().Name, e.Name)
				}
				if n != 0 {
					t.Fatalf("%d allocations over 10000 ticks in steady state (%d prefetches forwarded below %s), want 0:\n%s",
						n, fwd, issuer.Config().Name, sites)
				}
			})
		}
	}
}
