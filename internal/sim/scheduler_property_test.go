package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/bertisim/berti/internal/trace"
)

// randomTrace mixes the access archetypes the schedulers must agree on:
// strided streams, pointer chases (dependent loads), store bursts, and
// compute-heavy non-mem runs.
func randomTrace(rng *rand.Rand, n int) *trace.Slice {
	tr := &trace.Slice{}
	addr := uint64(0x1_0000_0000)
	for i := 0; i < n; i++ {
		kind := trace.Load
		if rng.Intn(4) == 0 {
			kind = trace.Store
		}
		switch rng.Intn(3) {
		case 0: // stride
			addr += uint64(1+rng.Intn(4)) * 64
		case 1: // chase: far jump, depend on the previous record
			addr += uint64(4+rng.Intn(64)) << 10
		case 2: // local reuse
			addr -= addr % 4096
		}
		var dep uint8
		if rng.Intn(3) == 0 {
			dep = uint8(1 + rng.Intn(4))
		}
		tr.Append(trace.Record{
			IP:           0x400000 + uint64(rng.Intn(8))*4,
			Addr:         addr,
			Kind:         kind,
			NonMemBefore: uint32(rng.Intn(12)),
			DepDist:      dep,
		})
	}
	return tr
}

// observableDigest captures every piece of machine state whose change is
// observable in a Result or in a component's subsequent behaviour —
// excluding the per-cycle counters creditSkip reconciles (CoreStats.Cycles,
// CoreStats.ROBFullStalls) and the scheduler-dependent diagnostics
// IssueBlocked and LoadLatHist, which are not part of the result surface.
func observableDigest(m *Machine) string {
	var b strings.Builder
	for i := range m.l1ds {
		fmt.Fprintf(&b, "l1[%d] q=%+v s=%+v\n", i, m.l1ds[i].Queues(), m.l1ds[i].Stats)
		fmt.Fprintf(&b, "l2[%d] q=%+v s=%+v\n", i, m.l2s[i].Queues(), m.l2s[i].Stats)
		fmt.Fprintf(&b, "mmu[%d] %+v\n", i, m.mmus[i].Stats)
	}
	fmt.Fprintf(&b, "llc q=%+v s=%+v\n", m.llc.Queues(), m.llc.Stats)
	fmt.Fprintf(&b, "dram %+v pending=%v\n", m.dramC.Stats, m.dramC.Pending())
	for i, c := range m.cores {
		cs := c.Stats
		cs.Cycles = 0
		cs.ROBFullStalls = 0
		fmt.Fprintf(&b, "core[%d] rob=%d/%d head=%d tail=%d pend=%v/%d done=%v ret=%d rec=%d s=%+v\n",
			i, c.robCount, c.robInstrs, c.robHead, c.robTail,
			c.pendingValid, c.pendingNonMem, c.traceDone, c.RetiredTotal, c.memRecords, cs)
	}
	return b.String()
}

// TestHorizonQuiescenceProperty cross-checks NextEventCycle against the
// per-cycle reference: whenever the global horizon (the minimum across all
// components) lies beyond the next cycle, executing the allegedly skippable
// ticks one by one must leave the observable state digest unchanged. A
// digest change inside the window means some component changed state before
// its reported horizon — exactly the bug class that would silently corrupt
// horizon-mode results.
func TestHorizonQuiescenceProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 7}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig()
			cfg.WarmupInstructions = 0
			cfg.SimInstructions = 50_000
			// Shrink the hierarchy so misses, evictions, and writebacks all
			// occur within a short trace.
			cfg.L1D.SizeBytes = 12 * 1024
			cfg.L2.SizeBytes = 64 * 1024
			cfg.LLC.SizeBytes = 256 * 1024
			tr := randomTrace(rng, 4_000)
			m := MustNew(cfg, []trace.Reader{trace.NewSliceReader(tr)}, nil, nil)

			const cycleLimit = 400_000
			windows, skippable := 0, uint64(0)
			for m.cycle < cycleLimit && !m.cores[0].Done() {
				m.tick()
				h := m.horizon()
				if h <= m.cycle {
					continue
				}
				if h == Never {
					break // fully quiescent: nothing left to verify
				}
				windows++
				skippable += h - m.cycle
				before := observableDigest(m)
				for m.cycle < h {
					m.tick()
					if after := observableDigest(m); after != before {
						t.Fatalf("seed %d: state changed at cycle %d inside quiescent window ending %d:\nbefore:\n%s\nafter:\n%s",
							seed, m.cycle, h, before, after)
					}
				}
			}
			if windows == 0 {
				t.Fatalf("seed %d: property test exercised no quiescent windows", seed)
			}
			t.Logf("seed %d: verified %d windows covering %d skippable cycles", seed, windows, skippable)
		})
	}
}

// TestSchedulerResultIdentity runs the same machine configuration to
// completion under both schedulers and requires identical Results — the
// in-package complement of the harness-level differential suite, covering
// the raw engine path (New + Run) without registry plumbing.
func TestSchedulerResultIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 6_000)
	cfg := smallConfig()
	run := func(s Scheduler) *Result {
		m := MustNew(cfg, []trace.Reader{trace.NewSliceReader(tr)}, nil, nil)
		m.SetScheduler(s)
		return MustRun(m)
	}
	ticked := run(SchedTicked)
	horizon := run(SchedHorizon)
	if a, b := fmt.Sprintf("%+v", ticked), fmt.Sprintf("%+v", horizon); a != b {
		t.Fatalf("schedulers diverged:\nticked:  %s\nhorizon: %s", a, b)
	}
}
