package harness

import (
	"context"
	"fmt"
	"testing"

	"github.com/bertisim/berti/internal/sim"
)

// benchScale is larger than diffScale: throughput measurement needs enough
// simulated work for the per-run setup (trace generation is memoized after
// the first iteration) to amortize away.
var benchScale = Scale{Name: "sched-bench", MemRecords: 120_000, WarmupInstr: 100_000, SimInstr: 250_000}

// BenchmarkScheduler measures engine throughput (kinstr/s of simulated
// instructions, warmup included) for both schedulers on a memory-bound and a
// compute-bound workload, with and without prefetching. The memory-bound ×
// no-prefetch cell is where quiescence skipping pays most: the ROB spends
// long stretches stalled on DRAM with every component idle. Prefetching and
// compute-bound traces shrink the idle windows, so those cells bound the
// scheduler's overhead instead of its win.
func BenchmarkScheduler(b *testing.B) {
	workloads := []struct{ name, label string }{
		{"mcf_like_1554", "membound"},
		{"deepsjeng_like", "computebound"},
	}
	for _, w := range workloads {
		for _, pf := range []string{"", "berti"} {
			for _, sched := range []sim.Scheduler{sim.SchedTicked, sim.SchedHorizon} {
				pfLabel := pf
				if pf == "" {
					pfLabel = "nopf"
				}
				name := fmt.Sprintf("%s/%s/%s", w.label, pfLabel, sched)
				b.Run(name, func(b *testing.B) {
					h := New(benchScale)
					h.Scheduler = sched
					spec := RunSpec{Workload: w.name, L1DPf: pf}
					// Generate (and memoize) the trace outside the timed region.
					h.MustTrace(w.name, 0)
					b.ResetTimer()
					var instr uint64
					for i := 0; i < b.N; i++ {
						res, err := h.RunWithContext(context.Background(), spec, sim.Options{})
						if err != nil {
							b.Fatal(err)
						}
						instr += benchScale.WarmupInstr
						for c := range res.Cores {
							instr += res.Cores[c].Core.Instructions
						}
					}
					b.ReportMetric(float64(instr)/1e3/b.Elapsed().Seconds(), "kinstr/s")
				})
			}
		}
	}
}
