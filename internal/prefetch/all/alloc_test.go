// Package all holds the steady-state allocation tests and the train
// micro-benchmark that cover every prefetcher in the registry.
package all

import (
	"testing"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/prefetch"
)

// drive feeds a deterministic access/fill stream with a bounded footprint
// (8 pages of 64 lines, 4 IPs) through the prefetcher's train/issue path.
// The cycle counter advances monotonically across calls so timestamp-based
// predictors (Berti's masked timestamps, Pythia's reward windows) see a
// realistic clock. Returns the advanced cycle for chaining.
func drive(p cache.Prefetcher, n int, cycle uint64) uint64 {
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		page := (s >> 33) % 8
		off := (s >> 40) % 64
		line := 0x10000 + page*64 + off
		ip := 0x400000 + ((s>>50)%4)*16
		cycle += 1 + s%7
		p.OnAccess(cache.AccessEvent{
			Cycle:         cycle,
			IP:            ip,
			LineAddr:      line,
			PLineAddr:     line,
			IsStore:       s&15 == 3,
			Hit:           s&1 == 0,
			PrefetchHit:   s&7 == 1,
			PfLatency:     uint16(100 + s%300),
			MSHROccupancy: int(s % 8),
			MSHRCap:       16,
		})
		if s&3 == 0 {
			p.OnFill(cache.FillEvent{
				Cycle:      cycle,
				IP:         ip,
				LineAddr:   line,
				PLineAddr:  line,
				Latency:    100 + s%200,
				ByPrefetch: s&7 == 0,
			})
		}
	}
	return cycle
}

// TestPrefetchersZeroAllocSteadyState asserts that every registered
// prefetcher's train/issue path performs zero allocations per access once
// warm: predictor state is sized at construction and candidate slices are
// reused scratch buffers, mirroring the fixed hardware budgets the models
// declare via StorageBits.
func TestPrefetchersZeroAllocSteadyState(t *testing.T) {
	for _, e := range prefetch.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			p := e.New()
			// Warm: populate tables, grow scratch buffers to their
			// steady-state high-water mark.
			cycle := drive(p, 20_000, 0)
			// One batch per run: AllocsPerRun's integer division would
			// round a rate below one allocation per batch down to zero.
			n := testing.AllocsPerRun(1, func() {
				cycle = drive(p, 20_000, cycle)
			})
			if n != 0 {
				t.Fatalf("%s: %.0f allocations over 20000 accesses in steady state, want 0", e.Name, n)
			}
		})
	}
}

// BenchmarkPrefetchTrain measures the per-access cost of each registered
// prefetcher's train/issue path (make bench-cache).
func BenchmarkPrefetchTrain(b *testing.B) {
	for _, e := range prefetch.All() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			p := e.New()
			cycle := drive(p, 20_000, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle = drive(p, 1, cycle)
			}
		})
	}
}
