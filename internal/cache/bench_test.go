package cache

import "testing"

// benchLower is an allocation-free backing store for benchmarks: completions
// are tracked in a fixed ring and fired through the DoneSink path, the same
// way a real lower level answers forwarded misses.
type benchLower struct {
	delay uint64
	pend  [256]struct {
		at    uint64
		sink  DoneSink
		token uint64
	}
	n int
}

func (f *benchLower) AcceptRead(r *Req, cycle uint64) bool {
	if f.n >= len(f.pend) {
		return false
	}
	if r.Sink != nil {
		f.pend[f.n].at = cycle + f.delay
		f.pend[f.n].sink = r.Sink
		f.pend[f.n].token = r.Token
		f.n++
	}
	return true
}

func (f *benchLower) AcceptWrite(r *Req, cycle uint64) bool { return true }

func (f *benchLower) Promote(line uint64) {}

func (f *benchLower) tick(cycle uint64) {
	for i := 0; i < f.n; {
		if f.pend[i].at <= cycle {
			sink, tok := f.pend[i].sink, f.pend[i].token
			f.n--
			f.pend[i] = f.pend[f.n]
			sink.ReqDone(tok, cycle)
		} else {
			i++
		}
	}
}

// benchSink discards demand completions (the benchmark measures the cache,
// not a core model).
type benchSink struct{}

func (benchSink) ReqDone(token, cycle uint64) {}

// tickBench drives a cache with a mixed demand/prefetch load over a
// footprint four times its capacity; step advances one cycle.
type tickBench struct {
	c     *Cache
	f     *benchLower
	lines uint64 // footprint in lines
	s     uint64
	cycle uint64
	sink  benchSink
}

func newTickBench(cfg Config) *tickBench {
	f := &benchLower{delay: 40}
	return &tickBench{
		c:     MustNew(cfg, f),
		f:     f,
		lines: 4 * uint64(cfg.SizeBytes/LineSize),
		s:     0x9e3779b97f4a7c15,
	}
}

func (tb *tickBench) step() {
	tb.s = tb.s*6364136223846793005 + 1442695040888963407
	s := tb.s
	line := 0x4000 + (s>>33)%tb.lines
	if s&3 != 3 {
		tb.c.AcceptDemand(&Req{
			LineAddr: line, VLineAddr: line,
			Store: s&15 == 5, Sink: tb.sink, Token: s,
		}, tb.cycle)
	}
	if s&7 == 1 {
		tb.c.EnqueuePrefetches([]PrefetchReq{{LineAddr: line + 1, FillLevel: tb.c.cfg.Level}}, tb.cycle, 0)
	}
	tb.f.tick(tb.cycle)
	tb.c.Tick(tb.cycle)
	tb.cycle++
}

// warm runs enough cycles to size tables, rings and the waiter pool.
func (tb *tickBench) warm() *tickBench {
	for i := 0; i < 50_000; i++ {
		tb.step()
	}
	return tb
}

// tickGeometries are the benchmarked cache shapes: an L1D and the LLC
// slice, whose 64-entry MSHR file and 16-way sets stress the MSHR index
// and the tag scan.
var tickGeometries = []Config{
	{
		Name: "L1D", Level: L1D,
		SizeBytes: 32 * 1024, Ways: 8, LatencyCyc: 4,
		MSHRs: 16, RQSize: 16, WQSize: 16, PQSize: 16,
		ReadPorts: 2, WritePorts: 1, Repl: LRU,
	},
	{
		Name: "LLC", Level: LLC,
		SizeBytes: 2 * 1024 * 1024, Ways: 16, LatencyCyc: 20,
		MSHRs: 64, RQSize: 32, WQSize: 32, PQSize: 32,
		ReadPorts: 1, WritePorts: 1, Repl: DRRIP,
	},
}

// BenchmarkCacheTick measures the steady-state per-cycle cost of the full
// cache pipeline — fills, writes, reads, prefetches, sendQ drain — under a
// mixed demand/prefetch load, per cache geometry (make bench-cache).
func BenchmarkCacheTick(b *testing.B) {
	for _, cfg := range tickGeometries {
		b.Run(cfg.Name, func(b *testing.B) {
			tb := newTickBench(cfg).warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.step()
			}
		})
	}
}

// TestCacheTickZeroAllocSteadyState pins the benchmark's property as a
// regular test: the warmed cache pipeline allocates nothing per cycle, in
// every benchmarked geometry.
func TestCacheTickZeroAllocSteadyState(t *testing.T) {
	for _, cfg := range tickGeometries {
		tb := newTickBench(cfg).warm()
		if avg := testing.AllocsPerRun(2000, tb.step); avg != 0 {
			t.Fatalf("%s: %.3f allocs per cycle in steady state, want 0", cfg.Name, avg)
		}
	}
}
