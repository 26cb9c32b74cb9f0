package sim

import (
	"testing"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/vm"
)

// slowLower answers every L1D miss after a fixed DRAM-like delay through the
// sink path, from a fixed ring: allocation-free, like the real hierarchy.
type slowLower struct {
	delay uint64
	pend  [64]struct {
		at    uint64
		sink  cache.DoneSink
		token uint64
	}
	n int
}

func (f *slowLower) AcceptRead(r *cache.Req, cycle uint64) bool {
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

func (f *slowLower) AcceptWrite(r *cache.Req, cycle uint64) bool { return true }

func (f *slowLower) Promote(line uint64) {}

func (f *slowLower) tick(cycle uint64) {
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

// BenchmarkCoreIssue measures the per-cycle cost of the core plus its L1D
// on mcf's shape: a long pointer chase (every load depends on the previous
// one, DepDist=1) whose loads miss to a 300-cycle backing store, so the
// window fills with consumers blocked on in-flight producers. The issue path
// must not pay for the blocked operations every cycle (make bench-cache).
func BenchmarkCoreIssue(b *testing.B) {
	tr := &trace.Slice{}
	for i := 0; i < 4096; i++ {
		// 32 pages x 64 lines: misses in a 48 KB L1D, steady TLB state.
		tr.Append(trace.Record{
			IP:           0x400000 + uint64(i%4)*8,
			Addr:         0x2_0000_0000 + uint64(i*7%32)*4096 + uint64(i*13%64)*64,
			Kind:         trace.Load,
			NonMemBefore: 1,
			DepDist:      1,
		})
	}
	cfg := DefaultConfig()
	f := &slowLower{delay: 300}
	l1 := cache.MustNew(cfg.L1D, f)
	c := NewCore(0, cfg.Core, trace.NewLoopReader(tr), vm.MustNewMMU(cfg.MMU, 1), l1)
	cycle := uint64(0)
	step := func() {
		f.tick(cycle)
		l1.Tick(cycle)
		c.Tick(cycle)
		cycle++
	}
	for i := 0; i < 100_000; i++ { // warm: window full, TLBs and pools sized
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
