package sim

import (
	"testing"

	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/trace"
)

// TestRetireOrderInOrder: completion out of order must not reorder
// retirement — a fast later load cannot retire past a slow earlier one.
func TestRetireOrderInOrder(t *testing.T) {
	tr := &trace.Slice{}
	// One slow (cold DRAM) load followed by many same-line (fast) loads.
	tr.Append(trace.Record{IP: 0x400040, Addr: 0x9_0000_0000, Kind: trace.Load, NonMemBefore: 0})
	for i := 0; i < 1000; i++ {
		tr.Append(trace.Record{IP: 0x400061, Addr: 0x8_0000_0000, Kind: trace.Load, NonMemBefore: 0})
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 0
	cfg.SimInstructions = 900
	res := mustRunOnce(cfg, tr, nil, nil)
	// The window is 352: until the head (slow) load completes, at most
	// ROBSize instructions can be in flight; cycles must cover at least
	// the head's miss latency.
	if res.Cores[0].Core.Cycles < 100 {
		t.Fatalf("head-of-line miss not respected: %d cycles", res.Cores[0].Core.Cycles)
	}
}

// TestIssueSkipDoesNotSkipUnissued: a dep-blocked older load, parked on its
// in-flight producer while younger independent loads issue past it, must
// still issue once the producer completes.
func TestIssueSkipDoesNotSkipUnissued(t *testing.T) {
	tr := &trace.Slice{}
	// Producer (slow), dependent consumer, then independent loads that
	// issue first (tempting the scan to skip past the consumer).
	tr.Append(trace.Record{IP: 0x1, Addr: 0x9_0000_0000, Kind: trace.Load, NonMemBefore: 0})
	tr.Append(trace.Record{IP: 0x2, Addr: 0x9_1000_0000, Kind: trace.Load, NonMemBefore: 0, DepDist: 1})
	for i := 0; i < 200; i++ {
		tr.Append(trace.Record{IP: 0x3, Addr: 0x8_0000_0000, Kind: trace.Load, NonMemBefore: 0})
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 0
	cfg.SimInstructions = 202
	res := mustRunOnce(cfg, tr, nil, nil) // must terminate: consumer issues eventually
	if res.Cores[0].Core.Loads != 202 {
		t.Fatalf("loads retired = %d, want 202", res.Cores[0].Core.Loads)
	}
}

// TestNonMemAggregation: huge non-memory runs must respect window capacity
// and retire bandwidth.
func TestNonMemAggregation(t *testing.T) {
	tr := &trace.Slice{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.Record{IP: 0x1, Addr: 0x8_0000_0000, Kind: trace.Load, NonMemBefore: 4000})
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 0
	cfg.SimInstructions = 100_000
	res := mustRunOnce(cfg, tr, nil, nil)
	// Pure ALU work retires at exactly RetireWidth=4 per cycle
	// asymptotically.
	if ipc := res.IPC(); ipc < 3.5 || ipc > 4.01 {
		t.Fatalf("nonmem IPC = %.3f, want ~4", ipc)
	}
}

// TestDoneWithoutTarget: a machine whose trace runs out terminates.
func TestDoneWithoutTarget(t *testing.T) {
	tr := &trace.Slice{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.Record{IP: 0x1, Addr: 0x8_0000_0000 + uint64(i)*64, Kind: trace.Load, NonMemBefore: 1})
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 0
	cfg.SimInstructions = 1_000_000 // more than the trace holds
	m := MustNew(cfg, []trace.Reader{trace.NewSliceReader(tr)}, nil, nil)
	res := MustRun(m) // must not hang: Done() ends the run
	if res.Cores[0].Core.Instructions == 0 {
		t.Fatal("nothing retired")
	}
}

// TestDepDistToStore: dependences on stores resolve (store completion is
// posted at issue).
func TestDepDistToStore(t *testing.T) {
	tr := &trace.Slice{}
	for i := 0; i < 2000; i++ {
		tr.Append(trace.Record{IP: 0x1, Addr: 0x8_0000_0000 + uint64(i)*64, Kind: trace.Store, NonMemBefore: 1})
		tr.Append(trace.Record{IP: 0x2, Addr: 0x9_0000_0000 + uint64(i)*64, Kind: trace.Load, NonMemBefore: 1, DepDist: 1})
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 0
	cfg.SimInstructions = 7000
	res := mustRunOnce(cfg, tr, nil, nil)
	if res.Cores[0].Core.Loads == 0 || res.Cores[0].Core.Stores == 0 {
		t.Fatal("mixed trace did not retire")
	}
}

// parkedCore returns a single-core machine ticked until its core holds both
// parked consumers (pointer-chase loads waiting on in-flight producers) and
// at least two operations on the issue list.
func parkedCore(t *testing.T) *Core {
	t.Helper()
	tr := &trace.Slice{}
	for i := 0; i < 400; i++ {
		// A cold miss, a consumer chained on it, and a burst of
		// independent loads that outrun the two load ports.
		tr.Append(trace.Record{IP: 0x1, Addr: 0x9_0000_0000 + uint64(i)<<16, Kind: trace.Load})
		tr.Append(trace.Record{IP: 0x2, Addr: 0xa_0000_0000 + uint64(i)<<16, Kind: trace.Load, DepDist: 1})
		for j := 0; j < 6; j++ {
			tr.Append(trace.Record{IP: 0x3, Addr: 0x8_0000_0000 + uint64(i*6+j)*64, Kind: trace.Load})
		}
	}
	cfg := DefaultConfig()
	m := MustNew(cfg, []trace.Reader{trace.NewSliceReader(tr)}, nil, nil)
	c := m.CoreAt(0)
	for i := 0; i < 20_000; i++ {
		m.tick()
		parked := false
		for _, h := range c.parkHead {
			parked = parked || h != 0
		}
		if parked && len(c.pend) >= 2 {
			return c
		}
	}
	t.Fatal("setup: core never held parked and listed operations at once")
	return nil
}

// TestCoreCheckInvariantsPendAndParked: pend and the parked chains must
// partition the unissued memory operations, pend must mirror its ROB
// entries in program order, and parked operations must wait on an in-flight
// producer. A healthy core reports nothing; each corruption trips
// rob-accounting.
func TestCoreCheckInvariantsPendAndParked(t *testing.T) {
	rules := func(c *Core) map[string]int {
		got := map[string]int{}
		c.CheckInvariants("core.0", 0, func(v check.Violation) { got[v.Rule]++ })
		return got
	}
	if got := rules(parkedCore(t)); len(got) != 0 {
		t.Fatalf("healthy core reported violations: %v", got)
	}
	firstParked := func(c *Core) int {
		for s, h := range c.parkHead {
			if h != 0 {
				return s
			}
		}
		return -1
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Core)
	}{
		{"pend entry dropped", func(c *Core) { c.pend = c.pend[1:] }},
		{"pend out of program order", func(c *Core) { c.pend[0], c.pend[1] = c.pend[1], c.pend[0] }},
		{"pend entry disagrees with ROB", func(c *Core) { c.pend[0].store = !c.pend[0].store }},
		{"parked op also listed", func(c *Core) {
			s := firstParked(c)
			e := &c.rob[c.parkHead[s]-1]
			c.pend = append(c.pend, pendOp{recIdx: e.recIdx, slot: c.parkHead[s] - 1, dep: int32(s)})
		}},
		{"parked on a completed producer", func(c *Core) { c.depAt[firstParked(c)] = 7 }},
		{"parked chain lost", func(c *Core) {
			s := firstParked(c)
			c.parkHead[s], c.parkTail[s] = 0, 0
		}},
	} {
		c := parkedCore(t)
		tc.corrupt(c)
		if got := rules(c); got[check.RuleROBAccounting] == 0 {
			t.Errorf("%s: not flagged as %s: %v", tc.name, check.RuleROBAccounting, got)
		}
	}
}
