package cache

import (
	"testing"

	"github.com/bertisim/berti/internal/check"
)

// fakeLower is a scriptable backing store: it responds to reads after a
// fixed delay and records what it saw.
type fakeLower struct {
	delay      uint64
	reads      []*Req
	writes     []*Req
	promoted   []uint64
	refuseNext int
	// pending responses fire when tick() reaches their cycle.
	pending []pendingResp
}

type pendingResp struct {
	at uint64
	cb func(uint64)
}

func (f *fakeLower) AcceptRead(r *Req, cycle uint64) bool {
	if f.refuseNext > 0 {
		f.refuseNext--
		return false
	}
	cp := *r // r points into the sender's ring; copy before retaining
	f.reads = append(f.reads, &cp)
	if r.OnDone != nil {
		f.pending = append(f.pending, pendingResp{at: cycle + f.delay, cb: r.OnDone})
	} else if r.Sink != nil {
		sink, tok := r.Sink, r.Token
		f.pending = append(f.pending, pendingResp{at: cycle + f.delay, cb: func(cyc uint64) { sink.ReqDone(tok, cyc) }})
	}
	return true
}

func (f *fakeLower) AcceptWrite(r *Req, cycle uint64) bool {
	if f.refuseNext > 0 {
		f.refuseNext--
		return false
	}
	cp := *r
	f.writes = append(f.writes, &cp)
	return true
}

func (f *fakeLower) Promote(line uint64) { f.promoted = append(f.promoted, line) }

func (f *fakeLower) tick(cycle uint64) {
	for i := 0; i < len(f.pending); {
		if f.pending[i].at <= cycle {
			f.pending[i].cb(cycle)
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
		} else {
			i++
		}
	}
}

func testConfig() Config {
	return Config{
		Name: "T", Level: L1D,
		SizeBytes: 8 * 1024, Ways: 4, LatencyCyc: 3,
		MSHRs: 4, RQSize: 8, WQSize: 4, PQSize: 4,
		ReadPorts: 2, WritePorts: 1, Repl: LRU,
	}
}

// runCache ticks cache+lower together for n cycles starting at cycle.
func runCache(c *Cache, f *fakeLower, from, n uint64) uint64 {
	for cyc := from; cyc < from+n; cyc++ {
		f.tick(cyc)
		c.Tick(cyc)
	}
	return from + n
}

func TestMissThenHit(t *testing.T) {
	f := &fakeLower{delay: 10}
	c := MustNew(testConfig(), f)
	var done uint64
	c.AcceptDemand(&Req{LineAddr: 100, OnDone: func(cyc uint64) { done = cyc }}, 0)
	runCache(c, f, 0, 30)
	if done == 0 {
		t.Fatal("miss never completed")
	}
	if !c.Contains(100) {
		t.Fatal("line not installed after fill")
	}
	if c.Stats.DemandMisses != 1 {
		t.Fatalf("misses = %d", c.Stats.DemandMisses)
	}
	// Second access: hit at the cache latency.
	var hitDone uint64
	start := uint64(40)
	c.AcceptDemand(&Req{LineAddr: 100, OnDone: func(cyc uint64) { hitDone = cyc }}, start)
	runCache(c, f, 40, 10)
	if hitDone == 0 || hitDone-start > 5 {
		t.Fatalf("hit latency wrong: done=%d", hitDone)
	}
	if c.Stats.DemandHits != 1 {
		t.Fatalf("hits = %d", c.Stats.DemandHits)
	}
}

func TestRQLoadCombining(t *testing.T) {
	f := &fakeLower{delay: 20}
	c := MustNew(testConfig(), f)
	calls := 0
	for i := 0; i < 4; i++ {
		c.AcceptDemand(&Req{LineAddr: 7, OnDone: func(uint64) { calls++ }}, 0)
	}
	runCache(c, f, 0, 40)
	if calls != 4 {
		t.Fatalf("only %d of 4 combined loads completed", calls)
	}
	if c.Stats.DemandAccesses != 1 || c.Stats.DemandMisses != 1 {
		t.Fatalf("combined group should count once: acc=%d miss=%d",
			c.Stats.DemandAccesses, c.Stats.DemandMisses)
	}
	if len(f.reads) != 1 {
		t.Fatalf("lower saw %d reads, want 1", len(f.reads))
	}
}

func TestMSHRMergeCountsOnce(t *testing.T) {
	f := &fakeLower{delay: 30}
	c := MustNew(testConfig(), f)
	c.AcceptDemand(&Req{LineAddr: 9, OnDone: func(uint64) {}}, 0)
	runCache(c, f, 0, 3) // primary miss issued, in MSHR now
	c.AcceptDemand(&Req{LineAddr: 9, OnDone: func(uint64) {}}, 3)
	runCache(c, f, 3, 50)
	if c.Stats.DemandMisses != 1 {
		t.Fatalf("merged miss counted twice: %d", c.Stats.DemandMisses)
	}
	if c.Stats.MSHRMerges != 1 {
		t.Fatalf("merges = %d", c.Stats.MSHRMerges)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	f := &fakeLower{delay: 1000}
	cfg := testConfig()
	cfg.MSHRs = 2
	c := MustNew(cfg, f)
	for i := uint64(0); i < 4; i++ {
		c.AcceptDemand(&Req{LineAddr: 100 + i, OnDone: func(uint64) {}}, 0)
	}
	runCache(c, f, 0, 20)
	if c.MSHROccupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", c.MSHROccupancy())
	}
	if c.Stats.MSHRFullStalls == 0 {
		t.Fatal("expected MSHR-full stalls")
	}
}

func TestStoreDirtiesAndWritesBack(t *testing.T) {
	f := &fakeLower{delay: 5}
	cfg := testConfig()
	cfg.SizeBytes = 4 * LineSize // tiny: 1 set x 4 ways
	cfg.Ways = 4
	c := MustNew(cfg, f)
	c.AcceptDemand(&Req{LineAddr: 1, Store: true, OnDone: func(uint64) {}}, 0)
	runCache(c, f, 0, 20)
	if !c.Contains(1) {
		t.Fatal("store-allocate failed")
	}
	// Evict line 1 by filling the set with 4 more lines.
	for i := uint64(2); i <= 5; i++ {
		c.AcceptDemand(&Req{LineAddr: i, OnDone: func(uint64) {}}, 20)
	}
	runCache(c, f, 20, 60)
	if c.Contains(1) {
		t.Fatal("line 1 should have been evicted")
	}
	if len(f.writes) != 1 || f.writes[0].LineAddr != 1 {
		t.Fatalf("expected writeback of line 1, got %v", f.writes)
	}
	if c.Stats.WritebacksOut != 1 {
		t.Fatalf("WritebacksOut = %d", c.Stats.WritebacksOut)
	}
}

func TestWritebackInstallsNonInclusive(t *testing.T) {
	f := &fakeLower{delay: 5}
	cfg := testConfig()
	cfg.Level = L2
	c := MustNew(cfg, f)
	if !c.AcceptWrite(&Req{LineAddr: 55, Store: true}, 0) {
		t.Fatal("writeback refused")
	}
	runCache(c, f, 0, 5)
	if !c.Contains(55) {
		t.Fatal("writeback should back-fill a non-inclusive level")
	}
}

// prefetch test helper: a trivial prefetcher that requests a fixed target.
type fixedPf struct {
	target uint64
	level  Level
	fills  []FillEvent
	events []AccessEvent
}

func (p *fixedPf) Name() string     { return "fixed" }
func (p *fixedPf) StorageBits() int { return 0 }
func (p *fixedPf) OnAccess(ev AccessEvent) []PrefetchReq {
	p.events = append(p.events, ev)
	if p.target == 0 {
		return nil
	}
	return []PrefetchReq{{LineAddr: p.target, FillLevel: p.level}}
}
func (p *fixedPf) OnFill(ev FillEvent) { p.fills = append(p.fills, ev) }

func TestPrefetchFillAndUsefulHit(t *testing.T) {
	f := &fakeLower{delay: 10}
	c := MustNew(testConfig(), f)
	pf := &fixedPf{target: 200, level: L1D}
	c.SetPrefetcher(pf)
	// A demand miss triggers the prefetch of line 200.
	c.AcceptDemand(&Req{LineAddr: 100, OnDone: func(uint64) {}}, 0)
	runCache(c, f, 0, 50)
	if !c.Contains(200) {
		t.Fatal("prefetched line not installed")
	}
	if c.Stats.PrefFills != 1 {
		t.Fatalf("PrefFills = %d", c.Stats.PrefFills)
	}
	// Demand hit on the prefetched line: useful + PrefetchHit event.
	pf.target = 0
	c.AcceptDemand(&Req{LineAddr: 200, OnDone: func(uint64) {}}, 60)
	runCache(c, f, 60, 10)
	if c.Stats.PrefUseful != 1 {
		t.Fatalf("PrefUseful = %d", c.Stats.PrefUseful)
	}
	last := pf.events[len(pf.events)-1]
	if !last.PrefetchHit || last.PfLatency == 0 {
		t.Fatalf("prefetch-hit event missing latency: %+v", last)
	}
}

func TestLatePrefetchMergesAndPromotes(t *testing.T) {
	f := &fakeLower{delay: 50}
	c := MustNew(testConfig(), f)
	pf := &fixedPf{target: 300, level: L1D}
	c.SetPrefetcher(pf)
	c.AcceptDemand(&Req{LineAddr: 100, OnDone: func(uint64) {}}, 0)
	runCache(c, f, 0, 10) // prefetch of 300 in flight
	pf.target = 0
	var done uint64
	c.AcceptDemand(&Req{LineAddr: 300, OnDone: func(cyc uint64) { done = cyc }}, 10)
	runCache(c, f, 10, 100)
	if done == 0 {
		t.Fatal("merged demand never completed")
	}
	if c.Stats.PrefLate != 1 {
		t.Fatalf("PrefLate = %d", c.Stats.PrefLate)
	}
	found := false
	for _, l := range f.promoted {
		if l == 300 {
			found = true
		}
	}
	if !found {
		t.Fatal("in-flight prefetch not promoted on demand merge")
	}
}

func TestPrefetchFillBelowDoesNotInstall(t *testing.T) {
	f := &fakeLower{delay: 5}
	c := MustNew(testConfig(), f) // level L1D
	pf := &fixedPf{target: 400, level: L2}
	c.SetPrefetcher(pf)
	c.AcceptDemand(&Req{LineAddr: 100, OnDone: func(uint64) {}}, 0)
	runCache(c, f, 0, 40)
	if c.Contains(400) {
		t.Fatal("fill-L2 prefetch must not install at L1D")
	}
	// The request must have been handed to the lower level as a prefetch.
	sawPf := false
	for _, r := range f.reads {
		if r.LineAddr == 400 && r.IsPrefetch {
			sawPf = true
		}
	}
	if !sawPf {
		t.Fatal("fill-L2 prefetch not forwarded to the lower level")
	}
}

func TestPrefetchDedup(t *testing.T) {
	f := &fakeLower{delay: 5}
	c := MustNew(testConfig(), f)
	c.EnqueuePrefetches([]PrefetchReq{{LineAddr: 500, FillLevel: L1D}}, 0, 0)
	c.EnqueuePrefetches([]PrefetchReq{{LineAddr: 500, FillLevel: L1D}}, 0, 0)
	if c.Stats.PrefIssued != 1 || c.Stats.PrefDropped != 1 {
		t.Fatalf("dedup failed: issued=%d dropped=%d", c.Stats.PrefIssued, c.Stats.PrefDropped)
	}
	runCache(c, f, 0, 30)
	if !c.Contains(500) {
		t.Fatal("prefetch not filled")
	}
	c.EnqueuePrefetches([]PrefetchReq{{LineAddr: 500, FillLevel: L1D}}, 40, 0)
	if c.Stats.PrefDropped != 2 {
		t.Fatal("prefetch to cached line should drop")
	}
}

func TestPQCapacityDrops(t *testing.T) {
	f := &fakeLower{delay: 1000}
	cfg := testConfig()
	cfg.PQSize = 2
	c := MustNew(cfg, f)
	var reqs []PrefetchReq
	for i := uint64(0); i < 5; i++ {
		reqs = append(reqs, PrefetchReq{LineAddr: 600 + i, FillLevel: L1D})
	}
	c.EnqueuePrefetches(reqs, 0, 0)
	if c.Stats.PrefIssued != 2 || c.Stats.PrefDropped != 3 {
		t.Fatalf("PQ bounding failed: issued=%d dropped=%d",
			c.Stats.PrefIssued, c.Stats.PrefDropped)
	}
}

func TestDemandPriorityInRQ(t *testing.T) {
	f := &fakeLower{delay: 5}
	cfg := testConfig()
	cfg.Level = L2
	cfg.ReadPorts = 1
	c := MustNew(cfg, f)
	var pfDone, demDone uint64
	// Prefetch read (with response) enqueued first, demand second.
	c.AcceptRead(&Req{LineAddr: 1, IsPrefetch: true, FillLevel: L1D,
		OnDone: func(cyc uint64) { pfDone = cyc }}, 0)
	c.AcceptRead(&Req{LineAddr: 2, OnDone: func(cyc uint64) { demDone = cyc }}, 0)
	runCache(c, f, 1, 40)
	if demDone == 0 || pfDone == 0 {
		t.Fatal("requests incomplete")
	}
	if demDone > pfDone {
		t.Fatalf("demand (%d) served after prefetch (%d)", demDone, pfDone)
	}
}

func TestSRRIPVictimSelection(t *testing.T) {
	cfg := testConfig()
	cfg.Repl = SRRIP
	cfg.SizeBytes = 4 * LineSize
	cfg.Ways = 4
	f := &fakeLower{delay: 1}
	c := MustNew(cfg, f)
	for i := uint64(1); i <= 4; i++ {
		c.AcceptDemand(&Req{LineAddr: i, OnDone: func(uint64) {}}, 0)
	}
	runCache(c, f, 0, 30)
	// Re-touch lines 1 and 2 (rrpv -> 0).
	c.AcceptDemand(&Req{LineAddr: 1, OnDone: func(uint64) {}}, 30)
	c.AcceptDemand(&Req{LineAddr: 2, OnDone: func(uint64) {}}, 30)
	runCache(c, f, 30, 10)
	// A new line should evict 3 or 4, not the recently-touched ones.
	c.AcceptDemand(&Req{LineAddr: 9, OnDone: func(uint64) {}}, 45)
	runCache(c, f, 45, 30)
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("SRRIP evicted a recently re-referenced line")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	f := &fakeLower{delay: 5}
	c := MustNew(testConfig(), f)
	c.AcceptDemand(&Req{LineAddr: 77, OnDone: func(uint64) {}}, 0)
	runCache(c, f, 0, 20)
	c.ResetStats()
	if c.Stats.DemandMisses != 0 {
		t.Fatal("stats not reset")
	}
	if !c.Contains(77) {
		t.Fatal("contents must survive a stats reset")
	}
}

func TestDrained(t *testing.T) {
	f := &fakeLower{delay: 5}
	c := MustNew(testConfig(), f)
	if !c.Drained() {
		t.Fatal("fresh cache should be drained")
	}
	c.AcceptDemand(&Req{LineAddr: 1, OnDone: func(uint64) {}}, 0)
	if c.Drained() {
		t.Fatal("pending request should block Drained")
	}
	runCache(c, f, 0, 30)
	if !c.Drained() {
		t.Fatal("cache should drain after fill")
	}
}

func TestConfigSets(t *testing.T) {
	cfg := testConfig()
	if cfg.Sets() != 8*1024/LineSize/4 {
		t.Fatalf("sets = %d", cfg.Sets())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("test config must validate: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"ways", func(c *Config) { c.Ways = 0 }, "Ways"},
		{"size", func(c *Config) { c.SizeBytes = 0 }, "SizeBytes"},
		{"geometry", func(c *Config) { c.SizeBytes = 1000 }, "SizeBytes"},
		{"mshrs", func(c *Config) { c.MSHRs = 0 }, "MSHRs"},
		{"rq", func(c *Config) { c.RQSize = 0 }, "RQSize"},
		{"wq", func(c *Config) { c.WQSize = -1 }, "WQSize"},
		{"pq", func(c *Config) { c.PQSize = -1 }, "PQSize"},
		{"read ports", func(c *Config) { c.ReadPorts = 0 }, "ReadPorts"},
		{"write ports", func(c *Config) { c.WritePorts = 0 }, "WritePorts"},
	} {
		cfg := testConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		ce, ok := err.(*ConfigError)
		if !ok || ce.Field != tc.field {
			t.Fatalf("%s: got %v, want *ConfigError on %s", tc.name, err, tc.field)
		}
		if ce.Name != "T" {
			t.Fatalf("%s: error must carry the cache name, got %q", tc.name, ce.Name)
		}
		if _, err := New(cfg, &fakeLower{}); err == nil {
			t.Fatalf("%s: New must reject what Validate rejects", tc.name)
		}
	}
}

// TestCheckInvariantsCleanAndCorrupt: a healthy cache reports nothing; the
// deliberate corruption helpers must each trip their matching rule.
func TestCheckInvariantsCleanAndCorrupt(t *testing.T) {
	f := &fakeLower{delay: 2}
	c := MustNew(testConfig(), f)
	cyc := uint64(0)
	for i := uint64(0); i < 32; i++ {
		c.AcceptDemand(&Req{LineAddr: i * 3, VLineAddr: i * 3, IP: 0x40}, cyc)
		cyc = runCache(c, f, cyc, 6)
	}
	rules := func() map[string]int {
		got := map[string]int{}
		c.CheckInvariants(cyc, 1_000, func(v check.Violation) { got[v.Rule]++ })
		return got
	}
	if got := rules(); len(got) != 0 {
		t.Fatalf("healthy cache reported violations: %v", got)
	}
	if !c.CorruptDuplicateTag() {
		t.Fatal("corruption helper found no line to duplicate")
	}
	if got := rules(); got[check.RuleDupTag] == 0 {
		t.Fatalf("duplicated tag not flagged: %v", got)
	}
	c.CorruptPQOrphans(2)
	if got := rules(); got[check.RuleQueueBound] == 0 {
		t.Fatalf("overfull PQ not flagged: %v", got)
	}
}

// TestFillDoesNotDuplicateResidentLine pins a bug the invariant checker
// found: a writeback from the level above could install a line while a
// miss for the same line was still in flight, and the later fill would
// install a second copy in another way (dup-tag). The fill must update
// the resident copy in place.
func TestFillDoesNotDuplicateResidentLine(t *testing.T) {
	f := &fakeLower{delay: 30}
	c := MustNew(testConfig(), f)
	c.AcceptDemand(&Req{LineAddr: 500, OnDone: func(uint64) {}}, 0)
	runCache(c, f, 0, 5) // miss issued; the MSHR is in flight
	if !c.AcceptWrite(&Req{LineAddr: 500, Store: true}, 5) {
		t.Fatal("writeback refused")
	}
	runCache(c, f, 5, 60) // writeback installs, then the fill arrives

	ck := check.New()
	c.CheckInvariants(70, 0, ck.Report)
	if ck.Total() != 0 {
		for _, v := range ck.Violations() {
			t.Errorf("violation: %s", v.String())
		}
		t.Fatalf("fill over a resident line broke %d invariant(s)", ck.Total())
	}
	if !c.Contains(500) {
		t.Fatal("line must stay resident")
	}
}

// TestCheckInvariantsMSHRIndex: the MSHR file's index structures must agree
// with its entries. A healthy file with entries in flight and one ready
// reports nothing; damaging any one structure trips mshr-index.
func TestCheckInvariantsMSHRIndex(t *testing.T) {
	build := func() *Cache {
		f := &fakeLower{delay: 1_000}
		c := MustNew(testConfig(), f)
		for i := uint64(0); i < 3; i++ {
			c.AcceptDemand(&Req{LineAddr: 100 + i, OnDone: func(uint64) {}}, 0)
		}
		runCache(c, f, 0, 5)
		c.ReqDone(101, 900) // data arrives far ahead: ready, not yet filled
		if c.MSHROccupancy() != 3 {
			t.Fatalf("setup: %d MSHRs in flight, want 3", c.MSHROccupancy())
		}
		return c
	}
	rules := func(c *Cache) map[string]int {
		got := map[string]int{}
		c.CheckInvariants(10, 0, func(v check.Violation) { got[v.Rule]++ })
		return got
	}
	if got := rules(build()); len(got) != 0 {
		t.Fatalf("healthy MSHR file reported violations: %v", got)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
	}{
		{"valid bit cleared", func(c *Cache) { c.mshrValid[0] &^= 1 }},
		{"valid bit on a free slot", func(c *Cache) { c.mshrValid[0] |= 1 << 3 }},
		{"ready bit without data", func(c *Cache) { c.mshrReady[0] |= 1 }},
		{"ready bit lost", func(c *Cache) { c.mshrReady[0] = 0 }},
		{"occupancy counter", func(c *Cache) { c.mshrUsed++ }},
		{"line missing from index", func(c *Cache) { c.mshrIdx.del(102) }},
		{"index points at wrong slot", func(c *Cache) { c.mshrIdx.put(100, 2) }},
		{"stale line in index", func(c *Cache) { c.mshrIdx.put(999, 4) }},
	} {
		c := build()
		tc.corrupt(c)
		if got := rules(c); got[check.RuleMSHRIndex] == 0 {
			t.Errorf("%s: not flagged as %s: %v", tc.name, check.RuleMSHRIndex, got)
		}
	}
}
