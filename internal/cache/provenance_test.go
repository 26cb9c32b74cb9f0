package cache

import (
	"testing"

	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/stats"
)

// tickChain ticks lower-first so responses propagate the same way the
// engine's scheduler orders them: fakeLower, then L2, then L1D.
func tickChain(c1, c2 *Cache, f *fakeLower, from, n uint64) uint64 {
	for cyc := from; cyc < from+n; cyc++ {
		f.tick(cyc)
		c2.Tick(cyc)
		c1.Tick(cyc)
	}
	return from + n
}

// reconcile asserts the provenance/counter agreement the tracker is built
// around: at every level, tracked + untracked outcomes equal the cache's
// own PrefUseful/PrefLate/PrefUseless counters exactly.
func reconcile(t *testing.T, rep *provenance.Report, name string, s *stats.CacheStats) {
	t.Helper()
	l := rep.Level(name)
	if l == nil {
		if s.PrefUseful != 0 || s.PrefLate != 0 || s.PrefUseless != 0 {
			t.Fatalf("%s: no provenance level stats but counters nonzero: %+v", name, s)
		}
		return
	}
	if got, want := l.Timely+l.UntrackedTimely, s.PrefUseful; got != want {
		t.Errorf("%s: timely %d != PrefUseful %d", name, got, want)
	}
	if got, want := l.Late+l.UntrackedLate, s.PrefLate; got != want {
		t.Errorf("%s: late %d != PrefLate %d", name, got, want)
	}
	if got, want := l.Useless+l.UntrackedUseless, s.PrefUseless; got != want {
		t.Errorf("%s: useless %d != PrefUseless %d", name, got, want)
	}
}

// A fill-at-L2 prefetch is handed down from L1D and races a demand miss
// for the same line at L2: the demand merges into the in-flight prefetch
// MSHR, so L2 counts PrefLate and the tracker resolves the same record
// Late at L2 — never at the issuing L1D.
func TestProvenanceLateFillRacesDemandAtL2(t *testing.T) {
	f := &fakeLower{delay: 80}
	cfg2 := testConfig()
	cfg2.Name, cfg2.Level = "L2", L2
	c2 := MustNew(cfg2, f)
	c1 := MustNew(testConfig(), c2)
	tr := provenance.NewTracker(64)
	c1.SetProvenance(tr)
	c2.SetProvenance(tr)

	pf := &fixedPf{target: 300, level: L2}
	c1.SetPrefetcher(pf)
	c1.AcceptDemand(&Req{LineAddr: 100, Sink: doneFunc(func(uint64) {})}, 0)
	tickChain(c1, c2, f, 0, 10) // prefetch of 300 now in flight below L2
	pf.target = 0

	var done uint64
	c1.AcceptDemand(&Req{LineAddr: 300, Sink: doneFunc(func(cyc uint64) { done = cyc })}, 10)
	tickChain(c1, c2, f, 10, 200)
	if done == 0 {
		t.Fatal("demand racing the prefetch never completed")
	}
	if c2.Stats.PrefLate != 1 {
		t.Fatalf("L2 PrefLate = %d, want 1", c2.Stats.PrefLate)
	}
	if c1.Stats.PrefLate != 0 {
		t.Fatalf("L1D PrefLate = %d, want 0 (the race is at L2)", c1.Stats.PrefLate)
	}

	rep := tr.Report()
	reconcile(t, rep, "L1D", &c1.Stats)
	reconcile(t, rep, "L2", &c2.Stats)
	l2 := rep.Level("L2")
	if l2 == nil || l2.Late != 1 {
		t.Fatalf("tracker L2 late = %+v, want 1", l2)
	}
	if l2.UntrackedLate != 0 {
		t.Fatalf("untracked late = %d with a %d-record pool", l2.UntrackedLate, tr.Capacity())
	}
	if l2.LateWait.Count != 1 || l2.LateWait.Sum == 0 {
		t.Fatalf("late-wait histogram = %+v, want one nonzero observation", l2.LateWait)
	}
	// The issuing level keeps the Issued attribution even though the
	// outcome landed at L2.
	if l1 := rep.Level("L1D"); l1 == nil || l1.Issued != 1 {
		t.Fatalf("L1D issued = %+v, want 1", l1)
	}
}

// A prefetched line at L2 is evicted untouched by writeback installs (the
// non-inclusive back-fill path): PrefUseless and the tracker's Useless
// resolution must agree, and the useless-lifetime histogram must see it.
func TestProvenanceUselessUnderWritebackPressure(t *testing.T) {
	f := &fakeLower{delay: 5}
	cfg := testConfig()
	cfg.Name, cfg.Level = "L2", L2
	cfg.SizeBytes = 4 * LineSize // one set x 4 ways
	cfg.WQSize = 8
	c := MustNew(cfg, f)
	tr := provenance.NewTracker(64)
	c.SetProvenance(tr)

	c.EnqueuePrefetches([]PrefetchReq{{LineAddr: 1, FillLevel: L2}}, 0, 0)
	runCache(c, f, 0, 30)
	if !c.Contains(1) {
		t.Fatal("prefetch not filled")
	}
	// Four dirty writebacks into the only set: three fill the free ways,
	// the fourth back-fill evicts the LRU victim — the untouched
	// prefetched line.
	for i := uint64(2); i <= 5; i++ {
		if !c.AcceptWrite(&Req{LineAddr: i, Store: true}, 30) {
			t.Fatalf("writeback of line %d refused", i)
		}
	}
	runCache(c, f, 30, 40)
	if c.Contains(1) {
		t.Fatal("prefetched line should have been evicted by writeback pressure")
	}
	if c.Stats.PrefUseless != 1 {
		t.Fatalf("PrefUseless = %d, want 1", c.Stats.PrefUseless)
	}

	rep := tr.Report()
	reconcile(t, rep, "L2", &c.Stats)
	l2 := rep.Level("L2")
	if l2 == nil || l2.Useless != 1 || l2.Timely != 0 {
		t.Fatalf("tracker L2 stats = %+v, want exactly one useless", l2)
	}
	if l2.UselessLifetime.Count != 1 || l2.UselessLifetime.Sum == 0 {
		t.Fatalf("useless-lifetime histogram = %+v, want one nonzero observation", l2.UselessLifetime)
	}
	if tr.Live() != 0 {
		t.Fatalf("live records = %d after terminal resolution, want 0", tr.Live())
	}
}

// A fill-at-L1D prefetch installs at both L1D and L2 (the L2 copy is a
// spawned child record). Demand pressure then evicts the untouched L1D
// copy: PrefUseless lands at L1D only, while the L2 child stays live.
func TestProvenanceUselessDemandEvictionMultiLevel(t *testing.T) {
	f := &fakeLower{delay: 5}
	cfg2 := testConfig()
	cfg2.Name, cfg2.Level = "L2", L2
	c2 := MustNew(cfg2, f)
	cfg1 := testConfig()
	cfg1.SizeBytes = 4 * LineSize // one set x 4 ways at L1D
	c1 := MustNew(cfg1, c2)
	tr := provenance.NewTracker(64)
	c1.SetProvenance(tr)
	c2.SetProvenance(tr)

	pf := &fixedPf{target: 300, level: L1D}
	c1.SetPrefetcher(pf)
	c1.AcceptDemand(&Req{LineAddr: 100, Sink: doneFunc(func(uint64) {})}, 0)
	tickChain(c1, c2, f, 0, 40)
	pf.target = 0
	if !c1.Contains(300) || !c2.Contains(300) {
		t.Fatal("fill-L1D prefetch should install at both levels")
	}

	// Fill the single L1D set with younger demand lines until the
	// prefetched line is the LRU victim.
	for i := uint64(1); i <= 4; i++ {
		c1.AcceptDemand(&Req{LineAddr: 400 + i, Sink: doneFunc(func(uint64) {})}, 40)
	}
	tickChain(c1, c2, f, 40, 80)
	if c1.Contains(300) {
		t.Fatal("prefetched line should have been evicted from L1D")
	}
	if c1.Stats.PrefUseless != 1 {
		t.Fatalf("L1D PrefUseless = %d, want 1", c1.Stats.PrefUseless)
	}
	if c2.Stats.PrefUseless != 0 {
		t.Fatalf("L2 PrefUseless = %d, want 0 (its copy is still resident)", c2.Stats.PrefUseless)
	}

	rep := tr.Report()
	reconcile(t, rep, "L1D", &c1.Stats)
	reconcile(t, rep, "L2", &c2.Stats)
	if l1 := rep.Level("L1D"); l1 == nil || l1.Useless != 1 || l1.Issued != 1 {
		t.Fatalf("tracker L1D stats = %+v, want issued=1 useless=1", l1)
	}
	l2 := rep.Level("L2")
	if l2 == nil || l2.Spawned != 1 {
		t.Fatalf("tracker L2 stats = %+v, want spawned=1 (child install)", l2)
	}
	if rep.LiveAtEnd != 1 {
		t.Fatalf("live at end = %d, want 1 (the resident L2 child)", rep.LiveAtEnd)
	}
}
