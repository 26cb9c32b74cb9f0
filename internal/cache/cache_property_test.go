package cache

import (
	"math/rand"
	"testing"
)

// TestRandomTrafficInvariants drives a cache with random demand, prefetch,
// and writeback traffic and checks global invariants at every step: stats
// consistency, eventual completion of every demand, and drainability.
func TestRandomTrafficInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			f := &fakeLower{delay: uint64(5 + rng.Intn(60))}
			cfg := testConfig()
			cfg.Repl = []ReplPolicy{LRU, FIFO, SRRIP, DRRIP}[seed%4]
			c := MustNew(cfg, f)

			outstanding := 0
			issued := 0
			for cyc := uint64(0); cyc < 6000; cyc++ {
				f.tick(cyc)
				c.Tick(cyc)
				switch rng.Intn(6) {
				case 0, 1:
					line := uint64(rng.Intn(256))
					if c.AcceptDemand(&Req{
						LineAddr: line,
						Store:    rng.Intn(4) == 0,
						Sink:     doneFunc(func(uint64) { outstanding-- }),
					}, cyc) {
						outstanding++
						issued++
					}
				case 2:
					c.EnqueuePrefetches([]PrefetchReq{{
						LineAddr:  uint64(rng.Intn(512)),
						FillLevel: []Level{L1D, L2}[rng.Intn(2)],
					}}, cyc, 0)
				case 3:
					c.AcceptWrite(&Req{LineAddr: uint64(rng.Intn(256)), Store: true}, cyc)
				}
				st := &c.Stats
				if st.DemandHits+st.DemandMisses > st.DemandAccesses+st.MSHRMerges {
					t.Fatalf("cycle %d: hits+misses exceed accesses+merges: %+v", cyc, st)
				}
			}
			// Drain: no new traffic; everything must complete.
			for cyc := uint64(6000); cyc < 20000 && (outstanding > 0 || !c.Drained()); cyc++ {
				f.tick(cyc)
				c.Tick(cyc)
			}
			if outstanding != 0 {
				t.Fatalf("%d demands never completed (issued %d)", outstanding, issued)
			}
			if !c.Drained() {
				t.Fatal("cache failed to drain")
			}
		})
	}
}

// TestFillInstallsAtMostOneCopy checks the set never holds duplicate tags.
func TestFillInstallsAtMostOneCopy(t *testing.T) {
	f := &fakeLower{delay: 7}
	c := MustNew(testConfig(), f)
	rng := rand.New(rand.NewSource(42))
	for cyc := uint64(0); cyc < 4000; cyc++ {
		f.tick(cyc)
		c.Tick(cyc)
		if cyc%3 == 0 {
			c.AcceptDemand(&Req{LineAddr: uint64(rng.Intn(64)), Sink: doneFunc(func(uint64) {})}, cyc)
		}
		if cyc%5 == 0 {
			c.EnqueuePrefetches([]PrefetchReq{{LineAddr: uint64(rng.Intn(64)), FillLevel: L1D}}, cyc, 0)
		}
	}
	counts := map[uint64]int{}
	for _, tag := range c.tags {
		if tag != 0 {
			counts[tag-1]++
		}
	}
	for addr, n := range counts {
		if n > 1 {
			t.Fatalf("line %d installed %d times", addr, n)
		}
	}
}

// TestDRRIPLeaderSetsExist sanity-checks set dueling plumbing.
func TestDRRIPLeaderSetsExist(t *testing.T) {
	cfg := testConfig()
	cfg.Repl = DRRIP
	cfg.SizeBytes = 64 * 4 * LineSize // 64 sets x 4 ways
	c := MustNew(cfg, &fakeLower{delay: 1})
	srrip, brrip := 0, 0
	for s := 0; s < c.sets; s++ {
		switch c.duelKind(s) {
		case 1:
			srrip++
		case 2:
			brrip++
		}
	}
	if srrip == 0 || brrip == 0 {
		t.Fatalf("missing leader sets: srrip=%d brrip=%d", srrip, brrip)
	}
}

// TestTranslatorDropBlocksPrefetch: a failing translation must drop the
// prefetch and count it.
type denyXlat struct{}

func (denyXlat) TranslatePrefetchLine(uint64) (uint64, uint64, bool) { return 0, 0, false }

func TestTranslatorDropBlocksPrefetch(t *testing.T) {
	c := MustNew(testConfig(), &fakeLower{delay: 1})
	c.SetTranslator(denyXlat{})
	c.EnqueuePrefetches([]PrefetchReq{{LineAddr: 1, FillLevel: L1D}}, 0, 0)
	if c.Stats.PrefIssued != 0 || c.Stats.PrefDropped != 1 {
		t.Fatalf("prefetch should drop on translation miss: %+v", c.Stats)
	}
}

// TestCrossPageCounter verifies the cross-page statistic fires.
func TestCrossPageCounter(t *testing.T) {
	c := MustNew(testConfig(), &fakeLower{delay: 1})
	// Trigger page 2 (lines 128..191); target line 200 is page 3.
	c.EnqueuePrefetches([]PrefetchReq{{LineAddr: 200, FillLevel: L1D}}, 0, 2)
	if c.Stats.PrefCrossPg != 1 {
		t.Fatalf("cross-page prefetch not counted: %+v", c.Stats)
	}
}
