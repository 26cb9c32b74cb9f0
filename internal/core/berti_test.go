package core

import (
	"testing"
	"testing/quick"

	"github.com/bertisim/berti/internal/cache"
)

// feed simulates the cache-side protocol for a single-IP access sequence:
// each element is (line, cycle); every access is a demand miss whose fill
// arrives after latency cycles (triggering the timely-delta search).
func feed(b *Berti, ip uint64, accesses [][2]uint64, latency uint64) {
	for _, a := range accesses {
		line, cyc := a[0], a[1]
		b.OnAccess(cache.AccessEvent{IP: ip, LineAddr: line, Cycle: cyc, Hit: false})
		b.OnFill(cache.FillEvent{IP: ip, LineAddr: line, Cycle: cyc + latency, Latency: latency})
	}
}

func cfgNoMargin() Config {
	cfg := DefaultConfig()
	cfg.TimelinessMarginPct = 0
	return cfg
}

// TestFigure4Scenario reproduces the paper's Figure 4: with a fetch latency
// such that only sufficiently-old history entries are timely, the learned
// deltas are exactly the timely ones.
func TestFigure4Scenario(t *testing.T) {
	b := New(cfgNoMargin())
	const ip = 0x400aa1
	// Accesses at addresses 2, 5, 7, 10, 12, 15 (paper's Figure 2/4),
	// spaced 100 cycles apart with a fetch latency of 250 cycles: for
	// address 15 the timely origins are addresses 2 (+13) and 5 (+10).
	seq := [][2]uint64{{2, 100}, {5, 200}, {7, 300}, {10, 400}, {12, 500}, {15, 600}}
	feed(b, ip, seq, 250)

	ds := b.SnapshotDeltas(ip)
	found := map[int64]bool{}
	for _, d := range ds {
		found[d.Delta] = true
	}
	if !found[10] || !found[13] {
		t.Fatalf("expected timely deltas +10 and +13 learned, got %v", ds)
	}
	// Deltas +3 and +5 (from addresses 12 and 10) are NOT timely at
	// latency 250 with 100-cycle spacing (age 100, 200 < 250).
	if found[3] || found[5] {
		t.Fatalf("late deltas must not be learned: %v", ds)
	}
}

// TestConstantStrideLearnsMultiples: a stride-3 IP with latency covering k
// accesses learns multiples of 3 that are at least k accesses deep.
func TestConstantStrideLearnsMultiples(t *testing.T) {
	b := New(cfgNoMargin())
	const ip = 0x400bb2
	var seq [][2]uint64
	for i := uint64(0); i < 64; i++ {
		seq = append(seq, [2]uint64{1000 + 3*i, 100 * i})
	}
	feed(b, ip, seq, 350) // timely: entries >= 4 accesses old -> deltas >= +12
	ds := b.SnapshotDeltas(ip)
	if len(ds) == 0 {
		t.Fatal("nothing learned")
	}
	for _, d := range ds {
		if d.Delta%3 != 0 || d.Delta < 12 {
			t.Fatalf("unexpected delta %+d (want timely multiples of 3)", d.Delta)
		}
	}
	// After enough searches the high-coverage deltas must reach L1D
	// status and predict on accesses.
	reqs := b.OnAccess(cache.AccessEvent{
		IP: ip, LineAddr: 5000, Cycle: 10000, Hit: true,
		MSHRCap: 16, MSHROccupancy: 0,
	})
	if len(reqs) == 0 {
		t.Fatal("no prefetches issued for a learned constant-stride IP")
	}
	for _, r := range reqs {
		if (r.LineAddr-5000)%3 != 0 {
			t.Fatalf("prefetch target %d is not stride-aligned", r.LineAddr)
		}
	}
}

func TestMSHRWatermarkDemotesToL2(t *testing.T) {
	b := New(cfgNoMargin())
	const ip = 0x400cc3
	var seq [][2]uint64
	for i := uint64(0); i < 64; i++ {
		seq = append(seq, [2]uint64{2000 + 4*i, 100 * i})
	}
	feed(b, ip, seq, 350)
	hasL1D := func(reqs []cache.PrefetchReq) bool {
		for _, r := range reqs {
			if r.FillLevel == cache.L1D {
				return true
			}
		}
		return false
	}
	// NOTE: OnAccess results alias a scratch buffer, valid only until the
	// next call — evaluate each before issuing the next access.
	low := b.OnAccess(cache.AccessEvent{IP: ip, LineAddr: 9000, Cycle: 20000,
		Hit: true, MSHRCap: 16, MSHROccupancy: 0})
	if !hasL1D(low) {
		t.Fatal("low MSHR occupancy should allow L1D fills")
	}
	high := b.OnAccess(cache.AccessEvent{IP: ip, LineAddr: 9500, Cycle: 20001,
		Hit: true, MSHRCap: 16, MSHROccupancy: 15})
	if hasL1D(high) {
		t.Fatal("high MSHR occupancy must demote prefetches to L2")
	}
}

func TestLatencyOverflowNotLearned(t *testing.T) {
	cfg := cfgNoMargin()
	cfg.LatencyBits = 4 // overflow at 16 cycles
	b := New(cfg)
	const ip = 0x400dd4
	var seq [][2]uint64
	for i := uint64(0); i < 40; i++ {
		seq = append(seq, [2]uint64{3000 + 2*i, 100 * i})
	}
	feed(b, ip, seq, 200) // 200 >= 2^4: masked to zero, never learned
	if b.Searches != 0 {
		t.Fatalf("overflowed latencies must not trigger searches, got %d", b.Searches)
	}
	if ds := b.SnapshotDeltas(ip); len(ds) != 0 {
		t.Fatalf("learned deltas despite latency overflow: %v", ds)
	}
}

func TestCrossPageFiltering(t *testing.T) {
	cfg := cfgNoMargin()
	cfg.CrossPage = false
	b := New(cfg)
	const ip = 0x400ee5
	var seq [][2]uint64
	// Stride of 68 lines: every delta crosses a 4 KB page (64 lines).
	for i := uint64(0); i < 64; i++ {
		seq = append(seq, [2]uint64{10000 + 68*i, 100 * i})
	}
	feed(b, ip, seq, 350)
	reqs := b.OnAccess(cache.AccessEvent{IP: ip, LineAddr: 50000, Cycle: 30000,
		Hit: true, MSHRCap: 16})
	if len(reqs) != 0 {
		t.Fatalf("cross-page prefetches must be dropped, got %d", len(reqs))
	}
	if b.DroppedXPage == 0 {
		t.Fatal("expected cross-page drops to be counted")
	}
	// Training is unaffected: deltas were still learned.
	if ds := b.SnapshotDeltas(ip); len(ds) == 0 {
		t.Fatal("training should continue with cross-page prefetching disabled")
	}
}

func TestPrefetchHitTrainsWithStoredLatency(t *testing.T) {
	b := New(cfgNoMargin())
	const ip = 0x400ff6
	// Build history via misses first.
	var seq [][2]uint64
	for i := uint64(0); i < 16; i++ {
		seq = append(seq, [2]uint64{4000 + 5*i, 100 * i})
	}
	feed(b, ip, seq, 300)
	before := b.Searches
	// A demand hit on a prefetched line triggers a search with the
	// stored 12-bit latency.
	b.OnAccess(cache.AccessEvent{
		IP: ip, LineAddr: 4100, Cycle: 2000, Hit: true,
		PrefetchHit: true, PfLatency: 200,
	})
	if b.Searches != before+1 {
		t.Fatal("prefetch hit must trigger a timely-delta search")
	}
}

func TestStorageBitsMatchTableI(t *testing.T) {
	b := New(DefaultConfig())
	kb := float64(b.StorageBits()) / 8 / 1024
	if kb < 2.5 || kb > 2.6 {
		t.Fatalf("storage = %.3f KB, paper says 2.55 KB", kb)
	}
}

func TestSignExtendProperty(t *testing.T) {
	f := func(v int32) bool {
		// Any value fitting in 24 bits must roundtrip through the
		// masked representation.
		x := int64(v % (1 << 23))
		return signExtend(uint64(x)&((1<<24)-1), 24) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaTableEviction(t *testing.T) {
	b := New(cfgNoMargin())
	// Touch more IPs than the 16-entry table of deltas holds; the table
	// must keep working (FIFO) without panics and track at most 16.
	for ipIdx := 0; ipIdx < 40; ipIdx++ {
		ip := uint64(0x500000 + ipIdx*21)
		var seq [][2]uint64
		for i := uint64(0); i < 20; i++ {
			seq = append(seq, [2]uint64{uint64(ipIdx*100000) + 7*i, 100 * i})
		}
		feed(b, ip, seq, 350)
	}
	live := 0
	for ipIdx := 0; ipIdx < 40; ipIdx++ {
		if len(b.SnapshotDeltas(uint64(0x500000+ipIdx*21))) > 0 {
			live++
		}
	}
	if live == 0 || live > 16 {
		t.Fatalf("live delta entries = %d, want 1..16", live)
	}
}

func TestTimestampWraparound(t *testing.T) {
	b := New(cfgNoMargin())
	const ip = 0x400aa7
	// Accesses straddling the 16-bit timestamp wrap.
	base := uint64(1<<16) - 300
	var seq [][2]uint64
	for i := uint64(0); i < 8; i++ {
		seq = append(seq, [2]uint64{7000 + 6*i, base + 100*i})
	}
	feed(b, ip, seq, 250)
	if len(b.SnapshotDeltas(ip)) == 0 {
		t.Fatal("wraparound broke delta learning")
	}
}

func TestWarmupIssuesEarly(t *testing.T) {
	b := New(cfgNoMargin())
	const ip = 0x400bb8
	// Fewer than 16 searches (one phase) but at least WarmupMinSearches
	// with a perfectly stable delta: warm-up issuing should kick in.
	var seq [][2]uint64
	for i := uint64(0); i < 10; i++ {
		seq = append(seq, [2]uint64{8000 + 2*i, 200 * i})
	}
	feed(b, ip, seq, 350)
	reqs := b.OnAccess(cache.AccessEvent{IP: ip, LineAddr: 8100, Cycle: 5000,
		Hit: true, MSHRCap: 16})
	if len(reqs) == 0 {
		t.Fatal("warm-up path issued nothing despite stable high-coverage deltas")
	}
}

func TestNoPrefetchFromPrefetchFills(t *testing.T) {
	b := New(cfgNoMargin())
	before := b.Searches
	b.OnFill(cache.FillEvent{IP: 1, LineAddr: 100, Cycle: 1000, Latency: 200, ByPrefetch: true})
	if b.Searches != before {
		t.Fatal("prefetch-caused fills must not trigger searches (demand time unknown)")
	}
}

// TestPerPageKeying: the DPC-3 variant learns per page, so two IPs
// interleaving in one page share a context while the per-IP variant
// separates them.
func TestPerPageKeying(t *testing.T) {
	cfg := DPC3Config()
	cfg.TimelinessMarginPct = 0
	b := New(cfg)
	if b.Name() != "berti-dpc3" {
		t.Fatal("wrong name for per-page variant")
	}
	// One page (line>>6 == 1): stride-2 accesses from ALTERNATING IPs.
	// Per-page keying sees a single +2 stream; per-IP would see +4 per IP.
	var seq [][2]uint64
	for i := uint64(0); i < 30; i++ {
		seq = append(seq, [2]uint64{64 + 2*i, 150 * i})
	}
	for i, a := range seq {
		ip := uint64(0x400040 + (i%2)*21)
		b.OnAccess(cache.AccessEvent{IP: ip, LineAddr: a[0], Cycle: a[1], Hit: false})
		b.OnFill(cache.FillEvent{IP: ip, LineAddr: a[0], Cycle: a[1] + 400, Latency: 400})
	}
	// The table entry is keyed by page (=1), regardless of IP.
	ds := b.SnapshotDeltas(1)
	if len(ds) == 0 {
		t.Fatal("per-page entry missing")
	}
	for _, d := range ds {
		if d.Delta%2 != 0 {
			t.Fatalf("page-level stream is +2; got delta %+d", d.Delta)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"history sets", func(c *Config) { c.HistorySets = 0 }, "HistorySets"},
		{"history ways", func(c *Config) { c.HistoryWays = -2 }, "HistoryWays"},
		{"table entries", func(c *Config) { c.DeltaTableEntries = 0 }, "DeltaTableEntries"},
		{"deltas per entry", func(c *Config) { c.DeltasPerEntry = 0 }, "DeltasPerEntry"},
		{"delta bits low", func(c *Config) { c.DeltaBits = 1 }, "DeltaBits"},
		{"delta bits high", func(c *Config) { c.DeltaBits = 33 }, "DeltaBits"},
		{"timestamp bits", func(c *Config) { c.TimestampBits = 64 }, "TimestampBits"},
		{"line addr bits", func(c *Config) { c.LineAddrBits = 0 }, "LineAddrBits"},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		ce, ok := err.(*ConfigError)
		if !ok || ce.Field != tc.field {
			t.Fatalf("%s: got %v, want *ConfigError on %s", tc.name, err, tc.field)
		}
	}
}

// TestFillLevelByStatus pins the fill level of a warmed delta per status.
// A medium-coverage (L2-status) delta issues an L2 prefetch on every L1D
// access: plain demand hits, misses and first hits on prefetched lines
// alike. A high-coverage (L1D-status) delta fills the L1D until the MSHR
// reaches MSHROccupancyPct, then falls back to L2.
func TestFillLevelByStatus(t *testing.T) {
	const ip, delta, line = 0x400dd4, 7, 1000
	// warm closes one learning phase in which hits of the 16 searches
	// found delta timely: 6 -> l2_pref_repl, 8 -> l2_pref, 16 -> l1d_pref.
	warm := func(hits int) *Berti {
		b := New(DefaultConfig())
		for i := 0; i < 16; i++ {
			var ds []int64
			if i < hits {
				ds = []int64{delta}
			}
			b.recordSearch(ip, ds)
		}
		return b
	}
	cases := []struct {
		name   string
		hits   int
		status string
		ev     cache.AccessEvent
		want   cache.Level
	}{
		{"L2 status, demand hit", 8, "l2_pref", cache.AccessEvent{Hit: true}, cache.L2},
		{"L2 status, demand miss", 8, "l2_pref", cache.AccessEvent{}, cache.L2},
		{"L2 status, prefetch hit", 8, "l2_pref", cache.AccessEvent{Hit: true, PrefetchHit: true}, cache.L2},
		{"L2 replaceable status, demand hit", 6, "l2_pref_repl", cache.AccessEvent{Hit: true}, cache.L2},
		{"L1D status, MSHR below watermark", 16, "l1d_pref",
			cache.AccessEvent{Hit: true, MSHRCap: 10, MSHROccupancy: 6}, cache.L1D},
		{"L1D status, MSHR at watermark", 16, "l1d_pref",
			cache.AccessEvent{Hit: true, MSHRCap: 10, MSHROccupancy: 7}, cache.L2},
		{"L1D status, MSHR above watermark", 16, "l1d_pref",
			cache.AccessEvent{MSHRCap: 10, MSHROccupancy: 9}, cache.L2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := warm(c.hits)
			if ds := b.SnapshotDeltas(ip); len(ds) != 1 || ds[0].Status != c.status {
				t.Fatalf("warmed deltas %+v, want one %s delta", ds, c.status)
			}
			ev := c.ev
			ev.IP, ev.LineAddr, ev.Cycle = ip, line, 5000
			reqs := b.OnAccess(ev)
			if len(reqs) != 1 || reqs[0].LineAddr != line+delta || reqs[0].FillLevel != c.want {
				t.Fatalf("issued %+v, want one prefetch of line %d filling %v", reqs, line+delta, c.want)
			}
		})
	}
}
