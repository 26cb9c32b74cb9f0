// Package vm models virtual memory: a first-touch page table, the L1 dTLB,
// and the unified second-level TLB (STLB) with page-walk latency.
//
// The simulator trains the L1D prefetcher on virtual addresses (a key Berti
// property that enables cross-page prefetching) and translates prefetch
// requests through the STLB only, dropping them on an STLB miss, exactly as
// the paper describes.
package vm

import (
	"fmt"

	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/stats"
)

// ConfigError reports an invalid MMU/TLB configuration.
type ConfigError struct {
	// Field names the offending parameter ("DTLBEntries", ...).
	Field string
	// Reason describes the constraint that failed.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("vm: invalid %s: %s", e.Field, e.Reason)
}

// PageShift is log2 of the OS page size (4 KB pages).
const PageShift = 12

// PageSize is the OS page size in bytes.
const PageSize = 1 << PageShift

// PageTable maps virtual pages to physical frames, allocating frames on
// first touch. Frame numbers are assigned by a deterministic multiplicative
// hash so that physically-indexed cache levels observe page-grain
// scrambling of the virtual layout, like a real OS allocator.
type PageTable struct {
	frames    map[uint64]uint64
	nextFrame uint64
	// seed differentiates address spaces of different cores in a mix.
	seed uint64
}

// NewPageTable returns an empty page table. seed differentiates address
// spaces (use the core ID for multi-core mixes).
func NewPageTable(seed uint64) *PageTable {
	return &PageTable{
		frames: make(map[uint64]uint64),
		seed:   seed,
	}
}

// Translate returns the physical frame number for virtual page vpn,
// allocating one if this is the first touch.
func (pt *PageTable) Translate(vpn uint64) uint64 {
	if f, ok := pt.frames[vpn]; ok {
		return f
	}
	// Mix the allocation counter so consecutive virtual pages land on
	// non-consecutive frames (breaks accidental physical streaming).
	n := pt.nextFrame
	pt.nextFrame++
	f := (n*2654435761 + pt.seed*40503) & 0xFFFFFFF // 28-bit frame space
	pt.frames[vpn] = f
	return f
}

// Pages returns the number of distinct pages touched.
func (pt *PageTable) Pages() int { return len(pt.frames) }

// tlbEntry is one TLB entry.
type tlbEntry struct {
	vpn   uint64
	pfn   uint64
	valid bool
	lru   uint64
}

// TLB is a set-associative translation buffer with LRU replacement.
type TLB struct {
	sets     int
	ways     int
	entries  []tlbEntry
	lruClock uint64
	// last indexes the entry of the most recent hit or insert. Consecutive
	// lookups mostly share a page (a prefetcher's candidates around one
	// access), so Lookup tries it before scanning the set. A set never
	// holds a VPN twice, so the memo finds the entry the scan would.
	last int
}

// NewTLB returns a TLB with the given geometry: entries must be positive
// and divisible by ways.
func NewTLB(entries, ways int) (*TLB, error) {
	if ways <= 0 {
		return nil, &ConfigError{Field: "ways", Reason: fmt.Sprintf("must be >= 1, got %d", ways)}
	}
	if entries <= 0 {
		return nil, &ConfigError{Field: "entries", Reason: fmt.Sprintf("must be >= 1, got %d", entries)}
	}
	if entries%ways != 0 {
		return nil, &ConfigError{Field: "entries",
			Reason: fmt.Sprintf("%d entries not divisible by %d ways", entries, ways)}
	}
	return &TLB{
		sets:    entries / ways,
		ways:    ways,
		entries: make([]tlbEntry, entries),
	}, nil
}

// MustNewTLB builds a TLB from a geometry known to be valid (tests,
// compiled-in defaults). It panics on an invalid geometry; user-supplied
// configurations must go through NewTLB.
func MustNewTLB(entries, ways int) *TLB {
	t, err := NewTLB(entries, ways)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *TLB) setIndex(vpn uint64) int {
	if t.sets&(t.sets-1) != 0 {
		return int(vpn % uint64(t.sets))
	}
	return int(vpn) & (t.sets - 1)
}

// Lookup returns the cached translation for vpn. A hit, memoized or not,
// stamps the entry's LRU position.
func (t *TLB) Lookup(vpn uint64) (pfn uint64, ok bool) {
	if e := &t.entries[t.last]; e.valid && e.vpn == vpn {
		t.lruClock++
		e.lru = t.lruClock
		return e.pfn, true
	}
	s := t.setIndex(vpn)
	set := t.entries[s*t.ways : (s+1)*t.ways]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			t.lruClock++
			set[i].lru = t.lruClock
			t.last = s*t.ways + i
			return set[i].pfn, true
		}
	}
	return 0, false
}

// Insert installs a translation, evicting the LRU way.
func (t *TLB) Insert(vpn, pfn uint64) {
	s := t.setIndex(vpn)
	set := t.entries[s*t.ways : (s+1)*t.ways]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	t.lruClock++
	set[victim] = tlbEntry{vpn: vpn, pfn: pfn, valid: true, lru: t.lruClock}
	t.last = s*t.ways + victim
}

// MMUConfig sets the translation-path latencies (cycles).
type MMUConfig struct {
	DTLBEntries int
	DTLBWays    int
	DTLBLatency uint64
	STLBEntries int
	STLBWays    int
	STLBLatency uint64
	// WalkLatency approximates a page walk that mostly hits the paging
	// structure caches (PSCL2..PSCL5 searched in parallel, Table II).
	WalkLatency uint64
}

// DefaultMMUConfig mirrors Table II: 64-entry 4-way dTLB (1 cycle),
// 2048-entry 16-way STLB (8 cycles).
func DefaultMMUConfig() MMUConfig {
	return MMUConfig{
		DTLBEntries: 64, DTLBWays: 4, DTLBLatency: 1,
		STLBEntries: 2048, STLBWays: 16, STLBLatency: 8,
		WalkLatency: 60,
	}
}

// Validate checks the configuration's internal consistency. It returns a
// *ConfigError describing the first violated constraint, or nil.
func (c MMUConfig) Validate() error {
	checkGeom := func(prefix string, entries, ways int) error {
		if ways <= 0 {
			return &ConfigError{Field: prefix + "Ways", Reason: fmt.Sprintf("must be >= 1, got %d", ways)}
		}
		if entries <= 0 {
			return &ConfigError{Field: prefix + "Entries", Reason: fmt.Sprintf("must be >= 1, got %d", entries)}
		}
		if entries%ways != 0 {
			return &ConfigError{Field: prefix + "Entries",
				Reason: fmt.Sprintf("%d entries not divisible by %d ways", entries, ways)}
		}
		return nil
	}
	if err := checkGeom("DTLB", c.DTLBEntries, c.DTLBWays); err != nil {
		return err
	}
	return checkGeom("STLB", c.STLBEntries, c.STLBWays)
}

// MMU combines the page table and the TLB hierarchy for one core.
type MMU struct {
	cfg   MMUConfig
	pt    *PageTable
	dtlb  *TLB
	stlb  *TLB
	Stats stats.TLBStats
	// tr is the structured event tracer (nil = tracing disabled).
	tr *obs.Tracer
}

// SetTracer attaches a structured event tracer (nil disables tracing).
func (m *MMU) SetTracer(t *obs.Tracer) { m.tr = t }

// NewMMU builds the translation path for one core, validating cfg first.
func NewMMU(cfg MMUConfig, seed uint64) (*MMU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MMU{
		cfg:  cfg,
		pt:   NewPageTable(seed),
		dtlb: MustNewTLB(cfg.DTLBEntries, cfg.DTLBWays),
		stlb: MustNewTLB(cfg.STLBEntries, cfg.STLBWays),
	}, nil
}

// MustNewMMU builds an MMU from a configuration known to be valid (tests,
// compiled-in defaults). It panics on an invalid cfg.
func MustNewMMU(cfg MMUConfig, seed uint64) *MMU {
	m, err := NewMMU(cfg, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// TranslateDemand translates a demand access's virtual address and returns
// the physical address plus the translation latency in cycles. Demand
// translations always succeed (walking the page table on STLB miss).
// cycle timestamps the traced page-walk event (pass 0 when untraced).
func (m *MMU) TranslateDemand(vaddr uint64, cycle uint64) (paddr uint64, latency uint64) {
	vpn := vaddr >> PageShift
	off := vaddr & (PageSize - 1)
	m.Stats.DTLBAccesses++
	if pfn, ok := m.dtlb.Lookup(vpn); ok {
		return pfn<<PageShift | off, m.cfg.DTLBLatency
	}
	m.Stats.DTLBMisses++
	m.Stats.STLBAccesses++
	if pfn, ok := m.stlb.Lookup(vpn); ok {
		m.dtlb.Insert(vpn, pfn)
		return pfn<<PageShift | off, m.cfg.DTLBLatency + m.cfg.STLBLatency
	}
	m.Stats.STLBMisses++
	m.Stats.PageWalks++
	if m.tr != nil {
		m.tr.Emit(obs.Event{
			Cycle: cycle, Kind: obs.EvTLBWalk, Source: obs.SrcMMU, Addr: vpn,
		})
	}
	pfn := m.pt.Translate(vpn)
	m.stlb.Insert(vpn, pfn)
	m.dtlb.Insert(vpn, pfn)
	return pfn<<PageShift | off, m.cfg.DTLBLatency + m.cfg.STLBLatency + m.cfg.WalkLatency
}

// TranslatePrefetch translates a prefetch target through the STLB only.
// If the translation misses the STLB the prefetch must be dropped (ok is
// false); prefetches never trigger page walks.
func (m *MMU) TranslatePrefetch(vaddr uint64) (paddr uint64, latency uint64, ok bool) {
	vpn := vaddr >> PageShift
	off := vaddr & (PageSize - 1)
	m.Stats.STLBAccesses++
	if pfn, found := m.stlb.Lookup(vpn); found {
		return pfn<<PageShift | off, m.cfg.STLBLatency, true
	}
	m.Stats.STLBMisses++
	m.Stats.PrefDropTLB++
	return 0, 0, false
}

// PageTable exposes the underlying page table (used by tests).
func (m *MMU) PageTable() *PageTable { return m.pt }

// checkTLB reports duplicate VPNs within a set (tlb-dup) and entries whose
// translation disagrees with the page table (tlb-map).
func (m *MMU) checkTLB(t *TLB, name string, cycle uint64, report func(check.Violation)) {
	for s := 0; s < t.sets; s++ {
		set := t.entries[s*t.ways : (s+1)*t.ways]
		for i := range set {
			if !set[i].valid {
				continue
			}
			if pfn, ok := m.pt.frames[set[i].vpn]; ok && pfn != set[i].pfn {
				report(check.Violation{Rule: check.RuleTLBMap, Component: name, Cycle: cycle,
					Detail: fmt.Sprintf("vpn %#x cached as pfn %#x, page table says %#x",
						set[i].vpn, set[i].pfn, pfn)})
			}
			for j := i + 1; j < len(set); j++ {
				if set[j].valid && set[j].vpn == set[i].vpn {
					report(check.Violation{Rule: check.RuleTLBDup, Component: name, Cycle: cycle,
						Detail: fmt.Sprintf("vpn %#x present in ways %d and %d of set %d",
							set[i].vpn, i, j, s)})
				}
			}
		}
	}
}

// CheckInvariants verifies dTLB and STLB consistency: no duplicate entries
// within a set, and every cached translation agreeing with the page table.
// It never mutates state.
func (m *MMU) CheckInvariants(name string, cycle uint64, report func(check.Violation)) {
	m.checkTLB(m.dtlb, name+".dtlb", cycle, report)
	m.checkTLB(m.stlb, name+".stlb", cycle, report)
}
