// Package core implements Berti, the paper's primary contribution: a
// first-level data-cache prefetcher that selects, per instruction pointer,
// the local deltas that yield timely prefetches, estimates each delta's
// coverage, and issues prefetch requests only for high-coverage deltas,
// orchestrating the fill level (L1D vs. L2) with coverage and MSHR-occupancy
// watermarks (Section III and Figures 4-6 of the paper).
package core

import (
	"fmt"

	"github.com/bertisim/berti/internal/cache"
)

// Delta status values (the 2-bit status field of the table of deltas).
const (
	statusNoPref uint8 = iota
	statusL2Repl       // L2 prefetch, replaceable (coverage < 50% last phase)
	statusL2           // fill till L2
	statusL1D          // fill till L1D
)

// Config holds every Berti parameter. The zero value is not valid; use
// DefaultConfig and mutate for the sensitivity studies (Figs. 21-22, §IV.J).
type Config struct {
	// HistorySets and HistoryWays give the history-table geometry
	// (8 sets x 16 ways = 128 entries in the paper).
	HistorySets int
	HistoryWays int
	// DeltaTableEntries is the number of table-of-deltas entries (16).
	DeltaTableEntries int
	// DeltasPerEntry is the per-IP delta array length (16).
	DeltasPerEntry int
	// MaxTimelyPerSearch bounds deltas collected per history search (8).
	MaxTimelyPerSearch int
	// MaxSelectedDeltas bounds deltas given L1D/L2 status per phase (12).
	MaxSelectedDeltas int
	// HighWatermarkPct is the L1D-fill coverage watermark (65).
	HighWatermarkPct int
	// MediumWatermarkPct is the L2-fill coverage watermark (35).
	MediumWatermarkPct int
	// ReplWatermarkPct marks L2 deltas replaceable below it (50).
	ReplWatermarkPct int
	// WarmupHighPct is the raised high watermark used before the first
	// learning phase completes (80).
	WarmupHighPct int
	// WarmupMinSearches is the minimum search count before warm-up
	// prefetching starts (8).
	WarmupMinSearches int
	// MSHROccupancyPct: prefetch fills to L1D only when MSHR occupancy
	// is below this fraction (70).
	MSHROccupancyPct int
	// TimelinessMarginPct inflates the measured fetch latency when
	// deciding which history entries are timely, compensating for
	// prefetch requests being slower than demand requests (PQ queueing
	// and demand-priority scheduling; Section III-A notes prefetch
	// latency exceeds demand latency). 25 = require 1.25x latency.
	TimelinessMarginPct int
	// LatencyBits is the width of the per-line latency counter (12);
	// latencies that overflow are set to zero and not learned (§IV.J).
	LatencyBits int
	// TimestampBits is the width of history timestamps (16).
	TimestampBits int
	// DeltaBits is the signed width of a stored delta (13).
	DeltaBits int
	// LineAddrBits is the width of stored line addresses (24).
	LineAddrBits int
	// CrossPage enables issuing prefetches that cross a 4 KB page
	// (training is unaffected; §IV.J cross-page ablation).
	CrossPage bool
	// KeyByPage switches the learning context from the instruction
	// pointer to the 4 KB page, turning the prefetcher into the DPC-3
	// per-page Berti this paper's design evolved from (reference [46]).
	// The MICRO 2022 contribution is exactly the per-IP (local) keying.
	KeyByPage bool
	// L1DLines is the number of L1D lines carrying latency metadata
	// (768 for the 48 KB L1D), used only for the storage report.
	L1DLines int
	// PQEntries and MSHREntries carry timestamp fields (16 each), used
	// only for the storage report.
	PQEntries, MSHREntries int
}

// DPC3Config returns the per-page ancestor of Berti (Ros, DPC-3 2019):
// identical machinery keyed by page instead of IP.
func DPC3Config() Config {
	cfg := DefaultConfig()
	cfg.KeyByPage = true
	return cfg
}

// DefaultConfig returns the paper's configuration (Table I, Section III-C).
func DefaultConfig() Config {
	return Config{
		HistorySets:         8,
		HistoryWays:         16,
		DeltaTableEntries:   16,
		DeltasPerEntry:      16,
		MaxTimelyPerSearch:  8,
		MaxSelectedDeltas:   12,
		HighWatermarkPct:    65,
		MediumWatermarkPct:  35,
		ReplWatermarkPct:    50,
		WarmupHighPct:       80,
		WarmupMinSearches:   8,
		MSHROccupancyPct:    70,
		TimelinessMarginPct: 25,
		LatencyBits:         12,
		TimestampBits:       16,
		DeltaBits:           13,
		LineAddrBits:        24,
		CrossPage:           true,
		L1DLines:            768,
		PQEntries:           16,
		MSHREntries:         16,
	}
}

// histEntry is one history-table entry: IP tag, line address, timestamp.
type histEntry struct {
	valid   bool
	ipTag   uint64
	line    uint64 // masked to LineAddrBits
	ts      uint64 // masked to TimestampBits
	fifoSeq uint64 // insertion order within the set (FIFO replacement)
}

// deltaSlot is one element of a table-of-deltas entry's delta array.
type deltaSlot struct {
	delta    int64 // non-zero when occupied
	coverage uint8 // 4-bit occurrence counter within the phase
	status   uint8 // 2-bit fill-level status from the previous phase
	// lastCov is the measured coverage (percent) that earned the status in
	// the previous phase close-out — Berti's internal confidence for
	// prefetches issued on this delta, reported to the provenance layer
	// so claimed confidence can be crossed against ground-truth outcomes.
	// Observability only: not part of the paper's hardware budget.
	lastCov uint8
}

// deltaEntry is one table-of-deltas entry.
type deltaEntry struct {
	valid   bool
	tag     uint64 // 10-bit hash of the IP
	counter uint8  // 4-bit search counter
	deltas  []deltaSlot
	warmed  bool // at least one learning phase completed
	fifoSeq uint64
}

// Berti implements cache.Prefetcher.
type Berti struct {
	cfg     Config
	history []histEntry // HistorySets * HistoryWays
	table   []deltaEntry
	fifoSeq uint64

	tsMask   uint64
	lineMask uint64
	deltaMax int64

	// Stats observable by the harness.
	Searches      uint64
	TimelyDeltas  uint64
	PhaseResets   uint64
	IssuedL1D     uint64
	IssuedL2      uint64
	DroppedXPage  uint64
	DiscardDeltas uint64

	// scratch buffers avoid per-access allocation.
	scratch    []cache.PrefetchReq
	cands      []deltaCand
	deltaOut   []int64
	idxScratch []int
}

// deltaCand is a timely-delta search candidate.
type deltaCand struct {
	delta int64
	seq   uint64
}

// ConfigError reports an invalid Berti configuration.
type ConfigError struct {
	// Field names the offending parameter.
	Field string
	// Reason describes the constraint that failed.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid Berti config %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration's internal consistency. It returns a
// *ConfigError describing the first violated constraint, or nil. Callers
// constructing Berti from user-supplied parameters must validate before
// calling New (which panics on geometry it cannot build).
func (c Config) Validate() error {
	bad := func(field string, got int) error {
		return &ConfigError{Field: field, Reason: fmt.Sprintf("must be >= 1, got %d", got)}
	}
	if c.HistorySets <= 0 {
		return bad("HistorySets", c.HistorySets)
	}
	if c.HistoryWays <= 0 {
		return bad("HistoryWays", c.HistoryWays)
	}
	if c.DeltaTableEntries <= 0 {
		return bad("DeltaTableEntries", c.DeltaTableEntries)
	}
	if c.DeltasPerEntry <= 0 {
		return bad("DeltasPerEntry", c.DeltasPerEntry)
	}
	if c.DeltaBits < 2 || c.DeltaBits > 32 {
		return &ConfigError{Field: "DeltaBits", Reason: fmt.Sprintf("must be in [2,32], got %d", c.DeltaBits)}
	}
	if c.TimestampBits < 1 || c.TimestampBits > 63 {
		return &ConfigError{Field: "TimestampBits", Reason: fmt.Sprintf("must be in [1,63], got %d", c.TimestampBits)}
	}
	if c.LineAddrBits < 1 || c.LineAddrBits > 63 {
		return &ConfigError{Field: "LineAddrBits", Reason: fmt.Sprintf("must be in [1,63], got %d", c.LineAddrBits)}
	}
	return nil
}

// New builds a Berti prefetcher with cfg. It panics on an invalid
// configuration; user-supplied configurations must be checked with
// Config.Validate first (the factory call sites are no-error closures).
func New(cfg Config) *Berti {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Berti{
		cfg:      cfg,
		history:  make([]histEntry, cfg.HistorySets*cfg.HistoryWays),
		table:    make([]deltaEntry, cfg.DeltaTableEntries),
		tsMask:   (1 << cfg.TimestampBits) - 1,
		lineMask: (1 << cfg.LineAddrBits) - 1,
		deltaMax: (1 << (cfg.DeltaBits - 1)) - 1,
	}
	for i := range b.table {
		b.table[i].deltas = make([]deltaSlot, cfg.DeltasPerEntry)
	}
	// closePhase ranks at most DeltasPerEntry candidates; pre-sizing the
	// index scratch keeps the access path allocation-free.
	b.idxScratch = make([]int, 0, cfg.DeltasPerEntry)
	return b
}

// Name implements cache.Prefetcher.
func (b *Berti) Name() string {
	if b.cfg.KeyByPage {
		return "berti-dpc3"
	}
	return "berti"
}

// key selects the learning context: the IP (the paper's local deltas) or
// the 4 KB page (the DPC-3 ancestor).
func (b *Berti) key(ip, vline uint64) uint64 {
	if b.cfg.KeyByPage {
		return vline >> (12 - cache.LineShift)
	}
	return ip
}

// StorageBits implements cache.Prefetcher: the Table I budget.
func (b *Berti) StorageBits() int {
	histEntryBits := 7 + b.cfg.LineAddrBits + b.cfg.TimestampBits
	histBits := b.cfg.HistorySets*b.cfg.HistoryWays*histEntryBits + b.cfg.HistorySets*4
	deltaBits := b.cfg.DeltaTableEntries*(10+4+b.cfg.DeltasPerEntry*(b.cfg.DeltaBits+4+2)) + 4
	queueBits := (b.cfg.PQEntries + b.cfg.MSHREntries) * b.cfg.TimestampBits
	l1dBits := b.cfg.L1DLines * b.cfg.LatencyBits
	return histBits + deltaBits + queueBits + l1dBits
}

// hashIP folds the IP so set indexing works for any instruction alignment
// (hardware would drop the fixed low bits; traces here have arbitrary IP
// spacing).
func hashIP(ip uint64) uint64 {
	return ip ^ ip>>7 ^ ip>>15
}

// historySet returns the set slice for ip.
func (b *Berti) historySet(ip uint64) []histEntry {
	s := int(hashIP(ip) % uint64(b.cfg.HistorySets))
	return b.history[s*b.cfg.HistoryWays : (s+1)*b.cfg.HistoryWays]
}

// ipTag is the 7-bit history tag (after removing index bits).
func (b *Berti) ipTag(ip uint64) uint64 {
	return (hashIP(ip) / uint64(b.cfg.HistorySets)) & 0x7F
}

// tableTag is the 10-bit table-of-deltas tag.
func (b *Berti) tableTag(ip uint64) uint64 {
	return (ip ^ ip>>10 ^ ip>>20) & 0x3FF
}

// insertHistory records an access (demand miss or first demand hit on a
// prefetched line) in the IP's history set with FIFO replacement.
func (b *Berti) insertHistory(ip, vline, cycle uint64) {
	set := b.historySet(ip)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].fifoSeq < set[victim].fifoSeq {
			victim = i
		}
	}
	b.fifoSeq++
	set[victim] = histEntry{
		valid:   true,
		ipTag:   b.ipTag(ip),
		line:    vline & b.lineMask,
		ts:      cycle & b.tsMask,
		fifoSeq: b.fifoSeq,
	}
}

// maskLatency applies the LatencyBits overflow-to-zero rule.
func (b *Berti) maskLatency(lat uint64) uint64 {
	if lat >= 1<<b.cfg.LatencyBits {
		return 0
	}
	return lat
}

// timelyDeltas searches the IP's history for accesses old enough that a
// prefetch issued at their time would have completed by demandCycle, and
// returns the deltas of the youngest MaxTimelyPerSearch such entries.
func (b *Berti) timelyDeltas(ip, curLine, demandCycle, latency uint64) []int64 {
	if latency == 0 {
		return nil
	}
	latency += latency * uint64(b.cfg.TimelinessMarginPct) / 100
	if latency > b.tsMask {
		latency = b.tsMask
	}
	set := b.historySet(ip)
	tag := b.ipTag(ip)
	cur := curLine & b.lineMask
	demand16 := demandCycle & b.tsMask

	b.cands = b.cands[:0]
	for i := range set {
		e := &set[i]
		if !e.valid || e.ipTag != tag {
			continue
		}
		// Age of the entry at the demand, in 16-bit wraparound space.
		age := (demand16 - e.ts) & b.tsMask
		if age < latency {
			continue // a prefetch issued then would have been late
		}
		d := signExtend(cur-e.line, b.cfg.LineAddrBits)
		if d == 0 || d > b.deltaMax || d < -b.deltaMax-1 {
			continue
		}
		b.cands = append(b.cands, deltaCand{delta: d, seq: e.fifoSeq})
	}
	// Youngest entries first (a history set holds at most 16 entries, so
	// insertion sort beats sort.Slice's allocation).
	cands := b.cands
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].seq > cands[j-1].seq; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if len(cands) > b.cfg.MaxTimelyPerSearch {
		cands = cands[:b.cfg.MaxTimelyPerSearch]
	}
	b.deltaOut = b.deltaOut[:0]
	for _, c := range cands {
		dup := false
		for _, d := range b.deltaOut {
			if d == c.delta {
				dup = true
				break
			}
		}
		if !dup {
			b.deltaOut = append(b.deltaOut, c.delta)
		}
	}
	return b.deltaOut
}

// signExtend interprets the low `bits` bits of v as a signed value.
func signExtend(v uint64, bits int) int64 {
	v &= (1 << bits) - 1
	if v&(1<<(bits-1)) != 0 {
		return int64(v) - (1 << bits)
	}
	return int64(v)
}

// findTableEntry returns the table-of-deltas entry for ip, or nil.
func (b *Berti) findTableEntry(ip uint64) *deltaEntry {
	tag := b.tableTag(ip)
	for i := range b.table {
		if b.table[i].valid && b.table[i].tag == tag {
			return &b.table[i]
		}
	}
	return nil
}

// allocTableEntry allocates (FIFO) an entry for ip, resetting it.
func (b *Berti) allocTableEntry(ip uint64) *deltaEntry {
	victim := 0
	for i := range b.table {
		if !b.table[i].valid {
			victim = i
			break
		}
		if b.table[i].fifoSeq < b.table[victim].fifoSeq {
			victim = i
		}
	}
	b.fifoSeq++
	e := &b.table[victim]
	e.valid = true
	e.tag = b.tableTag(ip)
	e.counter = 0
	e.warmed = false
	e.fifoSeq = b.fifoSeq
	for i := range e.deltas {
		e.deltas[i] = deltaSlot{}
	}
	return e
}

// recordSearch accumulates one history search's timely deltas into the
// table of deltas, running a learning-phase close-out when the 4-bit
// counter overflows.
func (b *Berti) recordSearch(ip uint64, deltas []int64) {
	e := b.findTableEntry(ip)
	if e == nil {
		e = b.allocTableEntry(ip)
	}
	e.counter++
	for _, d := range deltas {
		b.bumpDelta(e, d)
	}
	if e.counter >= 16 {
		b.closePhase(e)
	}
}

// bumpDelta increments the coverage of d, inserting it if absent.
func (b *Berti) bumpDelta(e *deltaEntry, d int64) {
	var free *deltaSlot
	for i := range e.deltas {
		s := &e.deltas[i]
		if s.delta == d {
			if s.coverage < 15 {
				s.coverage++
			}
			return
		}
		if free == nil && s.delta == 0 {
			free = s
		}
	}
	if free != nil {
		*free = deltaSlot{delta: d, coverage: 1, status: statusNoPref}
		return
	}
	// Evict: lowest-coverage slot whose status is replaceable.
	var victim *deltaSlot
	for i := range e.deltas {
		s := &e.deltas[i]
		if s.status != statusL2Repl && s.status != statusNoPref {
			continue
		}
		if victim == nil || s.coverage < victim.coverage {
			victim = s
		}
	}
	if victim == nil {
		b.DiscardDeltas++
		return
	}
	*victim = deltaSlot{delta: d, coverage: 1, status: statusNoPref}
}

// closePhase computes coverages against the 16-search window and assigns
// statuses, then begins a new learning phase.
func (b *Berti) closePhase(e *deltaEntry) {
	b.PhaseResets++
	// Rank candidate deltas by coverage so the MaxSelectedDeltas bound
	// keeps the best ones.
	idx := b.idxScratch[:0]
	for i := range e.deltas {
		if e.deltas[i].delta != 0 {
			idx = append(idx, i)
		}
	}
	// Insertion sort by descending coverage (at most 16 elements).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && e.deltas[idx[j]].coverage > e.deltas[idx[j-1]].coverage; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	selected := 0
	highCov := uint8(16 * b.cfg.HighWatermarkPct / 100)  // cov > this => L1D
	medCov := uint8(16 * b.cfg.MediumWatermarkPct / 100) // cov > this => L2
	replCov := uint8(16 * b.cfg.ReplWatermarkPct / 100)  // cov < this => replaceable
	for _, i := range idx {
		s := &e.deltas[i]
		switch {
		case selected < b.cfg.MaxSelectedDeltas && s.coverage > highCov:
			s.status = statusL1D
			selected++
		case selected < b.cfg.MaxSelectedDeltas && s.coverage > medCov:
			if s.coverage < replCov {
				s.status = statusL2Repl
			} else {
				s.status = statusL2
			}
			selected++
		default:
			s.status = statusNoPref
		}
		s.lastCov = covPercent(s.coverage, 16)
		s.coverage = 0
	}
	e.counter = 0
	e.warmed = true
}

// covPercent converts an occurrence count over n searches into a clamped
// percentage (the confidence reported with each issued prefetch).
func covPercent(cov uint8, n int) uint8 {
	if n <= 0 {
		return 0
	}
	p := int(cov) * 100 / n
	if p > 100 {
		p = 100
	}
	return uint8(p)
}

// OnAccess implements cache.Prefetcher. It trains on demand misses and on
// the first demand hit to a prefetched line, and predicts (issues
// prefetches) on every L1D access.
func (b *Berti) OnAccess(ev cache.AccessEvent) []cache.PrefetchReq {
	key := b.key(ev.IP, ev.LineAddr)
	if ev.PrefetchHit {
		// A prefetched line was demanded: this would have been a miss
		// in the baseline. Learn timely deltas using the stored
		// prefetch latency, then record the access in the history.
		lat := b.maskLatency(uint64(ev.PfLatency))
		if lat != 0 {
			b.Searches++
			deltas := b.timelyDeltas(key, ev.LineAddr, ev.Cycle, lat)
			b.TimelyDeltas += uint64(len(deltas))
			b.recordSearch(key, deltas)
		}
		b.insertHistory(key, ev.LineAddr, ev.Cycle)
	} else if !ev.Hit {
		// Demand miss: record in the history now; the timely-delta
		// search happens at fill time (OnFill) when the latency is
		// known.
		b.insertHistory(key, ev.LineAddr, ev.Cycle)
	}
	return b.predict(ev)
}

// predict looks up the table of deltas and emits prefetch requests.
func (b *Berti) predict(ev cache.AccessEvent) []cache.PrefetchReq {
	e := b.findTableEntry(b.key(ev.IP, ev.LineAddr))
	if e == nil {
		return nil
	}
	b.scratch = b.scratch[:0]
	mshrBelow := ev.MSHRCap == 0 ||
		ev.MSHROccupancy*100 < b.cfg.MSHROccupancyPct*ev.MSHRCap
	page := ev.LineAddr >> (12 - cache.LineShift)
	warmHigh := b.cfg.WarmupHighPct
	for i := range e.deltas {
		s := &e.deltas[i]
		if s.delta == 0 {
			continue
		}
		var level cache.Level
		conf := s.lastCov
		switch {
		case e.warmed && s.status == statusL1D:
			if mshrBelow {
				level = cache.L1D
			} else {
				level = cache.L2
			}
		case e.warmed && (s.status == statusL2 || s.status == statusL2Repl):
			level = cache.L2
		case !e.warmed && int(e.counter) >= b.cfg.WarmupMinSearches &&
			int(s.coverage)*100 >= warmHigh*int(e.counter):
			// Warm-up: issue early for very-high-coverage deltas. The
			// confidence is the live coverage ratio over the searches so
			// far (no closed phase to report yet).
			conf = covPercent(s.coverage, int(e.counter))
			if mshrBelow {
				level = cache.L1D
			} else {
				level = cache.L2
			}
		default:
			continue
		}
		target := uint64(int64(ev.LineAddr) + s.delta)
		if !b.cfg.CrossPage && target>>(12-cache.LineShift) != page {
			b.DroppedXPage++
			continue
		}
		if level == cache.L1D {
			b.IssuedL1D++
		} else {
			b.IssuedL2++
		}
		b.scratch = append(b.scratch, cache.PrefetchReq{
			LineAddr:   target,
			FillLevel:  level,
			Confidence: conf,
		})
	}
	return b.scratch
}

// OnFill implements cache.Prefetcher. Demand-caused fills trigger the
// timely-delta search with the measured fetch latency; prefetch-caused
// fills are ignored (their demand time is unknown).
func (b *Berti) OnFill(ev cache.FillEvent) {
	if ev.ByPrefetch {
		return
	}
	lat := b.maskLatency(ev.Latency)
	if lat == 0 {
		return
	}
	// The demand occurred latency cycles before the fill; a timely
	// prefetch must have been issued another latency before that.
	key := b.key(ev.IP, ev.LineAddr)
	demandCycle := ev.Cycle - lat
	b.Searches++
	deltas := b.timelyDeltas(key, ev.LineAddr, demandCycle, lat)
	b.TimelyDeltas += uint64(len(deltas))
	b.recordSearch(key, deltas)
}

// DeltaStatus describes one learned delta for introspection (Fig. 3).
type DeltaStatus struct {
	Delta    int64
	Coverage uint8
	Status   string
}

// SnapshotDeltas returns the current learned deltas for ip (empty when the
// IP has no table entry). Used by the Fig. 3 harness and tests.
func (b *Berti) SnapshotDeltas(ip uint64) []DeltaStatus {
	e := b.findTableEntry(ip)
	if e == nil {
		return nil
	}
	var out []DeltaStatus
	names := map[uint8]string{
		statusNoPref: "no_pref",
		statusL2Repl: "l2_pref_repl",
		statusL2:     "l2_pref",
		statusL1D:    "l1d_pref",
	}
	for i := range e.deltas {
		s := e.deltas[i]
		if s.delta == 0 {
			continue
		}
		out = append(out, DeltaStatus{Delta: s.delta, Coverage: s.coverage, Status: names[s.status]})
	}
	return out
}

// Introspect implements obs.Introspector: it exposes the delta-table
// occupancy, the per-delta coverage histogram, and the per-status delta
// counts (plus the cumulative training counters), sampled by the interval
// sampler to show when and how Berti's tables converge.
func (b *Berti) Introspect(out map[string]float64) {
	entries := 0
	var slots, l1dSlots, l2Slots, l2ReplSlots, noPrefSlots int
	var covHist [4]int // coverage buckets 0-3, 4-7, 8-11, 12-15
	for i := range b.table {
		e := &b.table[i]
		if !e.valid {
			continue
		}
		entries++
		for j := range e.deltas {
			s := &e.deltas[j]
			if s.delta == 0 {
				continue
			}
			slots++
			switch s.status {
			case statusL1D:
				l1dSlots++
			case statusL2:
				l2Slots++
			case statusL2Repl:
				l2ReplSlots++
			default:
				noPrefSlots++
			}
			covHist[s.coverage/4]++
		}
	}
	out["table_occupancy"] = float64(entries) / float64(len(b.table))
	out["delta_slot_occupancy"] = float64(slots) / float64(len(b.table)*b.cfg.DeltasPerEntry)
	out["deltas_l1d"] = float64(l1dSlots)
	out["deltas_l2"] = float64(l2Slots)
	out["deltas_l2_repl"] = float64(l2ReplSlots)
	out["deltas_no_pref"] = float64(noPrefSlots)
	out["cov_hist_0_3"] = float64(covHist[0])
	out["cov_hist_4_7"] = float64(covHist[1])
	out["cov_hist_8_11"] = float64(covHist[2])
	out["cov_hist_12_15"] = float64(covHist[3])
	out["searches"] = float64(b.Searches)
	out["timely_deltas"] = float64(b.TimelyDeltas)
	if b.Searches > 0 {
		out["timely_per_search"] = float64(b.TimelyDeltas) / float64(b.Searches)
	} else {
		out["timely_per_search"] = 0
	}
	out["phase_resets"] = float64(b.PhaseResets)
	out["issued_l1d"] = float64(b.IssuedL1D)
	out["issued_l2"] = float64(b.IssuedL2)
}

// String summarizes internal statistics.
func (b *Berti) String() string {
	return fmt.Sprintf("berti{searches=%d timely=%d phases=%d l1d=%d l2=%d}",
		b.Searches, b.TimelyDeltas, b.PhaseResets, b.IssuedL1D, b.IssuedL2)
}
