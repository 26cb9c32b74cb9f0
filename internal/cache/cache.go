// Package cache models the on-chip memory hierarchy: set-associative,
// non-inclusive caches with MSHRs, read/write/prefetch queues, multiple
// replacement policies, and the prefetcher hook points Berti and the
// baseline prefetchers need (per-access events with virtual addresses at
// L1D, fill events with measured fetch latency, per-line prefetch bits and
// 12-bit latency metadata).
//
// The per-access path is allocation-free in steady state: queues are
// fixed-capacity value rings (internal/ringbuf), completion callbacks are
// sink+token pairs or pooled waiter nodes instead of per-request closures.
// It is also scan-free: the PQ duplicate check and the MSHR file's line
// lookup are open-addressed index probes, MSHR allocation and the fill
// sweep use valid/ready bitsets, and set lookups scan a dense tag array
// (see hotpath.go and DESIGN.md §15).
package cache

import (
	"fmt"
	"math/bits"

	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/ringbuf"
	"github.com/bertisim/berti/internal/stats"
)

// Level identifies a position in the hierarchy. Smaller is closer to the
// core. FillLevel semantics: a request with FillLevel L fills every cache
// whose level index is >= L on the response path.
type Level int

// Hierarchy levels.
const (
	L1D Level = iota
	L2
	LLC
	MEM
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case L1D:
		return "L1D"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case MEM:
		return "MEM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// LineShift is log2 of the cache line size (64-byte lines).
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// Req is a request travelling between hierarchy levels. Addresses are
// line-granular (byte address >> LineShift) and physical below L1D.
// Queues store Req by value; the structs callers pass to Accept* are
// copied in, so a caller-owned Req never outlives the call.
type Req struct {
	// LineAddr is the physical line address.
	LineAddr uint64
	// VLineAddr is the virtual line address (propagated from L1D so
	// prefetchers training on virtual addresses can observe fills).
	VLineAddr uint64
	// IP is the instruction pointer that triggered the request.
	IP uint64
	// IsPrefetch marks prefetch requests.
	IsPrefetch bool
	// FillLevel is the closest-to-core level this request fills.
	FillLevel Level
	// Sink receives the completion as Sink.ReqDone(Token, cycle), with the
	// cycle at which data is available to the requester. Nil for writes
	// and fire-and-forget prefetches.
	Sink DoneSink
	// Token identifies the request to its Sink (opaque to the cache).
	Token uint64
	// Store marks demand stores (write-allocate; the line is dirtied on
	// fill). Writebacks are Store requests with no completion callback.
	Store bool
	// notBefore delays processing (translation latency etc.).
	notBefore uint64
	// enqueued records when the request entered the current queue.
	enqueued uint64
	// provID carries the prefetch's provenance record across levels
	// (0 = untracked; only prefetch requests built inside the cache layer
	// ever set it).
	provID uint32
	// whead/wtail root the pooled waiter chain of requests combined into
	// this one while it sits in the read queue (index+1 into the owning
	// cache's pool; 0 = none). Only meaningful inside that cache.
	whead, wtail int32
}

// hasDone reports whether the request carries a completion sink.
func (r *Req) hasDone() bool { return r.Sink != nil }

// Lower is the downstream interface of a cache: the next cache level or
// the DRAM adaptor.
type Lower interface {
	// AcceptRead attempts to enqueue a read/prefetch; false means the
	// target queue is full and the caller must retry. The request is
	// copied; the pointer is not retained.
	AcceptRead(r *Req, cycle uint64) bool
	// AcceptWrite attempts to enqueue a writeback.
	AcceptWrite(r *Req, cycle uint64) bool
	// Promote upgrades any in-flight prefetch for the line to demand
	// priority (a demand merged into the prefetch upstream).
	Promote(lineAddr uint64)
}

// ReplPolicy selects a replacement policy.
type ReplPolicy int

// Replacement policies used by Table II (LRU at L1D, SRRIP at L2, DRRIP at
// the LLC) plus FIFO for completeness.
const (
	LRU ReplPolicy = iota
	FIFO
	SRRIP
	DRRIP
)

// String implements fmt.Stringer.
func (p ReplPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case SRRIP:
		return "SRRIP"
	case DRRIP:
		return "DRRIP"
	default:
		return fmt.Sprintf("ReplPolicy(%d)", int(p))
	}
}

// Config describes one cache level.
type Config struct {
	Name       string
	Level      Level
	SizeBytes  int
	Ways       int
	LatencyCyc uint64
	MSHRs      int
	RQSize     int
	WQSize     int
	PQSize     int
	ReadPorts  int // demand reads processed per cycle
	WritePorts int // writes processed per cycle
	Repl       ReplPolicy
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.Ways <= 0 {
		return 0
	}
	return c.SizeBytes / LineSize / c.Ways
}

// ConfigError reports an invalid cache configuration.
type ConfigError struct {
	// Name is the cache level's configured name ("L1D", "L2.0", ...).
	Name string
	// Field names the offending parameter.
	Field string
	// Reason describes the constraint that failed.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("cache %s: invalid %s: %s", e.Name, e.Field, e.Reason)
}

// Validate checks the configuration's internal consistency. It returns a
// *ConfigError describing the first violated constraint, or nil.
func (c Config) Validate() error {
	bad := func(field, format string, args ...interface{}) error {
		return &ConfigError{Name: c.Name, Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if c.Ways <= 0 {
		return bad("Ways", "must be >= 1, got %d", c.Ways)
	}
	if c.SizeBytes <= 0 {
		return bad("SizeBytes", "must be >= 1, got %d", c.SizeBytes)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*LineSize != c.SizeBytes {
		return bad("SizeBytes", "geometry size=%d ways=%d does not divide into whole sets of %d-byte lines",
			c.SizeBytes, c.Ways, LineSize)
	}
	if c.MSHRs <= 0 {
		return bad("MSHRs", "must be >= 1, got %d", c.MSHRs)
	}
	if c.RQSize <= 0 {
		return bad("RQSize", "must be >= 1, got %d", c.RQSize)
	}
	if c.WQSize <= 0 {
		return bad("WQSize", "must be >= 1, got %d", c.WQSize)
	}
	if c.PQSize < 0 {
		return bad("PQSize", "must be >= 0, got %d", c.PQSize)
	}
	if c.ReadPorts <= 0 {
		return bad("ReadPorts", "must be >= 1, got %d", c.ReadPorts)
	}
	if c.WritePorts <= 0 {
		return bad("WritePorts", "must be >= 1, got %d", c.WritePorts)
	}
	return nil
}

// line is one cache line's metadata. Its address and valid bit live apart,
// in Cache.tags, so a set lookup scans 8 bytes per way.
type line struct {
	vaddr uint64 // virtual line address (maintained at L1D)
	dirty bool
	// prefetched is the prefetch bit: set when the line was brought by a
	// prefetch and not yet demanded.
	prefetched bool
	// pfLatency is the stored 12-bit fetch latency of the prefetch that
	// brought this line (Berti's L1D shadow metadata); 0 = invalid.
	pfLatency uint16
	// pfIP is the IP that triggered the prefetch (for training on hit).
	pfIP uint64
	lru  uint64
	rrpv uint8
	// provID names the provenance record of the prefetch that brought this
	// line while its prefetch bit is set (0 = untracked).
	provID uint32
}

// mshr is one miss-status holding register entry. valid and dataReady are
// mirrored by the file's bitsets (Cache.mshrValid, Cache.mshrReady), which
// the hot path consults instead of the entries.
type mshr struct {
	valid    bool
	lineAddr uint64
	vline    uint64
	ip       uint64
	// isPrefetch: no demand has merged yet.
	isPrefetch bool
	fillLevel  Level
	isStore    bool
	// issueCycle is the Berti timestamp: MSHR allocation for demands,
	// PQ insertion for prefetches (transferred on PQ->MSHR move).
	issueCycle uint64
	// demandMerged records that a demand arrived while a prefetch was in
	// flight (a "late" prefetch).
	demandMerged bool
	sentDown     bool
	dataReady    bool
	readyCycle   uint64
	// whead/wtail root the pooled waiter chain (index+1; 0 = none) of
	// requests waiting on this fill, replacing a []func slice per entry.
	whead, wtail int32
	// provID names the in-flight prefetch's provenance record (0 when the
	// entry is a demand miss, tracking is off, or the record resolved).
	provID uint32
}

// AccessEvent is passed to the prefetcher for every demand access.
type AccessEvent struct {
	Cycle     uint64
	IP        uint64
	LineAddr  uint64 // virtual at L1D, physical at L2/LLC
	PLineAddr uint64 // physical line address
	IsStore   bool
	Hit       bool
	// PrefetchHit: the access hit a line whose prefetch bit was set
	// (i.e. a miss in the no-prefetcher baseline).
	PrefetchHit bool
	// PfLatency is the stored prefetch fetch latency when PrefetchHit.
	PfLatency uint16
	// MSHROccupancy / MSHRCap let the prefetcher apply occupancy
	// watermarks.
	MSHROccupancy int
	MSHRCap       int
}

// FillEvent is passed to the prefetcher when a line fills this level.
type FillEvent struct {
	Cycle     uint64
	IP        uint64
	LineAddr  uint64 // virtual at L1D (when known), physical otherwise
	PLineAddr uint64
	// Latency is the measured fetch latency (fill cycle - issue cycle).
	Latency uint64
	// ByPrefetch: the fill was triggered by a prefetch with no demand
	// merged (its demand time is unknown).
	ByPrefetch bool
	// EvictedAddr is the line that was evicted to make room (0 if none);
	// EvictedPrefetched tells whether it was an unused prefetch.
	EvictedAddr       uint64
	EvictedPrefetched bool
}

// PrefetchReq is a prefetch the prefetcher wants issued. LineAddr is in the
// same address space the prefetcher trains on (virtual at L1D).
type PrefetchReq struct {
	LineAddr  uint64
	FillLevel Level
	// Confidence is the prefetcher's own estimate (percent, 0-100) that
	// this prefetch will be used, at issue time. Berti reports its measured
	// per-delta coverage; prefetchers without an internal estimate leave 0.
	// Observability only — the cache never acts on it.
	Confidence uint8
}

// Prefetcher is the hook interface implemented by Berti and the baselines.
type Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// OnAccess observes one demand access and returns prefetches to
	// enqueue. The returned slice is only valid until the next OnAccess
	// call (implementations reuse a scratch buffer); the cache consumes
	// it immediately.
	OnAccess(ev AccessEvent) []PrefetchReq
	// OnFill observes a fill into this cache level.
	OnFill(ev FillEvent)
	// StorageBits returns the hardware budget in bits for Fig. 7.
	StorageBits() int
}

// Translator converts the prefetcher's (virtual) line address into a
// physical line address. L1D uses the STLB path; lower levels are identity.
// ok=false drops the prefetch (STLB miss).
type Translator interface {
	TranslatePrefetchLine(vline uint64) (pline uint64, extraLat uint64, ok bool)
}

// identityXlat passes physical addresses through (L2/LLC prefetchers).
type identityXlat struct{}

func (identityXlat) TranslatePrefetchLine(v uint64) (uint64, uint64, bool) { return v, 0, true }

// pqEntry is one prefetch-queue entry.
type pqEntry struct {
	vline     uint64
	pline     uint64
	fillLevel Level
	issue     uint64 // timestamp at PQ insertion (Berti latency origin)
	notBefore uint64
	provID    uint32
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg  Config
	sets int
	// tags holds each way's physical line address + 1 (0 = invalid): the
	// single source of truth for residency, scanned by every lookup.
	tags  []uint64 // sets*ways
	lines []line   // sets*ways, same indexing as tags
	lru   uint64
	lower Lower
	// lowerC is lower when it is another *Cache: the common case, kept as
	// a concrete pointer so the per-cycle send path skips interface
	// dispatch (the DRAM adaptor below the LLC stays on the interface).
	lowerC *Cache
	pf     Prefetcher
	xlat   Translator
	mshrs  []mshr
	// mshrValid and mshrReady are bitsets over mshrs (bit i = entry i valid;
	// valid with dataReady set), mshrUsed counts valid entries, and mshrIdx
	// maps an in-flight line address to its slot+1. Together they make
	// every MSHR lookup, allocation and fill sweep O(1) or O(ready entries).
	mshrValid []uint64
	mshrReady []uint64
	mshrUsed  int
	mshrIdx   lineTable
	rq        ringbuf.Ring[Req]
	wq        ringbuf.Ring[Req]
	pq        ringbuf.Ring[pqEntry]
	// sendQ holds requests that must be pushed downstream (retried when
	// the lower level's queues are full).
	sendQ ringbuf.Ring[Req]
	// pqIdx indexes the plines currently in pq so the EnqueuePrefetches
	// duplicate check is a probe, not a queue walk.
	pqIdx lineSet
	// wpool holds the waiter nodes chained off RQ entries and MSHRs;
	// wfree heads its free list (index+1; 0 = empty).
	wpool []waiterNode
	wfree int32
	// trafficDown counts line requests sent to the lower level; wbDown
	// counts writebacks sent to the lower level.
	TrafficDown uint64
	WBDown      uint64
	// PrefForwarded counts prefetches handed straight to the lower level
	// because they fill below this one (a diagnostic outside Stats).
	PrefForwarded uint64
	// fwd is the request processPrefetches hands to the lower level. It
	// lives in the cache rather than on the stack because the DRAM adaptor
	// below the LLC is reached through the Lower interface, which would
	// make a local escape to the heap on every forwarded prefetch.
	fwd   Req
	Stats stats.CacheStats
	// drripPSEL and leader sets for DRRIP set dueling.
	drripPSEL int
	// tr is the structured event tracer (nil = tracing disabled; every
	// emission is guarded by a nil check so the disabled path is free).
	tr *obs.Tracer
	// fh is the fault-injection hook (nil = disabled; consulted once per
	// arriving fill response).
	fh FaultHook
	// trigIP is the IP of the access currently driving the prefetcher
	// (event attribution for prefetch issues; 0 outside firePrefetcher).
	trigIP uint64
	// trigLine is the line address of that access in the prefetcher's
	// training space (delta attribution; 0 outside firePrefetcher).
	trigLine uint64
	// prov is the per-prefetch lifecycle tracker (nil = disabled; every
	// emission is guarded by a nil check so the disabled path is free).
	prov *provenance.Tracker
}

// New builds a cache level, validating cfg first. lower may be nil only in
// unit tests.
func New(cfg Config, lower Lower) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	words := (cfg.MSHRs + 63) / 64
	c := &Cache{
		cfg:       cfg,
		sets:      cfg.Sets(),
		tags:      make([]uint64, cfg.Sets()*cfg.Ways),
		lines:     make([]line, cfg.Sets()*cfg.Ways),
		lower:     lower,
		xlat:      identityXlat{},
		mshrs:     make([]mshr, cfg.MSHRs),
		mshrValid: make([]uint64, words),
		mshrReady: make([]uint64, words),
	}
	if lc, ok := lower.(*Cache); ok {
		c.lowerC = lc
	}
	c.rq.Init(cfg.RQSize)
	c.wq.Init(cfg.WQSize)
	c.pq.Init(cfg.PQSize)
	c.sendQ.Init(cfg.MSHRs + cfg.WQSize)
	c.pqIdx.init(cfg.PQSize)
	c.mshrIdx.init(cfg.MSHRs)
	// Size the waiter pool for the worst steady-state chain population:
	// every MSHR and RQ entry can hold combined requests. Growth past
	// this is an append, not an error.
	c.wpool = make([]waiterNode, 0, 4*cfg.MSHRs+2*cfg.RQSize+16)
	c.Stats.Name = cfg.Name
	return c, nil
}

// MustNew builds a cache level from a configuration known to be valid
// (tests, compiled-in defaults). It panics on an invalid cfg; user-supplied
// configurations must go through New.
func MustNew(cfg Config, lower Lower) *Cache {
	c, err := New(cfg, lower)
	if err != nil {
		panic(err)
	}
	return c
}

// SetPrefetcher attaches a prefetcher to this level.
func (c *Cache) SetPrefetcher(p Prefetcher) { c.pf = p }

// Prefetcher returns the attached prefetcher (nil if none).
func (c *Cache) Prefetcher() Prefetcher { return c.pf }

// SetTranslator attaches the STLB translation path (L1D only).
func (c *Cache) SetTranslator(t Translator) { c.xlat = t }

// SetTracer attaches a structured event tracer (nil disables tracing).
func (c *Cache) SetTracer(t *obs.Tracer) { c.tr = t }

// SetProvenance attaches a per-prefetch lifecycle tracker (nil disables
// tracking). Every hierarchy level of a machine shares one tracker so
// provenance IDs remain meaningful as prefetches cross levels.
func (c *Cache) SetProvenance(t *provenance.Tracker) { c.prov = t }

// Provenance returns the attached tracker (nil if none).
func (c *Cache) Provenance() *provenance.Tracker { return c.prov }

// FaultHook is the fault-injection interface (implemented by
// fault.FillInjector). It is consulted once per fill response arriving
// from the lower level: drop swallows the completion (the MSHR entry
// leaks), delay postpones data-ready by the returned cycles.
type FaultHook interface {
	FillFault(lineAddr uint64, isPrefetch bool, cycle uint64) (drop bool, delay uint64)
}

// SetFaultHook attaches a fault injector (nil disables injection).
func (c *Cache) SetFaultHook(h FaultHook) { c.fh = h }

// emit records one trace event; lvl is derived from the cache's level.
func (c *Cache) emit(cycle uint64, kind obs.EventKind, addr, ip uint64) {
	c.tr.Emit(obs.Event{
		Cycle:  cycle,
		Kind:   kind,
		Source: obs.Source(c.cfg.Level),
		Addr:   addr,
		IP:     ip,
	})
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// setBase returns the index of way 0 of lineAddr's set in tags and lines.
func (c *Cache) setBase(lineAddr uint64) int {
	return int(lineAddr%uint64(c.sets)) * c.cfg.Ways
}

// probe returns the tags/lines index of the way holding lineAddr, or -1.
func (c *Cache) probe(lineAddr uint64) int {
	base := c.setBase(lineAddr)
	tag := lineAddr + 1
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// Contains reports whether the physical line is present (tests/harness).
func (c *Cache) Contains(lineAddr uint64) bool { return c.probe(lineAddr) >= 0 }

// touch updates replacement state on a hit.
func (c *Cache) touch(l *line) {
	c.lru++
	l.lru = c.lru
	l.rrpv = 0
}

// isDRRIPLeaderSRRIP / isDRRIPLeaderBRRIP choose leader sets for set
// dueling (every 32nd set, offset 0 vs 16).
func (c *Cache) duelKind(setIdx int) int {
	if setIdx%32 == 0 {
		return 1 // SRRIP leader
	}
	if setIdx%32 == 16 {
		return 2 // BRRIP leader
	}
	return 0
}

// victim selects the victim way in the set of lineAddr and returns its
// tags/lines index.
func (c *Cache) victim(lineAddr uint64) int {
	base := c.setBase(lineAddr)
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == 0 {
			return base + i
		}
	}
	set := c.lines[base : base+c.cfg.Ways]
	switch c.cfg.Repl {
	case LRU, FIFO:
		v := 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[v].lru {
				v = i
			}
		}
		return base + v
	case SRRIP, DRRIP:
		for {
			for i := range set {
				if set[i].rrpv >= 3 {
					return base + i
				}
			}
			for i := range set {
				if set[i].rrpv < 3 {
					set[i].rrpv++
				}
			}
		}
	default:
		return base
	}
}

// evict retires the line in way v before it is overwritten: an unused
// prefetch counts as useless and a dirty line is written back. v must be
// valid.
func (c *Cache) evict(v int, cycle uint64) {
	l := &c.lines[v]
	addr := c.tags[v] - 1
	if l.prefetched {
		c.Stats.PrefUseless++
		if c.tr != nil {
			c.emit(cycle, obs.EvPrefetchEvict, addr, l.pfIP)
		}
		if c.prov != nil {
			c.prov.Resolve(l.provID, int(c.cfg.Level), provenance.OutUseless, cycle)
		}
	}
	if l.dirty {
		c.writebackVictim(addr, l.vaddr, cycle)
	}
}

// insertRepl initializes replacement state for a newly installed line.
func (c *Cache) insertRepl(l *line, lineAddr uint64) {
	c.lru++
	l.lru = c.lru // LRU and FIFO both stamp at insert; LRU also on hit
	switch c.cfg.Repl {
	case SRRIP:
		l.rrpv = 2
	case DRRIP:
		setIdx := int(lineAddr % uint64(c.sets))
		brrip := false
		switch c.duelKind(setIdx) {
		case 1:
			brrip = false
		case 2:
			brrip = true
		default:
			brrip = c.drripPSEL < 0
		}
		if brrip {
			// Bimodal: distant re-reference mostly.
			if c.lru%32 == 0 {
				l.rrpv = 2
			} else {
				l.rrpv = 3
			}
		} else {
			l.rrpv = 2
		}
	}
}

// drripMissUpdate updates PSEL on misses in leader sets.
func (c *Cache) drripMissUpdate(lineAddr uint64) {
	if c.cfg.Repl != DRRIP {
		return
	}
	setIdx := int(lineAddr % uint64(c.sets))
	switch c.duelKind(setIdx) {
	case 1: // SRRIP leader missed -> favor BRRIP
		if c.drripPSEL > -512 {
			c.drripPSEL--
		}
	case 2: // BRRIP leader missed -> favor SRRIP
		if c.drripPSEL < 511 {
			c.drripPSEL++
		}
	}
}

// findMSHR returns the MSHR entry tracking lineAddr, or nil.
func (c *Cache) findMSHR(lineAddr uint64) *mshr {
	if v := c.mshrIdx.get(lineAddr); v != 0 {
		return &c.mshrs[v-1]
	}
	return nil
}

// allocMSHR installs e (valid, with its lineAddr set) in the lowest free
// slot — the slot order fixes the order fills complete in — indexes it, and
// returns it. The file must not be full.
func (c *Cache) allocMSHR(e mshr) *mshr {
	w := 0
	for c.mshrValid[w] == ^uint64(0) {
		w++
	}
	b := bits.TrailingZeros64(^c.mshrValid[w])
	slot := w*64 + b
	c.mshrs[slot] = e
	c.mshrValid[w] |= 1 << b
	c.mshrUsed++
	c.mshrIdx.put(e.lineAddr, uint32(slot+1))
	return &c.mshrs[slot]
}

// freeMSHR releases the entry in slot.
func (c *Cache) freeMSHR(slot int) {
	c.mshrIdx.del(c.mshrs[slot].lineAddr)
	c.mshrs[slot] = mshr{}
	w, b := slot/64, uint(slot%64)
	c.mshrValid[w] &^= 1 << b
	c.mshrReady[w] &^= 1 << b
	c.mshrUsed--
}

// MSHROccupancy returns the number of valid MSHR entries.
func (c *Cache) MSHROccupancy() int { return c.mshrUsed }

// lowerAcceptRead forwards a read to the lower level through the concrete
// pointer when it is another cache, avoiding interface dispatch on the
// per-cycle drain path.
func (c *Cache) lowerAcceptRead(r *Req, cycle uint64) bool {
	if c.lowerC != nil {
		return c.lowerC.AcceptRead(r, cycle)
	}
	return c.lower.AcceptRead(r, cycle)
}

func (c *Cache) lowerAcceptWrite(r *Req, cycle uint64) bool {
	if c.lowerC != nil {
		return c.lowerC.AcceptWrite(r, cycle)
	}
	return c.lower.AcceptWrite(r, cycle)
}

// AcceptRead implements Lower for the level above. The request is copied
// into this level's queues; r is not retained.
func (c *Cache) AcceptRead(r *Req, cycle uint64) bool {
	if r.IsPrefetch && !r.hasDone() {
		// Fire-and-forget prefetch that fills at or below this level:
		// it enters this level's prefetch path (already physical).
		if c.pq.Len() >= c.cfg.PQSize {
			return false
		}
		if c.prov != nil && r.provID != 0 {
			// The issuing level handed the prefetch straight down without
			// installing: the record follows it to this level.
			c.prov.Relevel(r.provID, int(c.cfg.Level))
		}
		c.pq.Push(pqEntry{
			vline: r.VLineAddr, pline: r.LineAddr,
			fillLevel: r.FillLevel, issue: cycle, notBefore: cycle,
			provID: r.provID,
		})
		c.pqIdx.add(r.LineAddr)
		return true
	}
	// Demand reads and prefetches whose data must propagate upward use
	// the read queue so the response path is exercised.
	if c.rq.Len() >= c.cfg.RQSize {
		return false
	}
	nr := *r
	nr.enqueued = cycle
	nr.whead, nr.wtail = 0, 0
	c.rq.Push(nr)
	return true
}

// AcceptWrite implements Lower for writebacks from the level above.
func (c *Cache) AcceptWrite(r *Req, cycle uint64) bool {
	if c.wq.Len() >= c.cfg.WQSize {
		return false
	}
	nr := *r
	nr.enqueued = cycle
	nr.whead, nr.wtail = 0, 0
	c.wq.Push(nr)
	c.Stats.WritebacksIn++
	return true
}

// AcceptDemand is the core-facing entry point at L1D. notBefore delays
// processing by the translation latency. Same-line requests already waiting
// in the read queue are combined (load combining), so a burst of accesses
// to one line costs one cache lookup and counts as one demand access.
// Combined completions are chained as pooled waiter nodes on the queue
// entry — no closure wrapping, no allocation.
func (c *Cache) AcceptDemand(r *Req, notBefore uint64) bool {
	for i, n := 0, c.rq.Len(); i < n; i++ {
		q := c.rq.At(i)
		if q.LineAddr == r.LineAddr && !q.IsPrefetch {
			if r.hasDone() {
				if !q.hasDone() && q.whead == 0 {
					q.Sink, q.Token = r.Sink, r.Token
				} else {
					c.chainWaiter(&q.whead, &q.wtail, r.Sink, r.Token)
				}
			}
			q.Store = q.Store || r.Store
			if notBefore < q.notBefore {
				q.notBefore = notBefore
			}
			return true
		}
	}
	if c.rq.Len() >= c.cfg.RQSize {
		return false
	}
	nr := *r
	nr.notBefore = notBefore
	nr.enqueued = notBefore
	nr.whead, nr.wtail = 0, 0
	c.rq.Push(nr)
	return true
}

// RQOccupancy returns the demand read-queue length (core stall decisions).
func (c *Cache) RQOccupancy() int { return c.rq.Len() }

// RQCap returns the read-queue capacity.
func (c *Cache) RQCap() int { return c.cfg.RQSize }

// completeReq fires the request's own callback and every waiter combined
// onto it, in arrival order, then releases the chain.
func (c *Cache) completeReq(r *Req, cycle uint64) {
	if r.Sink != nil {
		r.Sink.ReqDone(r.Token, cycle)
	}
	c.fireChain(r.whead, cycle)
	r.whead, r.wtail = 0, 0
}

// adoptWaiters moves the request's own callback plus its combined chain
// onto the MSHR's waiter chain (arrival order preserved).
func (c *Cache) adoptWaiters(m *mshr, r *Req) {
	if r.hasDone() {
		c.chainWaiter(&m.whead, &m.wtail, r.Sink, r.Token)
	}
	c.spliceChain(&m.whead, &m.wtail, r.whead, r.wtail)
	r.whead, r.wtail = 0, 0
}

// EnqueuePrefetches inserts prefetcher-generated requests into the PQ,
// translating them and deduplicating against the cache, MSHRs, and PQ.
// The PQ duplicate check probes the presence index instead of walking the
// queue.
func (c *Cache) EnqueuePrefetches(reqs []PrefetchReq, cycle uint64, triggerVPage uint64) {
	for _, pr := range reqs {
		if c.pq.Len() >= c.cfg.PQSize {
			c.Stats.PrefDropped++
			continue
		}
		pline, extraLat, ok := c.xlat.TranslatePrefetchLine(pr.LineAddr)
		if !ok {
			c.Stats.PrefDropped++
			continue
		}
		if triggerVPage != 0 {
			prPage := pr.LineAddr >> (12 - LineShift)
			if prPage != triggerVPage {
				c.Stats.PrefCrossPg++
			}
		}
		c.Stats.PrefTagProbe++
		if c.probe(pline) >= 0 {
			c.Stats.PrefDropped++
			continue
		}
		if c.findMSHR(pline) != nil {
			c.Stats.PrefDropped++
			continue
		}
		if c.pqIdx.contains(pline) {
			c.Stats.PrefDropped++
			continue
		}
		var provID uint32
		if c.prov != nil {
			var delta int64
			if c.trigLine != 0 {
				delta = int64(pr.LineAddr) - int64(c.trigLine)
			}
			provID = c.prov.Issue(int(c.cfg.Level), c.trigIP, delta, pr.Confidence, cycle)
		}
		c.pq.Push(pqEntry{
			vline:     pr.LineAddr,
			pline:     pline,
			fillLevel: pr.FillLevel,
			issue:     cycle,
			notBefore: cycle + extraLat,
			provID:    provID,
		})
		c.pqIdx.add(pline)
		c.Stats.PrefIssued++
		if c.tr != nil {
			c.emit(cycle, obs.EvPrefetchIssue, pline, c.trigIP)
		}
	}
}

// Tick advances the cache one cycle: fills, writebacks, demand reads,
// prefetches, and downstream sends.
func (c *Cache) Tick(cycle uint64) {
	c.processFills(cycle)
	c.processWrites(cycle)
	c.processReads(cycle)
	c.processPrefetches(cycle)
	c.drainSendQ(cycle)
}

// processFills completes MSHR entries whose data has arrived, in ascending
// slot order. Only entries with a ready bit are visited; the bitset word is
// re-read after every fill, so an entry that turns ready during a fill is
// visited this cycle exactly when a full in-order sweep would reach it.
func (c *Cache) processFills(cycle uint64) {
	for w := range c.mshrReady {
		ahead := ^uint64(0) // bits not yet passed in this word
		for {
			r := c.mshrReady[w] & ahead
			if r == 0 {
				break
			}
			b := bits.TrailingZeros64(r)
			ahead = ^uint64(0) << (b + 1)
			slot := w*64 + b
			m := &c.mshrs[slot]
			if m.readyCycle > cycle {
				continue
			}
			c.fill(m, cycle)
			c.freeMSHR(slot)
		}
	}
}

// ReqDone implements DoneSink: completions for this level's own forwarded
// misses arrive here with the missing line address as the token. This
// replaces the per-request closure forwardDown used to allocate; the entry
// is re-located through the line index.
func (c *Cache) ReqDone(lineAddr, done uint64) {
	v := c.mshrIdx.get(lineAddr)
	if v == 0 {
		return
	}
	slot := int(v - 1)
	m := &c.mshrs[slot]
	if c.fh != nil {
		drop, delay := c.fh.FillFault(lineAddr, m.isPrefetch, done)
		if drop {
			return // swallowed: the MSHR entry leaks
		}
		done += delay
	}
	m.dataReady = true
	m.readyCycle = done
	c.mshrReady[slot/64] |= 1 << uint(slot%64)
}

// fill installs the line (respecting fill level) and wakes waiters.
func (c *Cache) fill(m *mshr, cycle uint64) {
	install := c.cfg.Level >= m.fillLevel || !m.isPrefetch || m.demandMerged
	if install {
		latency := cycle - m.issueCycle
		byPrefetch := m.isPrefetch && !m.demandMerged
		var evAddr uint64
		var evPf bool
		// A writeback from above may have installed the line while this
		// miss was in flight (processWrites probes, but fills used not
		// to); installing again would leave the same tag valid in two
		// ways. Update the resident copy in place instead.
		w := c.probe(m.lineAddr)
		resident := w >= 0
		if resident {
			c.touch(&c.lines[w])
		} else {
			w = c.victim(m.lineAddr)
			if c.tags[w] != 0 {
				evAddr = c.tags[w] - 1
				evPf = c.lines[w].prefetched
				c.evict(w, cycle)
			}
			c.tags[w] = m.lineAddr + 1
			c.lines[w] = line{vaddr: m.vline}
			c.insertRepl(&c.lines[w], m.lineAddr)
		}
		l := &c.lines[w]
		c.Stats.TotalFills++
		if m.isPrefetch {
			// Every prefetch-initiated fill counts toward the artifact
			// accuracy denominator, including late (demand-merged) ones.
			c.Stats.PrefFills++
			if c.tr != nil {
				c.emit(cycle, obs.EvPrefetchFill, m.lineAddr, m.ip)
			}
		}
		switch {
		case byPrefetch && resident:
			// The line was installed by a writeback while this prefetch
			// was in flight: no prefetch bit is set, so the prefetch
			// terminates without a trackable install.
			if c.prov != nil {
				c.prov.Resolve(m.provID, int(c.cfg.Level), provenance.OutDropped, cycle)
			}
		case byPrefetch:
			l.prefetched = true
			l.pfIP = m.ip
			l.provID = m.provID
			if c.prov != nil {
				c.prov.Fill(m.provID, cycle)
			}
			// Store the 12-bit latency; overflow -> 0 (not learned).
			if latency >= 1<<12 {
				l.pfLatency = 0
			} else {
				l.pfLatency = uint16(latency)
			}
		}
		if m.isStore && !byPrefetch {
			l.dirty = true
		}
		if c.pf != nil {
			c.pf.OnFill(FillEvent{
				Cycle:             cycle,
				IP:                m.ip,
				LineAddr:          c.trainAddr(m.vline, m.lineAddr),
				PLineAddr:         m.lineAddr,
				Latency:           latency,
				ByPrefetch:        byPrefetch,
				EvictedAddr:       evAddr,
				EvictedPrefetched: evPf,
			})
		}
		if !byPrefetch {
			c.Stats.RecordFillLatency(latency)
		}
	}
	c.fireChain(m.whead, cycle)
	m.whead, m.wtail = 0, 0
}

// trainAddr picks the training address space: virtual when available (L1D),
// physical otherwise.
func (c *Cache) trainAddr(vline, pline uint64) uint64 {
	if c.cfg.Level == L1D && vline != 0 {
		return vline
	}
	return pline
}

// writebackVictim queues a dirty victim for the lower level. A writeback is
// a Store request with no completion callback (see drainSendQ).
func (c *Cache) writebackVictim(addr, vaddr, cycle uint64) {
	c.Stats.WritebacksOut++
	c.sendQ.Push(Req{
		LineAddr:  addr,
		VLineAddr: vaddr,
		Store:     true,
		notBefore: cycle,
		FillLevel: c.cfg.Level + 1,
	})
}

// processWrites handles writebacks arriving from above (and demand stores
// at L1D, which the core sends through AcceptDemand as stores).
func (c *Cache) processWrites(cycle uint64) {
	ports := c.cfg.WritePorts
	for ports > 0 && c.wq.Len() > 0 {
		r := c.wq.Front()
		if r.notBefore > cycle {
			break
		}
		// Writeback data: install (non-inclusive back-fill) or update.
		if w := c.probe(r.LineAddr); w >= 0 {
			l := &c.lines[w]
			l.dirty = true
			c.touch(l)
		} else {
			w := c.victim(r.LineAddr)
			if c.tags[w] != 0 {
				c.evict(w, cycle)
			}
			c.tags[w] = r.LineAddr + 1
			v := &c.lines[w]
			*v = line{vaddr: r.VLineAddr, dirty: true}
			c.insertRepl(v, r.LineAddr)
		}
		c.wq.PopFront()
		ports--
	}
}

// processReads services read-queue entries, demands strictly before
// prefetch-originated reads so prefetch bursts from the level above never
// delay demand misses.
func (c *Cache) processReads(cycle uint64) {
	ports := c.cfg.ReadPorts
	for _, wantPrefetch := range [2]bool{false, true} {
		idx := 0
		for ports > 0 && idx < c.rq.Len() {
			r := c.rq.At(idx)
			if r.notBefore > cycle || r.IsPrefetch != wantPrefetch {
				idx++
				continue
			}
			done, consumed := c.serviceRead(r, cycle)
			if !done {
				// MSHR full: stall this and subsequent requests.
				c.Stats.MSHRFullStalls++
				if c.tr != nil {
					c.emit(cycle, obs.EvMSHRStall, r.LineAddr, r.IP)
				}
				return
			}
			if consumed {
				c.rq.RemoveAt(idx)
			} else {
				idx++
			}
			ports--
		}
	}
}

// serviceRead handles one demand read. Returns done=false when the request
// must be retried (MSHR full). r points into the read-queue ring; it is
// only valid until the caller removes it.
func (c *Cache) serviceRead(r *Req, cycle uint64) (done, consumed bool) {
	if !r.IsPrefetch {
		c.Stats.DemandAccesses++
	}
	if w := c.probe(r.LineAddr); w >= 0 {
		// Hit.
		l := &c.lines[w]
		if !r.IsPrefetch {
			c.Stats.DemandHits++
		}
		pfHit := l.prefetched
		pfLat := l.pfLatency
		if pfHit && !r.IsPrefetch {
			c.Stats.PrefUseful++
			l.prefetched = false
			if c.tr != nil {
				c.emit(cycle, obs.EvPrefetchUse, r.LineAddr, r.IP)
			}
			if c.prov != nil {
				// Timely: the line sat ready; slack = cycle - fill cycle.
				c.prov.Resolve(l.provID, int(c.cfg.Level), provenance.OutTimely, cycle)
			}
			l.provID = 0
		}
		c.touch(l)
		if r.Store {
			l.dirty = true
		}
		if c.pf != nil && !r.IsPrefetch {
			c.firePrefetcher(AccessEvent{
				Cycle:       cycle,
				IP:          r.IP,
				LineAddr:    c.trainAddr(r.VLineAddr, r.LineAddr),
				PLineAddr:   r.LineAddr,
				IsStore:     r.Store,
				Hit:         true,
				PrefetchHit: pfHit,
				PfLatency:   pfLat,
			}, cycle)
			if pfHit {
				// Latency consumed by the training search; reset.
				l.pfLatency = 0
			}
		}
		if r.hasDone() || r.whead != 0 {
			c.completeReq(r, cycle+c.cfg.LatencyCyc)
		}
		return true, true
	}

	// Miss. Merge into an existing MSHR if the line is in flight. Only
	// the primary miss of a line counts toward DemandMisses and trains
	// the prefetcher; secondary (merged) misses are bookkeeping.
	if m := c.findMSHR(r.LineAddr); m != nil {
		if !r.IsPrefetch {
			c.Stats.MSHRMerges++
			if m.isPrefetch && !m.demandMerged {
				// Late prefetch: the first demand arrived while the
				// prefetch was in flight. This would have been a miss
				// without the prefetcher, so it counts and trains. The
				// in-flight request is promoted to demand priority all
				// the way down.
				c.Stats.DemandMisses++
				c.Stats.PrefLate++
				if c.tr != nil {
					c.emit(cycle, obs.EvDemandMiss, r.LineAddr, r.IP)
				}
				if c.prov != nil {
					// Late: the demand merged into the in-flight prefetch.
					// The MSHR continues life as a demand miss, so the
					// record resolves here and the ID is dropped.
					c.prov.Resolve(m.provID, int(c.cfg.Level), provenance.OutLate, cycle)
				}
				m.provID = 0
				c.Promote(r.LineAddr)
				m.demandMerged = true
				m.ip = r.IP
				m.vline = r.VLineAddr
				// Latency for training restarts at the demand.
				m.issueCycle = cycle
				c.fireMissEvent(r, cycle)
			}
			if r.Store {
				m.isStore = true
			}
			if m.fillLevel > r.FillLevel {
				m.fillLevel = r.FillLevel
			}
		}
		c.adoptWaiters(m, r)
		return true, true
	}

	if c.mshrUsed == len(c.mshrs) {
		return false, false
	}
	// The new entry is installed only after the prefetcher has seen the
	// miss: the occupancy it observes excludes this miss, and its
	// candidates for this line are not deduplicated against it.
	if !r.IsPrefetch {
		c.Stats.DemandMisses++
		if c.tr != nil {
			c.emit(cycle, obs.EvDemandMiss, r.LineAddr, r.IP)
		}
		c.drripMissUpdate(r.LineAddr)
		c.fireMissEvent(r, cycle)
	}
	var provID uint32
	if c.prov != nil && r.IsPrefetch {
		// A prefetch forwarded from the level above installs its own copy
		// of the line here (non-inclusive fill): spawn a child record so
		// this level's install resolves independently under the same
		// trigger attribution.
		provID = c.prov.Child(r.provID, int(c.cfg.Level), cycle)
	}
	m := c.allocMSHR(mshr{
		valid:      true,
		lineAddr:   r.LineAddr,
		vline:      r.VLineAddr,
		ip:         r.IP,
		isPrefetch: r.IsPrefetch,
		fillLevel:  r.FillLevel,
		isStore:    r.Store,
		issueCycle: cycle,
		provID:     provID,
	})
	c.adoptWaiters(m, r)
	c.forwardDown(m, cycle)
	return true, true
}

// fireMissEvent notifies the prefetcher of a demand miss access.
func (c *Cache) fireMissEvent(r *Req, cycle uint64) {
	if c.pf == nil {
		return
	}
	c.firePrefetcher(AccessEvent{
		Cycle:     cycle,
		IP:        r.IP,
		LineAddr:  c.trainAddr(r.VLineAddr, r.LineAddr),
		PLineAddr: r.LineAddr,
		IsStore:   r.Store,
		Hit:       false,
	}, cycle)
}

// firePrefetcher invokes OnAccess and enqueues returned prefetches.
func (c *Cache) firePrefetcher(ev AccessEvent, cycle uint64) {
	ev.MSHROccupancy = c.MSHROccupancy()
	ev.MSHRCap = c.cfg.MSHRs
	reqs := c.pf.OnAccess(ev)
	if len(reqs) > 0 {
		c.trigIP = ev.IP
		c.trigLine = ev.LineAddr
		c.EnqueuePrefetches(reqs, cycle, ev.LineAddr>>(12-LineShift))
		c.trigIP = 0
		c.trigLine = 0
	}
}

// forwardDown queues the miss to the lower level. The completion path is
// this cache's own ReqDone sink keyed by line address — no closure, no
// allocation.
func (c *Cache) forwardDown(m *mshr, cycle uint64) {
	c.sendQ.Push(Req{
		LineAddr:   m.lineAddr,
		VLineAddr:  m.vline,
		IP:         m.ip,
		IsPrefetch: m.isPrefetch,
		FillLevel:  m.fillLevel,
		notBefore:  cycle,
		provID:     m.provID,
		Sink:       c,
		Token:      m.lineAddr,
	})
}

// processPrefetches services the PQ: tag-check and forward misses.
func (c *Cache) processPrefetches(cycle uint64) {
	// One prefetch processed per cycle (PQ is FIFO per the paper).
	for c.pq.Len() > 0 {
		e := *c.pq.Front()
		if e.notBefore > cycle {
			return
		}
		if c.probe(e.pline) >= 0 || c.findMSHR(e.pline) != nil {
			c.Stats.PrefDropped++
			if c.prov != nil {
				// The line became resident (or in flight) since the PQ
				// accepted this prefetch: it terminates without a line.
				c.prov.Resolve(e.provID, int(c.cfg.Level), provenance.OutDropped, cycle)
			}
			c.pq.PopFront()
			c.pqIdx.remove(e.pline)
			continue
		}
		if c.cfg.Level >= e.fillLevel {
			// This level will install the line: needs an MSHR.
			// Prefetches may not take the last quarter of the MSHRs —
			// that headroom is reserved for demand misses so a
			// prefetch burst can never starve the demand path.
			if c.mshrUsed >= c.cfg.MSHRs-c.cfg.MSHRs/4 {
				return // retry next cycle
			}
			m := c.allocMSHR(mshr{
				valid:      true,
				lineAddr:   e.pline,
				vline:      e.vline,
				isPrefetch: true,
				fillLevel:  e.fillLevel,
				issueCycle: e.issue, // PQ timestamp transfers to the MSHR
				provID:     e.provID,
			})
			c.forwardDown(m, cycle)
		} else {
			// Fill is below this level: hand the request straight to
			// the lower level so it can never block demand misses
			// queued in sendQ. If the lower level is full, retry next
			// cycle (the PQ itself is the bounded buffer).
			c.fwd = Req{
				LineAddr:   e.pline,
				VLineAddr:  e.vline,
				IsPrefetch: true,
				FillLevel:  e.fillLevel,
				notBefore:  cycle,
				provID:     e.provID,
			}
			if !c.lowerAcceptRead(&c.fwd, cycle) {
				return
			}
			c.TrafficDown++
			c.PrefForwarded++
		}
		c.pq.PopFront()
		c.pqIdx.remove(e.pline)
		return // one per cycle
	}
}

// drainSendQ pushes queued downstream requests into the lower level.
// Prefetch requests that the lower level cannot accept are skipped rather
// than blocking the demand misses and writebacks queued behind them. The
// queue is compacted in a single pass (kept entries slide forward), so a
// drain is O(queue length) instead of O(n) per removal.
func (c *Cache) drainSendQ(cycle uint64) {
	n := c.sendQ.Len()
	if n == 0 {
		return
	}
	w := 0 // write cursor for kept entries
	i := 0
	for ; i < n; i++ {
		r := c.sendQ.At(i)
		if r.notBefore > cycle {
			break // entries are in notBefore order; keep the rest
		}
		var ok bool
		if r.Store && !r.hasDone() {
			ok = c.lowerAcceptWrite(r, cycle)
			if ok {
				c.WBDown++
			}
		} else {
			ok = c.lowerAcceptRead(r, cycle)
			if ok {
				c.TrafficDown++
			}
		}
		if ok {
			continue // sent: not kept
		}
		if r.IsPrefetch {
			// Skip: retry next cycle without blocking demands.
			if w != i {
				*c.sendQ.At(w) = *r
			}
			w++
			continue
		}
		break // blocked demand/writeback: keep it and everything behind
	}
	// Keep the unprocessed tail.
	for ; i < n; i++ {
		if w != i {
			*c.sendQ.At(w) = *c.sendQ.At(i)
		}
		w++
	}
	c.sendQ.Truncate(w)
}

// Promote implements Lower: upgrade in-flight prefetches for the line to
// demand priority here and below.
func (c *Cache) Promote(lineAddr uint64) {
	for i, n := 0, c.sendQ.Len(); i < n; i++ {
		if r := c.sendQ.At(i); r.LineAddr == lineAddr {
			r.IsPrefetch = false
		}
	}
	for i, n := 0, c.rq.Len(); i < n; i++ {
		if r := c.rq.At(i); r.LineAddr == lineAddr {
			r.IsPrefetch = false
		}
	}
	if c.lowerC != nil {
		c.lowerC.Promote(lineAddr)
	} else if c.lower != nil {
		c.lower.Promote(lineAddr)
	}
}

// never is the quiescent horizon (sim.Never).
const never = ^uint64(0)

// NextEventCycle reports the earliest future cycle at which this level can
// change state on its own: a fill whose data has a known arrival cycle, or a
// queued request coming out of its notBefore delay. Queue entries that are
// already past due force an immediate horizon (processing may be blocked by
// ports, MSHR pressure, or a full lower level — conditions the per-cycle
// retry loop owns, so no cycle may be skipped while they hold). Only MSHR
// entries with a ready bit are visited; entries still waiting on the lower
// level carry no horizon here: the response is the lower component's event,
// and the engine re-queries after every tick.
func (c *Cache) NextEventCycle(now uint64) uint64 {
	h := never
	for i, n := 0, c.rq.Len(); i < n; i++ {
		r := c.rq.At(i)
		if r.notBefore <= now {
			return now
		}
		if r.notBefore < h {
			h = r.notBefore
		}
	}
	for w, r := range c.mshrReady {
		for ; r != 0; r &= r - 1 {
			rc := c.mshrs[w*64+bits.TrailingZeros64(r)].readyCycle
			if rc <= now {
				return now
			}
			if rc < h {
				h = rc
			}
		}
	}
	// wq, pq, and sendQ are head-gated: entries behind the head cannot be
	// reached before the head itself is processed (an event).
	if c.wq.Len() > 0 {
		if nb := c.wq.Front().notBefore; nb <= now {
			return now
		} else if nb < h {
			h = nb
		}
	}
	if c.pq.Len() > 0 {
		if nb := c.pq.Front().notBefore; nb <= now {
			return now
		} else if nb < h {
			h = nb
		}
	}
	if c.sendQ.Len() > 0 {
		if nb := c.sendQ.Front().notBefore; nb <= now {
			return now
		} else if nb < h {
			h = nb
		}
	}
	return h
}

// Drained reports whether all queues and MSHRs are empty.
func (c *Cache) Drained() bool {
	return c.rq.Len() == 0 && c.wq.Len() == 0 && c.pq.Len() == 0 && c.sendQ.Len() == 0 &&
		c.mshrUsed == 0
}

// ResetStats zeroes the statistics and traffic counters; cache contents,
// prefetch bits and prefetcher state persist (between warmup and
// measurement).
func (c *Cache) ResetStats() {
	name := c.Stats.Name
	c.Stats = stats.CacheStats{Name: name}
	c.TrafficDown = 0
	c.WBDown = 0
	c.PrefForwarded = 0
}

// QueueSnapshot captures one level's queue and MSHR occupancy (engine
// stall reports and invariant checking).
type QueueSnapshot struct {
	Name  string `json:"name"`
	MSHR  int    `json:"mshr"`
	RQ    int    `json:"rq"`
	WQ    int    `json:"wq"`
	PQ    int    `json:"pq"`
	SendQ int    `json:"sendq"`
}

// Queues returns the current occupancy snapshot.
func (c *Cache) Queues() QueueSnapshot {
	return QueueSnapshot{
		Name:  c.cfg.Name,
		MSHR:  c.MSHROccupancy(),
		RQ:    c.rq.Len(),
		WQ:    c.wq.Len(),
		PQ:    c.pq.Len(),
		SendQ: c.sendQ.Len(),
	}
}

// CheckInvariants walks the level's state and reports every breached
// invariant: queue occupancy beyond configured bounds, duplicate tags
// within a set, lines resident in the wrong set, duplicate MSHR entries,
// MSHR index structures out of step with the entries, and MSHR entries in
// flight longer than mshrStuckAfter cycles (a leaked fill — nothing will
// ever complete them). It never mutates state.
func (c *Cache) CheckInvariants(cycle, mshrStuckAfter uint64, report func(check.Violation)) {
	name := c.cfg.Name
	if c.rq.Len() > c.cfg.RQSize {
		report(check.Violation{Rule: check.RuleQueueBound, Component: name, Cycle: cycle,
			Detail: fmt.Sprintf("RQ holds %d entries, capacity %d", c.rq.Len(), c.cfg.RQSize)})
	}
	if c.wq.Len() > c.cfg.WQSize {
		report(check.Violation{Rule: check.RuleQueueBound, Component: name, Cycle: cycle,
			Detail: fmt.Sprintf("WQ holds %d entries, capacity %d", c.wq.Len(), c.cfg.WQSize)})
	}
	if c.pq.Len() > c.cfg.PQSize {
		report(check.Violation{Rule: check.RuleQueueBound, Component: name, Cycle: cycle,
			Detail: fmt.Sprintf("PQ holds %d entries, capacity %d", c.pq.Len(), c.cfg.PQSize)})
	}
	for s := 0; s < c.sets; s++ {
		set := c.tags[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
		for i, t := range set {
			if t == 0 {
				continue
			}
			addr := t - 1
			if home := int(addr % uint64(c.sets)); home != s {
				report(check.Violation{Rule: check.RuleSetMap, Component: name, Cycle: cycle,
					Detail: fmt.Sprintf("line %#x resident in set %d, maps to set %d", addr, s, home)})
			}
			for j := i + 1; j < len(set); j++ {
				if set[j] == t {
					report(check.Violation{Rule: check.RuleDupTag, Component: name, Cycle: cycle,
						Detail: fmt.Sprintf("line %#x present in ways %d and %d of set %d", addr, i, j, s)})
				}
			}
		}
	}
	c.checkMSHRIndex(cycle, report)
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if !m.valid {
			continue
		}
		// Stuck means still incomplete long past issue: either the fill
		// response never arrived (dataReady false — a dropped fill) or it
		// carries an implausibly distant ready cycle (a delayed fill).
		pending := !m.dataReady || m.readyCycle > cycle
		if mshrStuckAfter > 0 && pending && cycle > m.issueCycle && cycle-m.issueCycle > mshrStuckAfter {
			report(check.Violation{Rule: check.RuleMSHRStuck, Component: name, Cycle: cycle,
				Detail: fmt.Sprintf("MSHR %d line %#x in flight for %d cycles (prefetch=%v)",
					i, m.lineAddr, cycle-m.issueCycle, m.isPrefetch)})
		}
		for j := i + 1; j < len(c.mshrs); j++ {
			if c.mshrs[j].valid && c.mshrs[j].lineAddr == m.lineAddr {
				report(check.Violation{Rule: check.RuleMSHRDup, Component: name, Cycle: cycle,
					Detail: fmt.Sprintf("MSHRs %d and %d both track line %#x", i, j, m.lineAddr)})
			}
		}
	}
}

// checkMSHRIndex reports (as mshr-index) every disagreement between the
// MSHR entries and the structures that index them: the valid and ready
// bitsets, the occupancy counter, and the line-address index.
func (c *Cache) checkMSHRIndex(cycle uint64, report func(check.Violation)) {
	bad := func(format string, args ...interface{}) {
		report(check.Violation{Rule: check.RuleMSHRIndex, Component: c.cfg.Name, Cycle: cycle,
			Detail: fmt.Sprintf(format, args...)})
	}
	valid := 0
	for i := range c.mshrs {
		m := &c.mshrs[i]
		w, b := i/64, uint(i%64)
		if vb := c.mshrValid[w]>>b&1 == 1; vb != m.valid {
			bad("MSHR %d valid=%v, valid bit %v", i, m.valid, vb)
		}
		if rb := c.mshrReady[w]>>b&1 == 1; rb != (m.valid && m.dataReady) {
			bad("MSHR %d valid=%v dataReady=%v, ready bit %v", i, m.valid, m.dataReady, rb)
		}
		if !m.valid {
			continue
		}
		valid++
		if v := c.mshrIdx.get(m.lineAddr); int(v) != i+1 {
			bad("MSHR %d tracks line %#x, line index maps it to slot %d", i, m.lineAddr, int(v)-1)
		}
	}
	if c.mshrUsed != valid {
		bad("occupancy counter %d, %d valid entries", c.mshrUsed, valid)
	}
	if c.mshrIdx.used != valid {
		bad("line index holds %d lines, %d valid entries", c.mshrIdx.used, valid)
	}
}

// CorruptDuplicateTag copies a valid line (tag and metadata) into another
// way of its own set, leaving two ways with the same tag — deliberate damage
// used by the dup-line fault plan to prove the checker catches real state
// corruption. Returns false when no set has both a valid line and a second
// way.
func (c *Cache) CorruptDuplicateTag() bool {
	if c.cfg.Ways < 2 {
		return false
	}
	for s := 0; s < c.sets; s++ {
		base := s * c.cfg.Ways
		for i := 0; i < c.cfg.Ways; i++ {
			if c.tags[base+i] != 0 {
				j := base + (i+1)%c.cfg.Ways
				c.tags[j] = c.tags[base+i]
				c.lines[j] = c.lines[base+i]
				return true
			}
		}
	}
	return false
}

// CorruptPQOrphans appends n orphan entries to the prefetch queue beyond
// its configured bound — deliberate damage used by the pq-orphan fault
// plan. The entries target line 0 with notBefore in the far future so they
// are never serviced and the overflow persists for the checker to find.
// The ring and the presence index both tolerate the deliberate overfill.
func (c *Cache) CorruptPQOrphans(n int) {
	for c.pq.Len() < c.cfg.PQSize+n {
		c.pq.Push(pqEntry{notBefore: ^uint64(0)})
		c.pqIdx.add(0)
	}
}
