package sim

import (
	"fmt"
	"io"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/stats"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/vm"
)

// robEntry is one reorder-buffer slot. Non-memory instructions between
// memory operations are aggregated into a single entry with a count, which
// preserves window-occupancy and retire-bandwidth semantics at a fraction
// of the bookkeeping cost.
type robEntry struct {
	nonMem uint32 // >0: aggregated run of non-memory instructions
	isMem  bool
	kind   trace.Kind
	issued bool
	done   bool
	vaddr  uint64
	ip     uint64
	recIdx uint64 // global memory-record index (dependence tracking)

	doneCycle uint64
}

// pendOp is one unissued memory operation on the issue list. It carries
// everything the issue scan needs, so the scan loads the ROB entry only of
// an operation it actually issues.
type pendOp struct {
	recIdx uint64 // program order
	slot   int32  // ROB slot
	dep    int32  // producer's dependence-window slot; -1 = independent
	store  bool
}

// depWindow tracks completion cycles of recent memory records so dependent
// accesses (pointer chases) serialize behind their producers.
const depWindow = 1024

// inFlight marks a dependence-window slot whose record has not completed.
const inFlight = ^uint64(0)

// storeTokenBit distinguishes store completion tokens from load tokens.
// Loads complete before their ROB slot can be reused, so the slot index is
// the token; stores retire immediately and their slot may be recycled
// before the fill lands, so the token carries the record index instead.
const storeTokenBit = uint64(1) << 63

// Core is the trace-driven out-of-order core approximation: a 352-entry
// instruction window filled at issue-width, memory operations issued
// through limited L1D ports, in-order retirement at retire-width.
type Core struct {
	ID     int
	cfg    CoreConfig
	reader trace.Reader
	mmu    *vm.MMU
	l1d    *cache.Cache

	rob       []robEntry
	robHead   int
	robTail   int
	robCount  int // entries
	robInstrs int // instructions occupying the window
	// pend lists unissued memory operations in program order, except
	// those parked on an in-flight producer, so the per-cycle issue scan
	// touches only operations that can issue now or soon. Slots are stable
	// while listed: an unissued memory entry cannot retire, and nothing
	// ahead of it can pop past it.
	pend []pendOp
	// An operation whose producer is in flight at dispatch is parked on
	// the producer's dependence-window slot s instead: parkHead[s] and
	// parkTail[s] root a chain (ROB slot+1; 0 = none) linked through
	// parkNext, which is indexed by ROB slot. The next completion written
	// to s releases the chain into pend. wake is the release scratch.
	parkHead [depWindow]int32
	parkTail [depWindow]int32
	parkNext []int32
	wake     []pendOp

	// pending is the next trace record being dispatched (nonMem first).
	pending       trace.Record
	pendingValid  bool
	pendingNonMem uint32
	traceDone     bool
	// err records a non-EOF trace-reader failure; the core stops
	// dispatching and the engine surfaces it as the run error.
	err error

	memRecords uint64 // global memory-record counter
	// depAt holds, per dependence-window slot (record index mod
	// depWindow), the completion cycle of the slot's latest completion,
	// or inFlight from the dispatch of a record on the slot until then.
	depAt [depWindow]uint64

	Stats stats.CoreStats
	// RetiredTotal counts instructions retired since construction
	// (Stats.Instructions is reset after warmup).
	RetiredTotal uint64
	// FinishedCycle is set when RetiredTotal first reaches its target.
	finishTarget  uint64
	FinishedCycle uint64
	Finished      bool
}

// NewCore builds a core bound to its trace, MMU, and L1D.
func NewCore(id int, cfg CoreConfig, rd trace.Reader, mmu *vm.MMU, l1d *cache.Cache) *Core {
	return &Core{
		ID:     id,
		cfg:    cfg,
		reader: rd,
		mmu:    mmu,
		l1d:    l1d,
		rob:    make([]robEntry, cfg.ROBSize+1),
		// Memory entries occupy one instruction each, so the unissued set
		// can never exceed the window: appends never reallocate.
		pend:     make([]pendOp, 0, cfg.ROBSize+1),
		parkNext: make([]int32, cfg.ROBSize+1),
		wake:     make([]pendOp, 0, cfg.ROBSize+1),
	}
}

// SetFinishTarget arms FinishedCycle at the given total retired count.
func (c *Core) SetFinishTarget(totalInstructions uint64) {
	c.finishTarget = totalInstructions
}

// Tick advances the core one cycle: retire, dispatch, issue.
func (c *Core) Tick(cycle uint64) {
	c.Stats.Cycles++
	c.retire(cycle)
	c.dispatch(cycle)
	c.issue(cycle)
}

// NextEventCycle reports the earliest future cycle at which the core can
// change state on its own: retiring the head entry, dispatching from the
// trace, or issuing a memory operation whose producer's completion cycle is
// already known. A core blocked on an in-flight fill reports no horizon for
// it — the completion is the owning cache's event, and the engine re-queries
// after every executed tick. Parked operations are never issuable, so only
// pend is consulted. The counters in Stats that advance on every cycle are
// reconciled for skipped cycles by creditSkip.
func (c *Core) NextEventCycle(now uint64) uint64 {
	h := Never
	if c.robCount > 0 {
		e := &c.rob[c.robHead]
		if !e.isMem {
			return now // a non-mem run at the head retires next tick
		}
		if e.done {
			if e.doneCycle <= now {
				return now
			}
			if e.doneCycle < h {
				h = e.doneCycle
			}
		}
	}
	// Dispatch: reading the next trace record is itself a state change, so
	// only a full window with a record already pending is dispatch-quiescent.
	if !c.traceDone && !c.pendingValid {
		return now
	}
	if c.pendingValid && c.robInstrs < c.cfg.ROBSize {
		return now
	}
	// Issue: every pend entry is an unissued memory operation. A producer
	// still in flight (a released operation whose slot was re-dispatched)
	// is the cache's event; a completed producer with a future completion
	// cycle schedules the consumer's issue.
	for i := range c.pend {
		op := &c.pend[i]
		if op.dep >= 0 {
			d := c.depAt[op.dep]
			if d == inFlight {
				continue
			}
			if d > now {
				if d < h {
					h = d
				}
				continue
			}
		}
		return now // issuable (ports and RQ willing — both per-tick events)
	}
	return h
}

// creditSkip accounts n skipped no-op cycles in the counters SchedTicked
// would have advanced every tick: the cycle count, and the ROB-full stall
// count when the core is stalled with a record pending (the condition
// dispatch re-evaluates per cycle; it cannot change across a quiescent
// window because retirement and dispatch are both events).
func (c *Core) creditSkip(n uint64) {
	c.Stats.Cycles += n
	if c.pendingValid && c.robInstrs >= c.cfg.ROBSize {
		c.Stats.ROBFullStalls += n
	}
}

// Done reports whether the core has exhausted its trace and window.
func (c *Core) Done() bool {
	return c.traceDone && !c.pendingValid && c.robCount == 0
}

// Err returns the trace-reader failure that stopped this core, if any.
func (c *Core) Err() error { return c.err }

// CheckInvariants verifies the reorder buffer's accounting: the occupancy
// counters must agree with the entries actually present in the ring, the
// aggregated instruction count must match a fresh walk, the pend list
// (program-ordered, mirroring its ROB entries) and the parked chains must
// together name each unissued memory entry exactly once, and every parked
// operation must wait on a slot whose producer is in flight. It never
// mutates state.
func (c *Core) CheckInvariants(name string, cycle uint64, report func(check.Violation)) {
	bad := func(format string, args ...interface{}) {
		report(check.Violation{Rule: check.RuleROBAccounting, Component: name, Cycle: cycle,
			Detail: fmt.Sprintf(format, args...)})
	}
	if c.robCount < 0 || c.robCount >= len(c.rob) {
		bad("robCount %d outside ring of %d slots", c.robCount, len(c.rob))
		return
	}
	instrs := 0
	unissued := 0
	i := c.robHead
	for n := 0; n < c.robCount; n++ {
		instrs += c.entryInstrs(&c.rob[i])
		if c.rob[i].isMem && !c.rob[i].issued {
			unissued++
		}
		i = (i + 1) % len(c.rob)
	}
	if instrs != c.robInstrs {
		bad("robInstrs counter %d, ring walk says %d", c.robInstrs, instrs)
	}
	// listed counts how often each ROB slot appears in pend or a chain.
	listed := make([]int, len(c.rob))
	unissuedOp := func(slot int32) bool {
		if slot < 0 || int(slot) >= len(c.rob) {
			return false
		}
		listed[slot]++
		e := &c.rob[slot]
		return e.isMem && !e.issued
	}
	for k, op := range c.pend {
		if !unissuedOp(op.slot) {
			bad("pend entry %d (ROB slot %d) does not hold an unissued memory op", k, op.slot)
			continue
		}
		if e := &c.rob[op.slot]; e.recIdx != op.recIdx || (e.kind == trace.Store) != op.store {
			bad("pend entry %d says record %d store=%v, ROB slot %d holds record %d kind %v",
				k, op.recIdx, op.store, op.slot, e.recIdx, e.kind)
		}
		if k > 0 && c.pend[k-1].recIdx >= op.recIdx {
			bad("pend entry %d (record %d) follows record %d: not in program order",
				k, op.recIdx, c.pend[k-1].recIdx)
		}
	}
	parked := 0
	for s := range c.parkHead {
		if c.parkHead[s] == 0 {
			continue
		}
		if c.depAt[s] != inFlight {
			bad("operations parked on dependence slot %d, whose producer completed at cycle %d", s, c.depAt[s])
		}
		for id, n := c.parkHead[s], 0; id != 0; id = c.parkNext[id-1] {
			if n++; n > len(c.rob) {
				bad("parked chain on dependence slot %d does not terminate", s)
				break
			}
			parked++
			if !unissuedOp(id - 1) {
				bad("parked chain on dependence slot %d names ROB slot %d, not an unissued memory op", s, id-1)
				break
			}
		}
	}
	if unissued != len(c.pend)+parked {
		bad("pend list holds %d ops and %d are parked, ring walk finds %d unissued memory ops",
			len(c.pend), parked, unissued)
	}
	for slot, n := range listed {
		if n > 1 {
			bad("ROB slot %d listed %d times across pend and the parked chains", slot, n)
		}
	}
}

func (c *Core) retire(cycle uint64) {
	budget := c.cfg.RetireWidth
	for budget > 0 && c.robCount > 0 {
		e := &c.rob[c.robHead]
		if e.nonMem > 0 {
			n := uint32(budget)
			if n > e.nonMem {
				n = e.nonMem
			}
			e.nonMem -= n
			c.robInstrs -= int(n)
			budget -= int(n)
			c.retired(uint64(n), cycle)
			if e.nonMem > 0 {
				return
			}
			c.popHead()
			continue
		}
		// Memory instruction: must be complete.
		if !e.done || e.doneCycle > cycle {
			return
		}
		budget--
		c.retired(1, cycle)
		c.popHead()
	}
}

func (c *Core) retired(n, cycle uint64) {
	c.Stats.Instructions += n
	c.RetiredTotal += n
	if !c.Finished && c.finishTarget > 0 && c.RetiredTotal >= c.finishTarget {
		c.Finished = true
		c.FinishedCycle = cycle
	}
}

func (c *Core) popHead() {
	c.robInstrs -= c.entryInstrs(&c.rob[c.robHead])
	c.rob[c.robHead] = robEntry{}
	c.robHead = (c.robHead + 1) % len(c.rob)
	c.robCount--
}

func (c *Core) entryInstrs(e *robEntry) int {
	if e.isMem {
		return 1
	}
	return int(e.nonMem)
}

// dispatch brings up to IssueWidth instructions into the window.
func (c *Core) dispatch(cycle uint64) {
	budget := c.cfg.IssueWidth
	for budget > 0 {
		if !c.pendingValid {
			if c.traceDone {
				return
			}
			rec, err := c.reader.Next()
			if err != nil {
				// EOF ends the trace cleanly; anything else (a corrupt
				// stream read lazily) stops this core and is surfaced by
				// the engine as the run error.
				if err != io.EOF {
					c.err = err
				}
				c.traceDone = true
				return
			}
			c.pending = rec
			c.pendingNonMem = rec.NonMemBefore
			c.pendingValid = true
		}
		if c.robInstrs >= c.cfg.ROBSize {
			c.Stats.ROBFullStalls++
			return
		}
		if c.pendingNonMem > 0 {
			n := uint32(budget)
			if room := uint32(c.cfg.ROBSize - c.robInstrs); n > room {
				n = room
			}
			if n > c.pendingNonMem {
				n = c.pendingNonMem
			}
			c.pendingNonMem -= n
			budget -= int(n)
			c.pushNonMem(n)
			continue
		}
		// Dispatch the memory operation itself.
		c.memRecords++
		idx := c.memRecords
		op := pendOp{recIdx: idx, slot: int32(c.robTail), dep: -1, store: c.pending.Kind == trace.Store}
		// Out-of-window producers are treated as complete.
		if d := uint64(c.pending.DepDist); d > 0 && d < idx && d < depWindow {
			op.dep = int32((idx - d) % depWindow)
		}
		c.depAt[idx%depWindow] = inFlight
		c.pushEntry(robEntry{
			isMem:  true,
			kind:   c.pending.Kind,
			vaddr:  c.pending.Addr,
			ip:     c.pending.IP,
			recIdx: idx,
		})
		if op.dep >= 0 && c.depAt[op.dep] == inFlight {
			c.park(op)
		} else {
			c.pend = append(c.pend, op)
		}
		budget--
		c.pendingValid = false
		if c.pending.Kind == trace.Load {
			c.Stats.Loads++
		} else {
			c.Stats.Stores++
		}
	}
}

func (c *Core) pushNonMem(n uint32) {
	// Merge into the previous tail entry when it is a non-mem run that
	// has not begun retiring (keeps the ring short).
	if c.robCount > 0 {
		lastIdx := (c.robTail + len(c.rob) - 1) % len(c.rob)
		last := &c.rob[lastIdx]
		if !last.isMem && lastIdx != c.robHead {
			last.nonMem += n
			c.robInstrs += int(n)
			return
		}
	}
	c.pushEntry(robEntry{nonMem: n})
}

func (c *Core) pushEntry(e robEntry) {
	if c.robCount >= len(c.rob) {
		panic("sim: ROB ring overflow")
	}
	c.robInstrs += c.entryInstrs(&e)
	c.rob[c.robTail] = e
	c.robTail = (c.robTail + 1) % len(c.rob)
	c.robCount++
}

// park chains op onto its producer's dependence-window slot.
func (c *Core) park(op pendOp) {
	id := op.slot + 1
	c.parkNext[op.slot] = 0
	if t := c.parkTail[op.dep]; t != 0 {
		c.parkNext[t-1] = id
	} else {
		c.parkHead[op.dep] = id
	}
	c.parkTail[op.dep] = id
}

// complete records a completion on dependence-window slot s and releases
// the operations parked on it into pend at their program-order positions.
// A released operation keeps its dependence check in the issue scan: the
// slot may be re-dispatched (aliased by a later record) before it issues.
func (c *Core) complete(s, done uint64) {
	c.depAt[s] = done
	id := c.parkHead[s]
	if id == 0 {
		return
	}
	c.parkHead[s], c.parkTail[s] = 0, 0
	c.wake = c.wake[:0]
	for ; id != 0; id = c.parkNext[id-1] {
		e := &c.rob[id-1]
		c.wake = append(c.wake, pendOp{recIdx: e.recIdx, slot: id - 1, dep: int32(s), store: e.kind == trace.Store})
	}
	// Both lists are in program order: merge from the back.
	n := len(c.pend)
	c.pend = c.pend[:n+len(c.wake)]
	i, j := n-1, len(c.wake)-1
	for w := len(c.pend) - 1; j >= 0; w-- {
		if i >= 0 && c.pend[i].recIdx > c.wake[j].recIdx {
			c.pend[w] = c.pend[i]
			i--
		} else {
			c.pend[w] = c.wake[j]
			j--
		}
	}
}

// issue sends ready memory operations to the L1D through limited ports.
// The pend list is filtered in place: issued entries drop out, blocked
// entries stay in program order.
func (c *Core) issue(cycle uint64) {
	loads := c.cfg.LoadPorts
	stores := c.cfg.StorePorts
	w := 0
	n := 0
	for ; n < len(c.pend); n++ {
		if loads == 0 && stores == 0 {
			break
		}
		op := c.pend[n]
		// Port and dependence checks (an in-flight producer's depAt is
		// inFlight, later than any cycle).
		if (op.store && stores == 0) || (!op.store && loads == 0) ||
			(op.dep >= 0 && c.depAt[op.dep] > cycle) {
			c.pend[w] = op
			w++
			continue
		}
		if !c.tryIssue(&c.rob[op.slot], op.slot, cycle) {
			// L1D RQ full: stop issuing this cycle; keep this entry and
			// everything behind it.
			c.pend[w] = op
			w++
			n++
			break
		}
		if op.store {
			stores--
		} else {
			loads--
		}
	}
	// Close the gaps issued operations left; the tail moves only then.
	if w < n {
		c.pend = c.pend[:w+copy(c.pend[w:], c.pend[n:])]
	}
}

// tryIssue translates and sends one memory op to the L1D. Completion comes
// back through ReqDone with a token instead of a per-request closure, so
// issuing allocates nothing.
func (c *Core) tryIssue(e *robEntry, slot int32, cycle uint64) bool {
	if c.l1d.RQOccupancy() >= c.l1d.RQCap() {
		return false
	}
	paddr, xlat := c.mmu.TranslateDemand(e.vaddr, cycle)
	req := cache.Req{
		LineAddr:  paddr >> cache.LineShift,
		VLineAddr: e.vaddr >> cache.LineShift,
		IP:        e.ip,
		FillLevel: cache.L1D,
		Store:     e.kind == trace.Store,
		Sink:      c,
		Token:     uint64(slot),
	}
	if e.kind == trace.Store {
		// Stores retire without waiting for the fill; the L1D handles
		// write-allocation in the background. The slot may be recycled
		// before the fill lands, so the token names the record instead.
		e.done = true
		e.doneCycle = cycle + 1
		req.Token = storeTokenBit | e.recIdx
	}
	if !c.l1d.AcceptDemand(&req, cycle+xlat) {
		return false
	}
	e.issued = true
	return true
}

// ReqDone implements cache.DoneSink: L1D completions arrive here keyed by
// the token tryIssue encoded.
func (c *Core) ReqDone(token, done uint64) {
	if token&storeTokenBit != 0 {
		// Store fill: the ROB entry is long retired; only the dependence
		// window needs the completion.
		c.complete((token&^storeTokenBit)%depWindow, done)
		return
	}
	e := &c.rob[token]
	e.done = true
	e.doneCycle = done
	c.complete(e.recIdx%depWindow, done)
}

// ResetStats clears measured counters (after warmup).
func (c *Core) ResetStats() {
	c.Stats = stats.CoreStats{}
}
