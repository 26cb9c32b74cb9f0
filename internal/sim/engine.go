package sim

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/dram"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/stats"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/vm"
)

// dramAdaptor bridges cache.Lower to the DRAM channel.
type dramAdaptor struct {
	ch *dram.Channel
}

func (d *dramAdaptor) AcceptRead(r *cache.Req, cycle uint64) bool {
	// cache.DoneSink and dram.DoneSink are structurally identical, so the
	// sink passes straight through; the Request is stack-built and copied
	// into the channel's ring — no allocation.
	req := dram.Request{
		LineAddr:   r.LineAddr,
		IsPrefetch: r.IsPrefetch,
		Sink:       r.Sink,
		Token:      r.Token,
	}
	return d.ch.EnqueueRead(&req, cycle)
}

func (d *dramAdaptor) AcceptWrite(r *cache.Req, cycle uint64) bool {
	req := dram.Request{
		LineAddr: r.LineAddr,
		Write:    true,
	}
	return d.ch.EnqueueWrite(&req, cycle)
}

// Promote implements cache.Lower.
func (d *dramAdaptor) Promote(lineAddr uint64) { d.ch.Promote(lineAddr) }

// stlbXlat adapts the MMU's prefetch translation path to cache.Translator.
type stlbXlat struct{ mmu *vm.MMU }

func (x stlbXlat) TranslatePrefetchLine(vline uint64) (uint64, uint64, bool) {
	vaddr := vline << cache.LineShift
	paddr, lat, ok := x.mmu.TranslatePrefetch(vaddr)
	if !ok {
		return 0, 0, false
	}
	return paddr >> cache.LineShift, lat, true
}

// CoreResult holds one core's measured statistics.
type CoreResult struct {
	Core stats.CoreStats
	TLB  stats.TLBStats
	L1D  stats.CacheStats
	L2   stats.CacheStats
	// Traffic sent downward by this core's private levels.
	L1DToL2 uint64
	WBToL2  uint64
	L2ToLLC uint64
	WBToLLC uint64
	// IPC over the measured region.
	IPC float64
}

// Result holds a full simulation's statistics.
type Result struct {
	Config    Config
	Cores     []CoreResult
	LLC       stats.CacheStats
	LLCToDRAM uint64
	WBToDRAM  uint64
	DRAM      stats.DRAMStats
	Cycles    uint64
	L1DPfName string
	L2PfName  string
	L1DPfBits int
	L2PfBits  int
	// TimeSeries holds the per-interval samples when an observer with a
	// sampler was attached before Run (nil otherwise).
	TimeSeries *obs.TimeSeries
	// Provenance holds the per-prefetch lifecycle report when a tracker was
	// attached before Run (nil otherwise — omitted from JSON so disabled
	// runs serialize byte-identically to builds without the tracker).
	Provenance *provenance.Report `json:",omitempty"`
}

// IPC returns core 0's IPC (single-core convenience).
func (r *Result) IPC() float64 { return r.Cores[0].IPC }

// Traffic aggregates inter-level DATA transfers across cores: lines filled
// into the upper level (each fill is one line crossing the boundary) plus
// writebacks travelling down. Request/command traffic is not counted — a
// prefetch request that gets dropped as a duplicate moves no data.
func (r *Result) Traffic() stats.Traffic {
	var t stats.Traffic
	for i := range r.Cores {
		t.L1DToL2 += r.Cores[i].L1D.TotalFills
		t.WBToL2 += r.Cores[i].WBToL2
		t.L2ToLLC += r.Cores[i].L2.TotalFills
		t.WBToLLC += r.Cores[i].WBToLLC
	}
	t.LLCToDRAM = r.LLC.TotalFills
	t.WBToDRAM = r.WBToDRAM
	return t
}

// Machine is a fully-wired simulated system.
type Machine struct {
	cfg   Config
	cores []*Core
	mmus  []*vm.MMU
	l1ds  []*cache.Cache
	l2s   []*cache.Cache
	llc   *cache.Cache
	dramC *dram.Channel
	cycle uint64

	// sched selects the main-loop strategy (SchedHorizon by default).
	// horizon() queries the component slices directly through their
	// concrete types — see scheduler.go.
	sched Scheduler

	// Observability (nil = disabled; the per-tick cost of the disabled
	// path is a single bool check in runUntil).
	obsv       *obs.Observer
	sampling   bool
	nextSample uint64

	// Invariant checking (nil checker = disabled at the cost of one nil
	// check per tick). checkInterval is the cycle stride between sweeps;
	// mshrStuckAfter is the in-flight age that flags a leaked fill.
	checker        *check.Checker
	checkInterval  uint64
	mshrStuckAfter uint64
	nextCheck      uint64

	// Fault injection (nil = disabled). State-corruption plans (dup-line,
	// pq-orphan) fire once at plan.After cycles; fill plans attach a hook
	// to every L1D.
	faultPlan      *fault.Plan
	corruptApplied bool

	// deadline bounds the run's wall-clock time (zero = unbounded).
	// nextDeadlineCheck is the next cycle at which the wall clock and the
	// cancellation context are consulted (a tracked target rather than a
	// modulus, so horizon jumps land on it instead of leaping over the
	// stride boundary).
	deadline          time.Time
	deadlineLimit     time.Duration
	nextDeadlineCheck uint64

	// ctx, when non-nil, is polled for cooperative cancellation at the
	// same stride as the wall-clock deadline: no per-cycle cost, and under
	// the horizon scheduler jumps are clamped to the poll boundary so a
	// quiescent stretch cannot defer the check.
	ctx context.Context

	// watchdogCycles overrides StallWatchdogCycles (0 = default).
	watchdogCycles uint64

	// prov is the per-prefetch lifecycle tracker shared by every cache
	// level (nil = disabled at zero cost: the caches guard every emission).
	prov *provenance.Tracker
}

// New builds a machine: per-core L1D+L2 (private), a shared LLC sized
// 2 MB/core, and one DRAM channel. traces supplies one reader per core.
// l1dPf/l2Pf are per-level prefetcher factories (nil = none). The
// configuration is validated first; an invalid one yields a *ConfigError
// (or the nested cache/vm error) instead of a panic downstream.
func New(cfg Config, traces []trace.Reader, l1dPf, l2Pf PrefetcherFactory) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(traces) != cfg.Cores {
		return nil, &ConfigError{Field: "Cores",
			Reason: fmt.Sprintf("%d trace readers for %d cores", len(traces), cfg.Cores)}
	}
	m := &Machine{cfg: cfg}
	m.dramC = dram.NewChannel(cfg.DRAM)
	da := &dramAdaptor{ch: m.dramC}

	llcCfg := cfg.LLC
	llcCfg.SizeBytes *= cfg.Cores
	llcCfg.MSHRs *= cfg.Cores
	llcCfg.RQSize *= cfg.Cores
	llcCfg.WQSize *= cfg.Cores
	llcCfg.PQSize *= cfg.Cores
	llc, err := cache.New(llcCfg, da)
	if err != nil {
		return nil, &ConfigError{Field: "LLC", Err: err}
	}
	m.llc = llc

	for i := 0; i < cfg.Cores; i++ {
		mmu, err := vm.NewMMU(cfg.MMU, uint64(i)+1)
		if err != nil {
			return nil, &ConfigError{Field: "MMU", Err: err}
		}
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("L2.%d", i)
		l2, err := cache.New(l2cfg, m.llc)
		if err != nil {
			return nil, &ConfigError{Field: "L2", Err: err}
		}
		l1cfg := cfg.L1D
		l1cfg.Name = fmt.Sprintf("L1D.%d", i)
		l1, err := cache.New(l1cfg, l2)
		if err != nil {
			return nil, &ConfigError{Field: "L1D", Err: err}
		}
		l1.SetTranslator(stlbXlat{mmu: mmu})
		if l1dPf != nil {
			l1.SetPrefetcher(l1dPf())
		}
		if l2Pf != nil {
			l2.SetPrefetcher(l2Pf())
		}
		core := NewCore(i, cfg.Core, traces[i], mmu, l1)
		m.mmus = append(m.mmus, mmu)
		m.l1ds = append(m.l1ds, l1)
		m.l2s = append(m.l2s, l2)
		m.cores = append(m.cores, core)
	}
	return m, nil
}

// MustNew builds a machine from a configuration known to be valid (tests,
// compiled-in defaults). It panics on error; user-supplied configurations
// must go through New.
func MustNew(cfg Config, traces []trace.Reader, l1dPf, l2Pf PrefetcherFactory) *Machine {
	m, err := New(cfg, traces, l1dPf, l2Pf)
	if err != nil {
		panic(err)
	}
	return m
}

// Options selects the hooks attached to one run: observability, invariant
// checking, fault injection and provenance. The zero value attaches
// nothing, and every absent hook costs at most one nil check per tick.
type Options struct {
	// Observer attaches the observability layer (sampler/tracer).
	Observer *obs.Observer
	// Checker attaches an invariant checker; violations become the run
	// error (*check.ViolationError) while the result is still returned.
	Checker *check.Checker
	// CheckInterval / MSHRStuckAfter tune the checker (0 = defaults).
	CheckInterval  uint64
	MSHRStuckAfter uint64
	// Watchdog overrides the engine's progress-free cycle window
	// (0 = StallWatchdogCycles). Fault tests shrink it so deliberate
	// deadlocks fail fast.
	Watchdog uint64
	// Fault injects deterministic damage. Attach wires only
	// simulation-level plans; trace-level plans damage the encoded trace
	// before decoding, which is the caller's job.
	Fault *fault.Plan
	// Provenance attaches a per-prefetch lifecycle tracker; the run's
	// Result carries its attribution report.
	Provenance *provenance.Tracker
}

// DefaultCheckInterval is the cycle stride between invariant sweeps.
const DefaultCheckInterval = 10_000

// DefaultMSHRStuckAfter is the in-flight age (cycles) at which an MSHR
// entry is flagged as a leaked fill. Well below the 2M-cycle watchdog, far
// above any legitimate DRAM round trip.
const DefaultMSHRStuckAfter = 100_000

// Attach wires the hooks o selects into the machine. Call it once, before
// Run. The tracer and the provenance tracker are threaded through every
// cache level (and the tracer through every MMU) so IDs stay meaningful as
// requests cross the hierarchy; the sampler is driven from the measurement
// loop over core 0. Fill fault plans (drop-fill, delay-fill) hook every
// L1D's fill path; state-corruption plans (dup-line, pq-orphan) fire once
// when the cycle counter reaches plan.After. Observers and the tracker are
// pure: core statistics are byte-identical with and without them.
func (m *Machine) Attach(o Options) {
	m.obsv = o.Observer
	if o.Observer != nil && o.Observer.Tracer != nil {
		for i := range m.l1ds {
			m.l1ds[i].SetTracer(o.Observer.Tracer)
			m.l2s[i].SetTracer(o.Observer.Tracer)
			m.mmus[i].SetTracer(o.Observer.Tracer)
		}
		m.llc.SetTracer(o.Observer.Tracer)
	}
	if o.Provenance != nil {
		m.prov = o.Provenance
		for i := range m.l1ds {
			m.l1ds[i].SetProvenance(o.Provenance)
			m.l2s[i].SetProvenance(o.Provenance)
		}
		m.llc.SetProvenance(o.Provenance)
	}
	if o.Checker != nil {
		m.checker = o.Checker
		m.checkInterval = cmp.Or(o.CheckInterval, DefaultCheckInterval)
		m.mshrStuckAfter = cmp.Or(o.MSHRStuckAfter, DefaultMSHRStuckAfter)
	}
	if o.Fault != nil && !o.Fault.TraceFault() {
		m.faultPlan = o.Fault
		if inj := fault.NewFillInjector(o.Fault); inj != nil {
			for _, l1 := range m.l1ds {
				l1.SetFaultHook(inj)
			}
		}
	}
	m.watchdogCycles = o.Watchdog
}

// SetDeadline bounds the run's wall-clock time; 0 disables the bound. The
// deadline is checked every few thousand cycles, so enforcement is
// approximate but cheap.
func (m *Machine) SetDeadline(d time.Duration) {
	m.deadlineLimit = d
	if d > 0 {
		m.deadline = time.Now().Add(d)
	} else {
		m.deadline = time.Time{}
	}
}

// SetContext arms cooperative cancellation: once ctx is done, the run stops
// at the next poll (every deadlineStride cycles) and Run returns a
// *CancelError carrying the engine snapshot. A nil context disables
// polling. Must be called before Run.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

// cancelled returns the typed cancellation error when the attached context
// is done, nil otherwise.
func (m *Machine) cancelled() *CancelError {
	if m.ctx == nil {
		return nil
	}
	select {
	case <-m.ctx.Done():
		return &CancelError{Cause: m.ctx.Err(), Snapshot: m.snapshotState()}
	default:
		return nil
	}
}

// snapshotState captures the engine's progress state for stall/deadline
// reports.
func (m *Machine) snapshotState() EngineSnapshot {
	s := EngineSnapshot{Cycle: m.cycle}
	for _, c := range m.cores {
		s.Retired = append(s.Retired, c.RetiredTotal)
		s.Finished = append(s.Finished, c.Finished)
	}
	for i := range m.l1ds {
		s.Queues = append(s.Queues, m.l1ds[i].Queues())
	}
	for i := range m.l2s {
		s.Queues = append(s.Queues, m.l2s[i].Queues())
	}
	s.Queues = append(s.Queues, m.llc.Queues())
	return s
}

// checkAll sweeps every subsystem's invariants once.
func (m *Machine) checkAll(cycle uint64) {
	report := m.checker.Report
	for i := range m.l1ds {
		m.l1ds[i].CheckInvariants(cycle, m.mshrStuckAfter, report)
		m.l2s[i].CheckInvariants(cycle, m.mshrStuckAfter, report)
	}
	m.llc.CheckInvariants(cycle, m.mshrStuckAfter, report)
	for i, c := range m.cores {
		c.CheckInvariants(fmt.Sprintf("core.%d", i), cycle, report)
		m.mmus[i].CheckInvariants(fmt.Sprintf("MMU.%d", i), cycle, report)
	}
}

// maybeCorrupt applies a one-shot state-corruption fault (dup-line,
// pq-orphan) once the cycle counter reaches the plan's After. afterCycle
// calls it only while the plan is unapplied.
func (m *Machine) maybeCorrupt() {
	if m.cycle < m.faultPlan.After {
		return
	}
	switch m.faultPlan.Kind {
	case fault.DupLine:
		m.corruptApplied = m.l1ds[0].CorruptDuplicateTag()
	case fault.PQOrphan:
		n := int(m.faultPlan.Param)
		if n == 0 {
			n = 4
		}
		m.l1ds[0].CorruptPQOrphans(n)
		m.corruptApplied = true
	default:
		m.corruptApplied = true // fill/trace plans need no state corruption
	}
	if m.corruptApplied && m.checker != nil {
		// Sweep before normal traffic can evict the damage: a duplicated
		// tag in a streaming set lives far shorter than the check interval.
		m.nextCheck = m.cycle
	}
}

// snapshot captures core 0's cumulative counters (plus shared LLC/DRAM)
// for the interval sampler. Multi-core runs sample core 0's view.
func (m *Machine) snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Cycle:            m.cycle,
		Instructions:     m.cores[0].Stats.Instructions,
		Core:             m.cores[0].Stats,
		TLB:              m.mmus[0].Stats,
		L1D:              m.l1ds[0].Stats,
		L2:               m.l2s[0].Stats,
		LLC:              m.llc.Stats,
		DRAM:             m.dramC.Stats,
		L1DMSHROccupancy: m.l1ds[0].MSHROccupancy(),
	}
	if pf := m.l1ds[0].Prefetcher(); pf != nil {
		if in, ok := pf.(obs.Introspector); ok {
			s.Gauges = make(map[string]float64, 16)
			in.Introspect(s.Gauges)
		}
	}
	return s
}

// maybeSample records a sampler row at every interval boundary crossed by
// core 0's retired-instruction count.
func (m *Machine) maybeSample() {
	instr := m.cores[0].Stats.Instructions
	for instr >= m.nextSample {
		m.obsv.Sampler.Record(m.snapshot())
		m.nextSample += m.obsv.Sampler.Interval()
	}
}

// L1D returns core i's L1D (harness introspection).
func (m *Machine) L1D(i int) *cache.Cache { return m.l1ds[i] }

// Core returns core i.
func (m *Machine) CoreAt(i int) *Core { return m.cores[i] }

// tick advances the whole machine one cycle, bottom-up.
func (m *Machine) tick() {
	m.dramC.Tick(m.cycle)
	m.llc.Tick(m.cycle)
	for i := range m.l2s {
		m.l2s[i].Tick(m.cycle)
	}
	for i := range m.l1ds {
		m.l1ds[i].Tick(m.cycle)
	}
	for i := range m.cores {
		m.cores[i].Tick(m.cycle)
	}
	m.cycle++
}

// Run executes warmup then measurement and returns the collected result.
// Each core is measured over cfg.SimInstructions retired after warmup;
// cores that finish early keep executing (their trace readers loop in
// multi-core mixes) so contention persists until all cores finish.
//
// A hang yields a *StallError, a blown wall-clock budget a *DeadlineError,
// a done cancellation context a *CancelError, a failing trace reader a
// *TraceReadError (all with nil result). When an attached checker recorded
// violations the result is still returned alongside the
// *check.ViolationError.
func (m *Machine) Run() (*Result, error) {
	cfg := m.cfg
	// Warmup phase.
	if cfg.WarmupInstructions > 0 {
		if err := m.runUntil(func() bool {
			for _, c := range m.cores {
				if c.RetiredTotal < cfg.WarmupInstructions && !c.Done() {
					return false
				}
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	// Reset measured statistics; cache/TLB/predictor state persists.
	warmupEnd := m.cycle
	for i, c := range m.cores {
		c.ResetStats()
		c.SetFinishTarget(c.RetiredTotal + cfg.SimInstructions)
		c.Finished = false
		m.l1ds[i].ResetStats()
		m.l2s[i].ResetStats()
		m.mmus[i].Stats = stats.TLBStats{}
	}
	m.llc.ResetStats()
	m.dramC.Stats = stats.DRAMStats{}
	if m.prov != nil {
		// Zero the aggregates but keep live records: a prefetch issued in
		// warmup that resolves during measurement lands in the measured
		// aggregates exactly like its PrefUseful/PrefLate/PrefUseless
		// counterpart does.
		m.prov.ResetCounters()
	}

	// Arm the interval sampler: baseline at measurement start (counters
	// just reset, only the cycle is nonzero).
	if m.obsv != nil && m.obsv.Sampler != nil {
		m.obsv.Sampler.Begin(m.snapshot())
		m.nextSample = m.obsv.Sampler.Interval()
		m.sampling = true
	}

	// Measurement phase.
	if err := m.runUntil(func() bool {
		for _, c := range m.cores {
			if !c.Finished && !c.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}

	res := &Result{Config: cfg, Cycles: m.cycle - warmupEnd}
	if m.sampling {
		// Close the trailing partial interval (no-op when the run ended
		// exactly on a boundary) and publish the series.
		m.obsv.Sampler.Record(m.snapshot())
		m.sampling = false
		res.TimeSeries = m.obsv.Sampler.Series()
	}
	for i, c := range m.cores {
		finish := c.FinishedCycle
		if finish == 0 {
			finish = m.cycle
		}
		cycles := finish - warmupEnd
		ipc := 0.0
		if cycles > 0 {
			ipc = float64(cfg.SimInstructions) / float64(cycles)
		}
		res.Cores = append(res.Cores, CoreResult{
			Core:    c.Stats,
			TLB:     m.mmus[i].Stats,
			L1D:     m.l1ds[i].Stats,
			L2:      m.l2s[i].Stats,
			L1DToL2: m.l1ds[i].TrafficDown,
			WBToL2:  m.l1ds[i].WBDown,
			L2ToLLC: m.l2s[i].TrafficDown,
			WBToLLC: m.l2s[i].WBDown,
			IPC:     ipc,
		})
	}
	res.LLC = m.llc.Stats
	res.LLCToDRAM = m.llc.TrafficDown
	res.WBToDRAM = m.llc.WBDown
	res.DRAM = m.dramC.Stats
	if pf := m.l1ds[0].Prefetcher(); pf != nil {
		res.L1DPfName = pf.Name()
		res.L1DPfBits = pf.StorageBits()
	}
	if pf := m.l2s[0].Prefetcher(); pf != nil {
		res.L2PfName = pf.Name()
		res.L2PfBits = pf.StorageBits()
	}
	if m.prov != nil {
		res.Provenance = m.prov.Report()
	}
	if m.checker != nil {
		// Final sweep so short runs (or damage near the end) are still
		// inspected at least once.
		m.checkAll(m.cycle)
		if err := m.checker.Err(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// MustRun is Run for machines known to be healthy (examples, tests with
// trusted traces); it panics on any error. The free-function form exists so
// call sites read sim.MustRun(m) alongside sim.MustNew.
func MustRun(m *Machine) *Result {
	res, err := m.Run()
	if err != nil {
		panic(err)
	}
	return res
}

// StallWatchdogCycles is the progress-free window after which runUntil
// declares the machine hung.
const StallWatchdogCycles = 2_000_000

// deadlineStride is how many cycles pass between wall-clock deadline and
// context-cancellation checks.
const deadlineStride = 1 << 14

// loopState carries runUntil's progress-watchdog bookkeeping across
// afterCycle calls.
type loopState struct {
	lastProgress uint64
	lastRetired  uint64
	watchdog     uint64
}

// runUntil drives the machine until cond holds, with a progress watchdog, a
// wall-clock deadline, and the periodic invariant sweep. Under SchedTicked
// every cycle is executed; under SchedHorizon the loop jumps the clock over
// stretches every component reports as quiescent, re-running the trigger
// bookkeeping at the jump target (the jump stops at afterCycle's next
// trigger cycle, so every trigger fires at exactly the cycle it would under
// SchedTicked).
func (m *Machine) runUntil(cond func() bool) error {
	st := loopState{lastProgress: m.cycle, watchdog: m.watchdogCycles}
	if st.watchdog == 0 {
		st.watchdog = StallWatchdogCycles
	}
	m.nextDeadlineCheck = (m.cycle/deadlineStride + 1) * deadlineStride
	// A context that is already done stops the run before any work: a
	// drained worker pool must not start cycles it will immediately abandon.
	if ce := m.cancelled(); ce != nil {
		return ce
	}
	for !cond() {
		m.tick()
		next, err := m.afterCycle(&st)
		if err != nil {
			return err
		}
		if m.sched != SchedHorizon || cond() {
			// cond is re-checked so a jump can never inflate the cycle
			// counter after the tick that satisfies it.
			continue
		}
		if h := min(m.horizon(), next); h > m.cycle {
			m.skipTo(h)
			if _, err := m.afterCycle(&st); err != nil {
				return err
			}
		}
	}
	return nil
}

// afterCycle runs the engine-level bookkeeping both schedulers share:
// sampling, fault triggering, invariant sweeps, the wall-clock deadline, the
// progress watchdog, and trace-reader failures. It observes m.cycle only, so
// running it after a horizon jump is identical to running it after the
// equivalent executed tick. next is the earliest cycle at which one of its
// cycle-timed triggers must run again; each branch bounds it where it fires
// its trigger, and the watchdog's bound keeps it finite. The sampler is
// retirement-driven, and retirement only happens on executed ticks, so it
// needs no bound.
func (m *Machine) afterCycle(st *loopState) (next uint64, err error) {
	if m.sampling {
		m.maybeSample()
	}
	next = Never
	if m.faultPlan != nil && !m.corruptApplied {
		m.maybeCorrupt()
		if !m.corruptApplied {
			next = m.faultPlan.After
		}
	}
	if m.checker != nil {
		if m.cycle >= m.nextCheck {
			m.checkAll(m.cycle)
			m.nextCheck = m.cycle + m.checkInterval
		}
		next = min(next, m.nextCheck)
	}
	if m.ctx != nil || !m.deadline.IsZero() {
		if m.cycle >= m.nextDeadlineCheck {
			m.nextDeadlineCheck = (m.cycle/deadlineStride + 1) * deadlineStride
			if ce := m.cancelled(); ce != nil {
				return 0, ce
			}
			if !m.deadline.IsZero() && time.Now().After(m.deadline) {
				return 0, &DeadlineError{Limit: m.deadlineLimit, Snapshot: m.snapshotState()}
			}
		}
		next = min(next, m.nextDeadlineCheck)
	}
	var retired uint64
	for _, c := range m.cores {
		retired += c.RetiredTotal
	}
	if retired != st.lastRetired {
		st.lastRetired = retired
		st.lastProgress = m.cycle
	} else if m.cycle-st.lastProgress > st.watchdog {
		return 0, &StallError{StallCycles: st.watchdog, Snapshot: m.snapshotState()}
	}
	next = min(next, st.lastProgress+st.watchdog+1)
	for i, c := range m.cores {
		if err := c.Err(); err != nil {
			return 0, &TraceReadError{Core: i, Err: err}
		}
	}
	return next, nil
}
