// Package harness runs the paper's experiments: it builds workload traces,
// wires prefetcher configurations into simulated machines, memoizes
// results, and renders the per-figure reports. Both cmd/experiments and the
// repository benchmarks drive this package.
package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/dram"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/prefetch/oracle"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/tracestore"
	"github.com/bertisim/berti/internal/workloads"

	// Populate the workload registry.
	_ "github.com/bertisim/berti/internal/workloads/cloudlike"
	_ "github.com/bertisim/berti/internal/workloads/gap"
	_ "github.com/bertisim/berti/internal/workloads/speclike"
)

// SpecError reports a RunSpec that names something the registries do not
// know or carries an invalid override.
type SpecError struct {
	// Field names the offending spec field ("Workload", "L1DPf", ...).
	Field string
	// Name is the value that failed to resolve.
	Name string
	// Err is the nested cause for override validation failures (nil for
	// plain lookup misses).
	Err error
}

// Error implements error.
func (e *SpecError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("harness: spec %s=%q: %v", e.Field, e.Name, e.Err)
	}
	return fmt.Sprintf("harness: spec %s: unknown %q", e.Field, e.Name)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *SpecError) Unwrap() error { return e.Err }

// PanicError wraps a panic recovered from a simulation goroutine so one
// crashing run cannot take down sibling experiments.
type PanicError struct {
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("harness: run panicked: %v", e.Value) }

// RunError ties a failure to the spec that produced it.
type RunError struct {
	// Spec is the failing run.
	Spec RunSpec
	// Err is the failure.
	Err error
}

// Error implements error. A run executes once; the attempt count stays in
// the text so failure reports keep their bytes.
func (e *RunError) Error() string {
	return fmt.Sprintf("harness: run %s failed after 1 attempt(s): %v", e.Spec.key(), e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// DefaultRunTimeout is the per-run wall-clock budget. Generous: quick-scale
// runs finish in seconds; only a genuine hang (which the cycle-domain
// watchdog usually catches first) burns this long.
const DefaultRunTimeout = 10 * time.Minute

// Scale sizes the experiments. The paper simulates 50M warmup + 200M
// instructions per trace; these scales preserve the methodology at
// laptop-friendly sizes.
type Scale struct {
	Name        string
	MemRecords  int
	WarmupInstr uint64
	SimInstr    uint64
	Mixes       int // multi-core mixes evaluated
}

// Scales available via BERTI_SCALE (quick, default, full).
var (
	ScaleQuick   = Scale{Name: "quick", MemRecords: 120_000, WarmupInstr: 100_000, SimInstr: 250_000, Mixes: 4}
	ScaleDefault = Scale{Name: "default", MemRecords: 300_000, WarmupInstr: 200_000, SimInstr: 600_000, Mixes: 8}
	ScaleFull    = Scale{Name: "full", MemRecords: 1_000_000, WarmupInstr: 600_000, SimInstr: 2_000_000, Mixes: 20}
)

// ScaleByName returns the predefined scale called name ("quick",
// "default" or "full").
func ScaleByName(name string) (Scale, bool) {
	for _, s := range []Scale{ScaleQuick, ScaleDefault, ScaleFull} {
		if s.Name == name {
			return s, true
		}
	}
	return Scale{}, false
}

// ScaleFromEnv picks the scale from $BERTI_SCALE (default: ScaleDefault).
func ScaleFromEnv() Scale {
	if s, ok := ScaleByName(os.Getenv("BERTI_SCALE")); ok {
		return s
	}
	return ScaleDefault
}

// RunSpec names one simulation: a trace source (a registry workload, a
// multi-core mix or a trace file), an L1D and L2 prefetcher from the
// registry, and optional overrides.
type RunSpec struct {
	// Workload is a registry name (single core). For multi-core runs use
	// Mix instead.
	Workload string
	// Mix lists one workload per core (multi-core heterogeneous mix).
	Mix []string
	// TraceFile is the path of a v2 trace container (from tracegen) to run
	// on a single core instead of a generated workload. It excludes
	// Workload, Mix and the oracle L1D prefetcher.
	TraceFile string `json:",omitempty"`
	// Skip fast-forwards a TraceFile run this many instructions before the
	// warmup window starts (the container's chunk index seeks past the
	// skipped region without decompressing it).
	Skip uint64 `json:",omitempty"`
	// L1DPf / L2Pf are prefetch registry names; "" disables the level.
	L1DPf string
	L2Pf  string
	// DRAMCfg overrides the channel ("" = DDR5-6400; "ddr4-3200",
	// "ddr3-1600").
	DRAMCfg string
	// BertiOverride replaces the registry Berti config at L1D (the
	// sensitivity studies). Only used when L1DPf == "berti".
	BertiOverride *core.Config
	// Seed perturbs trace generation (mixes use distinct seeds).
	Seed int64
}

// Key builds the memoization key. It is also the journal key the campaign
// layer persists completed results under, so it must be stable across
// process restarts (it is: a pure function of the spec's fields and, for a
// trace file, of the container's content).
func (s RunSpec) Key() string { return s.key() }

// key builds the memoization key. A trace file enters it by its content
// digest, not its path, so a copied or moved container keys the same.
func (s RunSpec) key() string {
	k := fmt.Sprintf("w=%s|mix=%v|l1=%s|l2=%s|dram=%s|seed=%d", s.Workload, s.Mix, s.L1DPf, s.L2Pf, s.DRAMCfg, s.Seed)
	if s.TraceFile != "" {
		k += fmt.Sprintf("|trace=%s|skip=%d", traceDigest(s.TraceFile), s.Skip)
	}
	if s.BertiOverride != nil {
		k += fmt.Sprintf("|berti=%+v", *s.BertiOverride)
	}
	return k
}

// traceDigest is the content digest of the container at path. An
// unreadable file keys by its path: its run fails on the same open error.
func traceDigest(path string) string {
	f, err := tracestore.Open(path)
	if err != nil {
		return "unreadable:" + path
	}
	defer f.Close()
	return f.Digest()
}

// Harness memoizes traces and simulation results across experiments.
type Harness struct {
	Scale Scale
	// Workers bounds concurrent simulations (defaults to NumCPU).
	Workers int
	// RunTimeout bounds each run's wall-clock time (DefaultRunTimeout if
	// 0; negative disables the bound).
	RunTimeout time.Duration
	// EnableChecks attaches a fresh invariant checker to every run;
	// violations fail the run (the CI quick suite runs with this on).
	EnableChecks bool
	// Scheduler selects the engine's main-loop strategy for every run
	// (sim.SchedHorizon by default). Deliberately absent from the memo key:
	// both schedulers are guaranteed byte-identical results, and the
	// scheduler-differential suite enforces that guarantee.
	Scheduler sim.Scheduler
	// CorpusDir, when set, turns on the on-disk trace corpus: generated
	// workload traces are written once as v2 containers (content-addressed
	// by workload/records/seed) and every simulation streams records from
	// disk through a tracestore.Reader, which decodes one chunk at a time
	// on the simulating goroutine, instead of holding the whole trace in
	// RAM. Runs that must see the full trace up front (oracle
	// prefetchers, trace-level fault plans) fall back to the in-memory
	// path.
	CorpusDir string
	// OnResult, when set, is invoked (outside the harness lock, possibly
	// from concurrent workers) for every freshly-completed memoized run —
	// the campaign journal's subscription point. Memo hits and seeded
	// results do not fire it.
	OnResult func(key string, spec RunSpec, r *sim.Result)
	// EnableProvenance attaches a fresh per-prefetch lifecycle tracker to
	// every run; the run's Result carries the attribution report
	// (Result.Provenance). Deliberately absent from the memo key, like
	// EnableChecks: the tracker is a pure observer and the
	// provenance-differential suite enforces that statistics are
	// byte-identical with it off.
	EnableProvenance bool
	// ProvenanceCap bounds each run's tracker record pool
	// (provenance.DefaultCapacity when 0). Overflowing the pool is not an
	// error — further prefetches go untracked and the report's overflow
	// counter says how many.
	ProvenanceCap int

	mu      sync.Mutex
	traces  map[string]*trace.Slice
	runs    map[string]*outcome
	sem     chan struct{}
	semOnce sync.Once

	corpus     *tracestore.Corpus
	corpusErr  error
	corpusOnce sync.Once
}

// New builds a harness at the given scale.
func New(scale Scale) *Harness {
	return &Harness{
		Scale:   scale,
		Workers: runtime.NumCPU(),
		traces:  map[string]*trace.Slice{},
		runs:    map[string]*outcome{},
	}
}

// outcome is a run key's one memo entry. It is in flight while its leader
// executes the run (waiters block on done) and memoized once it holds the
// run's result or its error. A cancelled leader removes its entry, and a
// seed replaces an entry still in flight.
type outcome struct {
	done chan struct{} // closed by the leader; nil on seeded entries
	res  *sim.Result
	err  error
	// spec is set on seeded failures only: Failures wraps a seeded error
	// that is not a *RunError with it.
	spec RunSpec
}

func (e *outcome) memoized() bool { return e.res != nil || e.err != nil }

// Failures returns every memoized run failure, sorted by spec key.
func (h *Harness) Failures() []*RunError {
	h.mu.Lock()
	var keys []string
	for k, e := range h.runs {
		if e.err != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*RunError, len(keys))
	for i, k := range keys {
		e := h.runs[k]
		if !errors.As(e.err, &out[i]) {
			out[i] = &RunError{Spec: e.spec, Err: e.err}
		}
	}
	h.mu.Unlock()
	return out
}

// Trace returns the (memoized) trace for a workload; unknown names yield a
// *SpecError.
func (h *Harness) Trace(name string, seed int64) (*trace.Slice, error) {
	key := fmt.Sprintf("%s|%d|%d", name, seed, h.Scale.MemRecords)
	h.mu.Lock()
	if t, ok := h.traces[key]; ok {
		h.mu.Unlock()
		return t, nil
	}
	h.mu.Unlock()
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, &SpecError{Field: "Workload", Name: name}
	}
	t := w.Gen(workloads.GenConfig{MemRecords: h.Scale.MemRecords, Seed: 42 + seed})
	h.mu.Lock()
	h.traces[key] = t
	h.mu.Unlock()
	return t, nil
}

// corpusCache lazily opens the on-disk corpus (CorpusDir must be set).
func (h *Harness) corpusCache() (*tracestore.Corpus, error) {
	h.corpusOnce.Do(func() {
		h.corpus, h.corpusErr = tracestore.NewCorpus(h.CorpusDir)
	})
	return h.corpus, h.corpusErr
}

// corpusFile returns the opened v2 container for a workload, generating and
// persisting it on first use. The generation parameters match Trace exactly
// so streamed and in-memory runs see identical record sequences.
func (h *Harness) corpusFile(name string, seed int64) (*tracestore.File, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, &SpecError{Field: "Workload", Name: name}
	}
	c, err := h.corpusCache()
	if err != nil {
		return nil, err
	}
	cfg := workloads.GenConfig{MemRecords: h.Scale.MemRecords, Seed: 42 + seed}
	key := tracestore.Key{Workload: name, Records: cfg.MemRecords, Seed: cfg.Seed}
	return c.Ensure(key, func() *trace.Slice { return w.Gen(cfg) })
}

// MustTrace is Trace for workload names known to be registered (tests,
// benchmarks); it panics on lookup failure.
func (h *Harness) MustTrace(name string, seed int64) *trace.Slice {
	t, err := h.Trace(name, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// factory resolves the prefetcher a spec field names ("" disables the
// level; "oracle" is wired in newMachine, which has the trace). A Berti
// override replaces the registry config and is validated first.
func factory(field, name string, override *core.Config) (sim.PrefetcherFactory, error) {
	if name == "" || name == "oracle" {
		return nil, nil
	}
	if name == "berti" && override != nil {
		if err := override.Validate(); err != nil {
			return nil, &SpecError{Field: "BertiOverride", Name: name, Err: err}
		}
		cfg := *override
		return func() cache.Prefetcher { return core.New(cfg) }, nil
	}
	e, ok := prefetch.ByName(name)
	if !ok {
		return nil, &SpecError{Field: field, Name: name}
	}
	return func() cache.Prefetcher { return e.New() }, nil
}

// ValidateSpec resolves every registry name and override in spec without
// executing anything — the campaign server's admission check. A rejected
// spec yields the same typed *SpecError, naming the offending spec field,
// that the run itself would fail with, so API clients get an addressable
// error.
func ValidateSpec(spec RunSpec) error {
	if err := checkSource(spec); err != nil {
		return err
	}
	if spec.TraceFile != "" {
		return &SpecError{Field: "TraceFile", Name: spec.TraceFile,
			Err: errors.New("the campaign daemon runs generated workloads only: its workers cannot fetch trace files")}
	}
	names := spec.Mix
	if len(names) == 0 {
		names = []string{spec.Workload}
	}
	for _, w := range names {
		if _, ok := workloads.ByName(w); !ok {
			return &SpecError{Field: "Workload", Name: w}
		}
	}
	if _, err := factory("L1DPf", spec.L1DPf, spec.BertiOverride); err != nil {
		return err
	}
	if _, err := factory("L2Pf", spec.L2Pf, nil); err != nil {
		return err
	}
	if _, err := dramConfig(spec.DRAMCfg); err != nil {
		return err
	}
	return nil
}

// checkSource refuses specs whose trace source is contradictory: a trace
// file alongside a workload or mix, a trace file under the oracle (which
// reads a generated trace's future), or a skip without a trace file.
func checkSource(spec RunSpec) error {
	if spec.TraceFile == "" {
		if spec.Skip > 0 {
			return &SpecError{Field: "Skip", Name: fmt.Sprint(spec.Skip),
				Err: errors.New("only a trace file can be skipped into (generated workloads start at instruction 0)")}
		}
		return nil
	}
	if spec.Workload != "" || len(spec.Mix) > 0 {
		return &SpecError{Field: "TraceFile", Name: spec.TraceFile,
			Err: errors.New("a trace-file spec names no Workload or Mix")}
	}
	if spec.L1DPf == "oracle" {
		return &SpecError{Field: "L1DPf", Name: spec.L1DPf,
			Err: errors.New("the oracle needs a generated trace, not a trace file")}
	}
	return nil
}

// openTraceFile opens a trace-file spec's container and checks its skip
// against the trace length. Under a trace fault plan it opens a damaged
// private copy of the bytes instead; the format's structure checks and
// checksums locate the damage as a *tracestore.FormatError.
func openTraceFile(spec RunSpec, fp *fault.Plan) (*tracestore.File, error) {
	var f *tracestore.File
	var err error
	if fp != nil && fp.TraceFault() {
		var data []byte
		if data, err = os.ReadFile(spec.TraceFile); err == nil {
			f, err = tracestore.OpenBytes(fp.MutateTrace(data, tracestore.HeadMagicLen))
		}
	} else {
		f, err = tracestore.Open(spec.TraceFile)
	}
	if err != nil {
		return nil, err
	}
	if n := f.Meta().Instructions; spec.Skip > 0 && spec.Skip >= n {
		f.Close()
		return nil, &SpecError{Field: "Skip", Name: fmt.Sprint(spec.Skip),
			Err: fmt.Errorf("at or past the end of the trace's %d instructions", n)}
	}
	return f, nil
}

func dramConfig(name string) (dram.Config, error) {
	switch name {
	case "", "ddr5-6400":
		return dram.ConfigDDR5_6400(), nil
	case "ddr4-3200":
		return dram.ConfigDDR4_3200(), nil
	case "ddr3-1600":
		return dram.ConfigDDR3_1600(), nil
	default:
		return dram.Config{}, &SpecError{Field: "DRAMCfg", Name: name}
	}
}

func (h *Harness) acquire() func() {
	h.semOnce.Do(func() {
		n := h.Workers
		if n < 1 {
			n = 1
		}
		h.sem = make(chan struct{}, n)
	})
	h.sem <- struct{}{}
	return func() { <-h.sem }
}

// RunContext executes (or returns the memoized result of) one simulation.
// Both outcomes are memoized: a failing spec returns the same error
// without re-running, and Failures lists it (a panic comes back as a
// *PanicError). Once ctx is done the in-flight simulation stops at the
// engine's next poll stride and the call returns an error chain holding
// a *sim.CancelError. Cancelled runs are not memoized — a
// resumed campaign re-executes them.
//
// Identical specs are single-flight: when a spec's key is already
// executing, further callers wait for that execution and share its
// memoized outcome instead of running a duplicate simulation, so a spec
// submitted concurrently by many clients executes exactly once and fires
// OnResult exactly once. A waiter whose leader was cancelled (nothing
// memoized) takes over as the new leader.
func (h *Harness) RunContext(ctx context.Context, spec RunSpec) (*sim.Result, error) {
	key := spec.key()
	for {
		h.mu.Lock()
		e, ok := h.runs[key]
		if !ok {
			e = &outcome{done: make(chan struct{})}
			h.runs[key] = e
			h.mu.Unlock()
			return h.lead(ctx, spec, key, e)
		}
		if e.memoized() {
			h.mu.Unlock()
			return e.res, e.err
		}
		h.mu.Unlock()
		select {
		case <-e.done:
			// The leader finished, was cancelled, or a seed replaced it;
			// loop to re-read the memo — or take over the lead if nothing
			// was memoized.
		case <-ctx.Done():
			return nil, &sim.CancelError{Cause: ctx.Err()}
		}
	}
}

// lead executes spec as the single in-flight owner of key's entry e: it
// runs the simulation, memoizes the outcome in e (or removes e if the run
// was cancelled), wakes every waiter, and fires OnResult for a fresh
// memoized success. A seed that replaced e meanwhile stays the memo.
func (h *Harness) lead(ctx context.Context, spec RunSpec, key string, e *outcome) (*sim.Result, error) {
	release := h.acquire()
	defer release()

	r, err := h.runProtected(ctx, spec, h.RunOptions())
	if err != nil {
		r = nil
	}
	h.mu.Lock()
	kept := false
	if h.runs[key] == e { // else a seed replaced e and stays the memo
		if sim.IsCancel(err) {
			delete(h.runs, key) // nothing memoized: a waiter takes over
		} else {
			e.res, e.err, kept = r, err, true
		}
	}
	close(e.done)
	h.mu.Unlock()
	if kept && err == nil && h.OnResult != nil {
		h.OnResult(key, spec, r)
	}
	return r, err
}

// seed memoizes e for key unless key is already memoized. An entry still
// in flight is replaced: its leader closes its own done channel and leaves
// the seed in place.
func (h *Harness) seed(key string, e *outcome) {
	h.mu.Lock()
	if old, ok := h.runs[key]; !ok || !old.memoized() {
		h.runs[key] = e
	}
	h.mu.Unlock()
}

// SeedResult pre-loads the memo cache with a completed result (the resume
// path: journal entries become memo hits, so a re-invoked campaign skips
// finished work). It does nothing when key is already memoized. Seeded
// results do not fire OnResult; a caller landing results computed
// elsewhere fires it itself.
func (h *Harness) SeedResult(key string, r *sim.Result) {
	if r == nil {
		return
	}
	h.seed(key, &outcome{res: r})
}

// SeedFailure memoizes a failure computed elsewhere (a campaign daemon's
// report, a worker's push) as spec's outcome, so RunContext returns err
// without running spec and Failures lists it. It does nothing when the key
// is already memoized. err is kept as given: FailureFor returns the same
// error, with the same text.
func (h *Harness) SeedFailure(spec RunSpec, err error) {
	if err == nil {
		return
	}
	h.seed(spec.key(), &outcome{err: err, spec: spec})
}

// ResultFor returns the memoized result for one run key — the lookup
// behind rendering and the campaign server, which must not copy the whole
// result map per call.
func (h *Harness) ResultFor(key string) (*sim.Result, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.runs[key]; ok && e.res != nil {
		return e.res, true
	}
	return nil, false
}

// FailureFor returns the memoized failure for one run key, or nil.
func (h *Harness) FailureFor(key string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.runs[key]; ok {
		return e.err
	}
	return nil
}

// Results returns a snapshot of every memoized completed run, keyed by
// RunSpec.Key (the campaign report's source of truth).
func (h *Harness) Results() map[string]*sim.Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]*sim.Result, len(h.runs))
	for k, e := range h.runs {
		if e.res != nil {
			out[k] = e.res
		}
	}
	return out
}

// placeholderResult stands in for a failed run: correct core count, zero
// statistics (ratios over it degrade to 0, not to a nil dereference).
func placeholderResult(spec RunSpec) *sim.Result {
	n := 1
	if len(spec.Mix) > 0 {
		n = len(spec.Mix)
	}
	cfg := sim.DefaultConfig()
	cfg.Cores = n
	return &sim.Result{Config: cfg, Cores: make([]sim.CoreResult, n)}
}

// runProtected executes one run once, with panic recovery and the
// wall-clock deadline. The engine is deterministic, so a failed run is not
// re-executed: a failure comes back as a *RunError (a panic as one wrapping
// a *PanicError) and a cancellation comes back as it is.
func (h *Harness) runProtected(ctx context.Context, spec RunSpec, opts sim.Options) (*sim.Result, error) {
	res, err := protect(func() (*sim.Result, error) { return h.run(ctx, spec, opts) })
	if err == nil || sim.IsCancel(err) {
		// A cancellation is not a failure: RunContext skips memoization.
		return res, err
	}
	// Checked runs keep their partial result next to the violation error
	// so callers can inspect what the damaged run produced.
	return res, &RunError{Spec: spec, Err: err}
}

// protect runs f, converting a panic into a *PanicError with the goroutine
// stack attached.
func protect(f func() (*sim.Result, error)) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := make([]byte, 16*1024)
			stack = stack[:runtime.Stack(stack, false)]
			res, err = nil, &PanicError{Value: r, Stack: stack}
		}
	}()
	return f()
}

// run builds and executes the machine for one spec (unprotected).
func (h *Harness) run(ctx context.Context, spec RunSpec, opts sim.Options) (*sim.Result, error) {
	if ctx != nil && ctx.Err() != nil {
		// Already cancelled: skip the (potentially expensive) trace
		// generation and machine build entirely. Memo hits were served
		// before we got here, so a draining pool still returns finished
		// work but starts nothing new.
		return nil, &sim.CancelError{Cause: ctx.Err()}
	}
	m, cleanup, err := h.newMachine(spec, opts.Fault)
	if err != nil {
		return nil, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	m.SetScheduler(h.Scheduler)
	if ctx != nil && ctx != context.Background() {
		m.SetContext(ctx)
	}
	m.Attach(opts)
	timeout := h.RunTimeout
	if timeout == 0 {
		timeout = DefaultRunTimeout
	}
	if timeout > 0 {
		m.SetDeadline(timeout)
	}
	return m.Run()
}

// RunOptions returns the hooks a memoized run gets: a fresh invariant
// checker under EnableChecks and a fresh provenance tracker under
// EnableProvenance.
func (h *Harness) RunOptions() sim.Options {
	var opts sim.Options
	if h.EnableChecks {
		opts.Checker = check.New()
	}
	if h.EnableProvenance {
		opts.Provenance = provenance.NewTracker(h.ProvenanceCap)
	}
	return opts
}

// RunWithContext executes one unmemoized simulation with the given hooks
// (observability, invariant checking, fault injection, provenance).
// Unmemoized runs bypass the memo cache in both directions: a time series
// or event trace belongs to a single execution, and the result must
// reflect the run that produced it. Failures get the same protection as
// RunContext: panic recovery and the deadline. They are returned
// to the caller only; Failures does not list them, and OnResult does not
// fire. A caller that lands the outcome somewhere first (the campaign
// daemon stores it, then seeds it) runs with RunOptions' hooks and seeds
// the memo itself.
func (h *Harness) RunWithContext(ctx context.Context, spec RunSpec, opts sim.Options) (*sim.Result, error) {
	release := h.acquire()
	defer release()
	return h.runProtected(ctx, spec, opts)
}

// newMachine builds the fully-wired machine for one spec (traces are still
// memoized; the machine itself is fresh). A trace-file spec streams its
// container from the Skip window on. With CorpusDir set, each core of a
// generated workload streams its trace from the on-disk v2 container; the
// returned cleanup releases the streaming readers and file handles after
// the run. Oracle prefetchers (which read the trace's future) and
// trace-level fault plans on generated workloads (which damage a private
// encoded copy, surfacing the damage as *tracestore.FormatError) keep the
// in-memory path.
func (h *Harness) newMachine(spec RunSpec, fp *fault.Plan) (*sim.Machine, func(), error) {
	if err := checkSource(spec); err != nil {
		return nil, nil, err
	}
	cfg := sim.DefaultConfig()
	var err error
	cfg.DRAM, err = dramConfig(spec.DRAMCfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.WarmupInstructions = h.Scale.WarmupInstr
	cfg.SimInstructions = h.Scale.SimInstr

	traceFault := fp != nil && fp.TraceFault()
	stream := spec.TraceFile != "" || (h.CorpusDir != "" && spec.L1DPf != "oracle" && !traceFault)
	var closers []func()
	cleanup := func() {
		for _, c := range closers {
			c()
		}
	}
	fail := func(err error) (*sim.Machine, func(), error) {
		cleanup()
		return nil, nil, err
	}

	var traces []*trace.Slice
	makeReader := func(w string, seed int64) (trace.Reader, error) {
		if stream {
			var f *tracestore.File
			var err error
			if spec.TraceFile != "" {
				f, err = openTraceFile(spec, fp)
			} else {
				f, err = h.corpusFile(w, seed)
			}
			if err != nil {
				return nil, err
			}
			rd, err := f.NewWindowReader(spec.Skip, tracestore.ReaderOptions{Loop: true})
			if err != nil {
				f.Close()
				return nil, err
			}
			closers = append(closers, func() { rd.Close(); f.Close() })
			return rd, nil
		}
		tr, err := h.Trace(w, seed)
		if err == nil && traceFault {
			tr, err = damageTrace(tr, fp)
		}
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
		return trace.NewLoopReader(tr), nil
	}

	names := spec.Mix
	if len(names) == 0 {
		names = []string{spec.Workload}
	}
	cfg.Cores = len(names)
	readers := make([]trace.Reader, len(names))
	for i, w := range names {
		if readers[i], err = makeReader(w, spec.Seed+int64(i)); err != nil {
			return fail(err)
		}
	}
	l1Factory, err := factory("L1DPf", spec.L1DPf, spec.BertiOverride)
	if err != nil {
		return fail(err)
	}
	if spec.L1DPf == "oracle" {
		// The ideal L1D prefetcher reads the trace's future; each core
		// gets an oracle over its own trace.
		next := 0
		l1Factory = func() cache.Prefetcher {
			tr := traces[next%len(traces)]
			next++
			return oracle.New(tr, 24)
		}
	}
	l2Factory, err := factory("L2Pf", spec.L2Pf, nil)
	if err != nil {
		return fail(err)
	}
	m, err := sim.New(cfg, readers, l1Factory, l2Factory)
	if err != nil {
		return fail(err)
	}
	return m, cleanup, nil
}

// damageTrace round-trips tr through a v2 container with the fault plan
// applied to the encoded bytes. The container's structure checks and
// checksums turn the damage into a *tracestore.FormatError locating it.
func damageTrace(tr *trace.Slice, fp *fault.Plan) (*trace.Slice, error) {
	var buf bytes.Buffer
	if err := tracestore.Write(&buf, tr, tracestore.Meta{}); err != nil {
		return nil, err
	}
	f, err := tracestore.OpenBytes(fp.MutateTrace(buf.Bytes(), tracestore.HeadMagicLen))
	if err != nil {
		return nil, err
	}
	return f.ReadAll()
}

// RunManyContext executes specs on a bounded worker pool (h.Workers
// goroutines, not one per spec) and returns results in spec order
// regardless of completion order. Each worker goes through the panic-safe
// RunContext path, so one crashing simulation cannot take down its
// siblings: a failing run leaves a nil slot and its failure is memoized
// (read it with FailureFor or Failures) while the other runs' results are
// still returned. The error is nil once every spec ran, failures included.
//
// When ctx fires, in-flight simulations stop at the engine's next poll
// stride, not-yet-started specs are skipped without executing a cycle, and
// the pool drains cleanly (every worker exits; no goroutine outlives the
// call). Results completed before the cancellation keep their slots;
// cancelled slots are nil, nothing is memoized for them, and the call
// returns a *sim.CancelError wrapping ctx.Err().
func (h *Harness) RunManyContext(ctx context.Context, specs []RunSpec) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(specs))
	var cancelled atomic.Bool
	workers := h.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var err error
				if out[i], err = h.RunContext(ctx, specs[i]); sim.IsCancel(err) {
					cancelled.Store(true)
				}
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if cancelled.Load() {
		return out, &sim.CancelError{Cause: ctx.Err()}
	}
	return out, nil
}

// MemIntSuite returns the memory-intensive workloads of a suite ("spec",
// "gap") or of both when suite is "all".
func MemIntSuite(suite string) []string {
	var out []string
	for _, w := range workloads.All() {
		if !w.MemIntensive {
			continue
		}
		if suite == "all" && (w.Suite == "spec" || w.Suite == "gap") {
			out = append(out, w.Name)
		} else if w.Suite == suite {
			out = append(out, w.Name)
		}
	}
	return out
}

// CloudSuiteNames returns the CloudSuite-like workloads.
func CloudSuiteNames() []string {
	var out []string
	for _, w := range workloads.All() {
		if w.Suite == "cloud" {
			out = append(out, w.Name)
		}
	}
	return out
}

// SpeedupOver computes r's IPC over base's IPC (single core).
func SpeedupOver(r, base *sim.Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return r.IPC() / base.IPC()
}
