package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
)

// cancelSpecs builds a batch of distinct specs large enough that a
// cancellation fired after the first completion always catches stragglers.
func cancelSpecs() []RunSpec {
	names := MemIntSuite("spec")
	if len(names) > 4 {
		names = names[:4]
	}
	var specs []RunSpec
	for _, n := range names {
		for _, pf := range []string{"", "next-line"} {
			specs = append(specs, RunSpec{Workload: n, L1DPf: pf})
		}
	}
	return specs
}

// TestRunManyCancelMidPool cancels a RunManyContext batch after the first result
// completes: the pool must drain without leaking goroutines, the batch
// returns the typed *CancelError, completed slots keep their results, and
// nothing cancelled is memoized or recorded as a failure.
func TestRunManyCancelMidPool(t *testing.T) {
	h := New(tinyScale)
	h.Workers = 2
	specs := cancelSpecs()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	h.OnResult = func(string, RunSpec, *sim.Result) { once.Do(cancel) }

	before := runtime.NumGoroutine()
	out, err := h.RunManyContext(ctx, specs)

	// The pool must drain: every worker goroutine exits once the call
	// returns (allow the runtime a moment to reap them).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("worker pool leaked goroutines: %d before, %d after drain", before, n)
	}

	var ce *sim.CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch must return *sim.CancelError carrying context.Canceled, got %v", err)
	}

	// Cancellations are not failures and are not memoized: the cancelled
	// specs are exactly the nil slots, the harness has recorded nothing,
	// and re-running a cancelled spec executes it.
	var cancelled []RunSpec
	for i, r := range out {
		if r == nil {
			cancelled = append(cancelled, specs[i])
		} else if _, ok := h.ResultFor(specs[i].Key()); !ok {
			t.Fatalf("completed slot %d is not memoized", i)
		}
	}
	if len(cancelled) == 0 {
		t.Fatal("cancellation after the first completion must leave cancelled runs")
	}
	if len(cancelled) == len(specs) {
		t.Fatal("the run that triggered the cancel must keep its slot")
	}
	for _, spec := range cancelled {
		if err := h.FailureFor(spec.Key()); err != nil {
			t.Fatalf("cancelled spec %s memoized a failure: %v", spec.Key(), err)
		}
	}
	if got := h.Failures(); len(got) != 0 {
		t.Fatalf("cancelled runs must not be recorded as harness failures: %v", got)
	}
	h.OnResult = nil
	respec := cancelled[0]
	r, err := h.RunContext(context.Background(), respec)
	if err != nil || r == nil {
		t.Fatalf("cancelled spec must be re-runnable after cancellation: %v", err)
	}
}

// TestRunContextPreCancelled: an already-cancelled context short-circuits
// before a single cycle (or trace generation) happens, with the typed
// error, and leaves no memoized or recorded state behind.
func TestRunContextPreCancelled(t *testing.T) {
	h := New(tinyScale)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := RunSpec{Workload: "roms_like", L1DPf: "next-line"}

	start := time.Now()
	r, err := h.RunContext(ctx, spec)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled run should return immediately, took %v", elapsed)
	}
	if r != nil {
		t.Fatal("cancelled run must not return a result")
	}
	var ce *sim.CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want *sim.CancelError wrapping context.Canceled, got %v", err)
	}
	if len(h.Failures()) != 0 {
		t.Fatalf("cancellation must not be recorded as a failure: %v", h.Failures())
	}
	if len(h.Results()) != 0 {
		t.Fatal("cancellation must not be memoized")
	}

	// The same spec runs normally once the pressure is off.
	if _, err := h.RunContext(context.Background(), spec); err != nil {
		t.Fatalf("spec must run cleanly after a cancelled attempt: %v", err)
	}
}

// TestExperimentStopsOnCancelledContext: the batch driver (Plan, then one
// RunManyContext) started under a cancelled context executes no spec,
// fires no OnResult, and records no failure — how Ctrl-C stops a campaign.
func TestExperimentStopsOnCancelledContext(t *testing.T) {
	h := New(tinyScale)
	var fired atomic.Int64
	h.OnResult = func(string, RunSpec, *sim.Result) { fired.Add(1) }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := Plan(h.Scale, Experiments())
	_, err := h.RunManyContext(ctx, specs)
	var ce *sim.CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled batch must return *sim.CancelError, got %v", err)
	}
	if n := len(h.Results()); n != 0 {
		t.Fatalf("cancelled batch executed %d spec(s)", n)
	}
	if n := fired.Load(); n != 0 {
		t.Fatalf("OnResult fired %d time(s) under a cancelled context", n)
	}
	if f := h.Failures(); len(f) != 0 {
		t.Fatalf("cancellation must not be recorded as a failure: %v", f)
	}
}

// pollCancelCtx is a context that reports itself done from its (n+1)-th
// Done call on. The engine polls Done from its own goroutine once before the
// first cycle and then every deadlineStride cycles, so cancelling at a poll
// count rather than after a wall-clock sleep lands mid-run on any machine,
// however fast the run.
type pollCancelCtx struct {
	context.Context
	n, polls int
	done     chan struct{}
}

func newPollCancelCtx(n int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls == c.n+1 {
		close(c.done)
	}
	return c.done
}

func (c *pollCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestMachineCancelMidRun drives the engine directly with a context that
// fires mid-simulation: the run must stop at a poll stride with the typed
// error carrying an engine snapshot.
func TestMachineCancelMidRun(t *testing.T) {
	h := New(tinyScale)
	tr := h.MustTrace("roms_like", 0)
	cfg := sim.DefaultConfig()
	cfg.WarmupInstructions = tinyScale.WarmupInstr
	cfg.SimInstructions = tinyScale.SimInstr

	// Let the pre-run check and two in-run polls pass; the third in-run
	// poll sees the context done.
	ctx := newPollCancelCtx(3)
	m, err := sim.New(cfg, []trace.Reader{trace.NewLoopReader(tr)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetContext(ctx)
	_, err = m.Run()
	if err == nil {
		t.Fatalf("run finished after %d context polls; the cancel never landed", ctx.polls)
	}
	var ce *sim.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want *sim.CancelError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error must carry context.Canceled, got %v", err)
	}
	if ce.Snapshot.Cycle == 0 {
		t.Error("cancel snapshot should capture a mid-run engine state")
	}
	if ctx.polls != 4 {
		t.Errorf("run stopped after %d context polls, want 4 (the first done poll)", ctx.polls)
	}
}
