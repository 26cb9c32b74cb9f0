package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/tracestore"
)

// faultScale is even smaller than tinyScale: fault runs are repeated per
// kind and some (delay-fill) inflate the cycle count.
var faultScale = Scale{Name: "fault", MemRecords: 20_000, WarmupInstr: 10_000, SimInstr: 30_000, Mixes: 2}

// faultSpec is the workload every injection campaign runs: Berti at L1D so
// prefetch fills exist for drop-fill to swallow.
var faultSpec = RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"}

// TestTraceFaultsYieldFormatError: corrupt-record and truncate damage the
// encoded v2 container bytes, so the run must fail before simulation with a
// *tracestore.FormatError locating the damage.
func TestTraceFaultsYieldFormatError(t *testing.T) {
	for _, kind := range []fault.Kind{fault.CorruptRecord, fault.TruncateTrace} {
		t.Run(string(kind), func(t *testing.T) {
			h := New(faultScale)
			plan := &fault.Plan{Kind: kind, Seed: 11, Rate: 0.05}
			_, err := h.RunWithContext(context.Background(), faultSpec, sim.Options{Checker: check.New(), Fault: plan})
			if err == nil {
				t.Fatal("damaged trace must fail the run")
			}
			var fe *tracestore.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("expected a *tracestore.FormatError in the chain, got %v", err)
			}
			if fe.Offset <= 0 {
				t.Fatalf("format error must locate the damage, offset=%d", fe.Offset)
			}
			var re *RunError
			if !errors.As(err, &re) || re.Attempts != 1 {
				t.Fatalf("seeded trace damage must not be retried: %v", err)
			}
			// The pristine memoized trace must be untouched by the damage.
			if _, err := h.RunContext(context.Background(), faultSpec); err != nil {
				t.Fatalf("fault-free rerun after trace fault: %v", err)
			}
		})
	}
}

// TestFillFaultsTripMSHRStuck: dropped prefetch fills leak MSHR entries and
// grossly delayed fills age past the stuck threshold; both must surface as
// mshr-stuck violations from the periodic sweep.
func TestFillFaultsTripMSHRStuck(t *testing.T) {
	for _, plan := range []*fault.Plan{
		{Kind: fault.DropFill, Seed: 3, Rate: 1, After: 50},
		{Kind: fault.DelayFill, Seed: 3, Rate: 0.02, After: 50, Param: 20_000},
	} {
		t.Run(string(plan.Kind), func(t *testing.T) {
			h := New(faultScale)
			ck := check.New()
			_, err := h.RunWithContext(context.Background(), faultSpec, sim.Options{
				Checker: ck, CheckInterval: 500, MSHRStuckAfter: 2_000,
				Watchdog: 50_000, Fault: plan,
			})
			if err == nil {
				t.Fatalf("%s must fail the checked run", plan.Kind)
			}
			// A total deadlock (demand merged into a leaked prefetch MSHR)
			// ends in the stall watchdog; a surviving run ends with the
			// checker's violations. Either way the sweep must have flagged
			// the stuck entries.
			var ve *check.ViolationError
			var se *sim.StallError
			if !errors.As(err, &ve) && !errors.As(err, &se) {
				t.Fatalf("expected violations or a stall, got %v", err)
			}
			if n := ck.CountByRule(check.RuleMSHRStuck); n == 0 {
				t.Fatalf("no %s violations recorded; got %v", check.RuleMSHRStuck, ck.Violations())
			}
		})
	}
}

// TestStateCorruptionDetected: dup-line must be flagged by the dup-tag scan
// and pq-orphan by the queue-bound check.
func TestStateCorruptionDetected(t *testing.T) {
	for _, tc := range []struct {
		plan *fault.Plan
		rule string
	}{
		{&fault.Plan{Kind: fault.DupLine, Seed: 5, After: 2_000}, check.RuleDupTag},
		{&fault.Plan{Kind: fault.PQOrphan, Seed: 5, After: 2_000, Param: 3}, check.RuleQueueBound},
	} {
		t.Run(string(tc.plan.Kind), func(t *testing.T) {
			h := New(faultScale)
			ck := check.New()
			_, err := h.RunWithContext(context.Background(), faultSpec, sim.Options{
				Checker: ck, CheckInterval: 500, Fault: tc.plan,
			})
			if err == nil {
				t.Fatalf("%s must fail the checked run", tc.plan.Kind)
			}
			if n := ck.CountByRule(tc.rule); n == 0 {
				t.Fatalf("no %s violations recorded; got %v", tc.rule, ck.Violations())
			}
		})
	}
}

// TestFaultDetectionDeterministic: the same plan over the same spec must
// record the same violation counts on every execution.
func TestFaultDetectionDeterministic(t *testing.T) {
	plan := &fault.Plan{Kind: fault.DropFill, Seed: 9, Rate: 1, After: 50}
	counts := func() int {
		h := New(faultScale)
		ck := check.New()
		_, err := h.RunWithContext(context.Background(), faultSpec, sim.Options{
			Checker: ck, CheckInterval: 500, MSHRStuckAfter: 2_000,
			Watchdog: 50_000, Fault: plan,
		})
		if err == nil {
			t.Fatal("injection must be detected")
		}
		return ck.Total()
	}
	a, b := counts(), counts()
	if a != b || a == 0 {
		t.Fatalf("violation totals differ across identical runs: %d != %d", a, b)
	}
}

// TestCheckedRunMatchesUnchecked: the checker is an observer; with no
// faults injected a checked run must produce an identical result.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	h := New(faultScale)
	plain, err := h.RunContext(context.Background(), faultSpec)
	if err != nil {
		t.Fatalf("unchecked run: %v", err)
	}
	checked, err := h.RunWithContext(context.Background(), faultSpec, sim.Options{Checker: check.New(), CheckInterval: 500})
	if err != nil {
		t.Fatalf("checked run reported violations on a healthy machine: %v", err)
	}
	if !reflect.DeepEqual(plain, checked) {
		t.Fatalf("checking changed the simulation:\nunchecked: %+v\nchecked:   %+v", plain, checked)
	}
}

// TestRunManyPartialResults: one failing spec must leave its slot nil and
// surface in the *RunFailures report while the sibling runs complete.
func TestRunManyPartialResults(t *testing.T) {
	h := New(faultScale)
	specs := []RunSpec{
		{Workload: "roms_like"},
		{Workload: "no-such-workload"},
		{Workload: "roms_like", L1DPf: "next-line"},
	}
	out, err := h.RunManyContext(context.Background(), specs)
	if err == nil {
		t.Fatal("RunManyContext must report the failed spec")
	}
	var rf *RunFailures
	if !errors.As(err, &rf) {
		t.Fatalf("expected *RunFailures, got %v", err)
	}
	if rf.Completed != 2 || len(rf.Failed) != 1 {
		t.Fatalf("expected 2 completed + 1 failed, got %d + %d", rf.Completed, len(rf.Failed))
	}
	if out[0] == nil || out[1] != nil || out[2] == nil {
		t.Fatalf("result slots wrong: %v", out)
	}
	var se *SpecError
	if !errors.As(rf.Failed[0], &se) || se.Name != "no-such-workload" {
		t.Fatalf("failure must identify the bad spec: %v", rf.Failed[0])
	}
	if len(h.Failures()) != 1 {
		t.Fatalf("harness must record exactly the one failure, got %v", h.Failures())
	}
	// Renderers read a placeholder for the failed slot.
	safe := h.Runs(context.Background()).All(specs)
	if safe[1] == nil || safe[1].IPC() != 0 {
		t.Fatal("Runs.All must substitute a zero-stats placeholder")
	}
}

// TestPanicBecomesError: a panic inside a run must come back as a
// *PanicError with the stack attached, and count as retryable.
func TestPanicBecomesError(t *testing.T) {
	_, err := protect(func() (*sim.Result, error) { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *PanicError, got %v", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack not captured: %+v", pe)
	}
	if !transient(err, 1) {
		t.Fatal("panics must be retryable on first occurrence (possibly environmental)")
	}
	if transient(err, 2) {
		t.Fatal("a second panic is a crash loop and must not be retried again")
	}
	if transient(&SpecError{Field: "Workload", Name: "x"}, 1) {
		t.Fatal("spec errors are deterministic and must not be retried")
	}
	if !transient(&sim.DeadlineError{}, 1) {
		t.Fatal("deadline overruns must be retryable")
	}
}

// TestRetryClassification pins the transient/deterministic split the retry
// policy enforces: corpus I/O retries, everything reproducible does not.
func TestRetryClassification(t *testing.T) {
	transientErrs := []error{
		&os.PathError{Op: "open", Path: "corpus/x.btr2", Err: errors.New("I/O error")},
		os.NewSyscallError("read", errors.New("EIO")),
		&tracestore.FormatError{Section: "chunk", Err: errors.New("crc mismatch")},
		fmt.Errorf("reading chunk: %w", io.ErrUnexpectedEOF),
		&sim.DeadlineError{},
	}
	for _, err := range transientErrs {
		if !transient(err, 1) {
			t.Errorf("%T (%v) must be classified transient", err, err)
		}
	}
	deterministic := []error{
		&sim.ConfigError{Field: "Cores", Reason: "must be >= 1"},
		&check.ViolationError{Total: 1},
		&sim.StallError{},
		&sim.CancelError{Cause: context.Canceled},
		&SpecError{Field: "Workload", Name: "x"},
	}
	for _, err := range deterministic {
		if transient(err, 1) {
			t.Errorf("%T (%v) must never be retried", err, err)
		}
	}
	// Classification sees through the RunError/TraceReadError wrappers: a
	// corpus entry damaged mid-stream is regenerated on the next attempt.
	wrapped := &RunError{Spec: faultSpec, Attempts: 1,
		Err: &sim.TraceReadError{Core: 0, Err: &tracestore.FormatError{Section: "chunk", Offset: 3}}}
	if !transient(wrapped, 1) {
		t.Error("a corpus FormatError must stay retryable through the wrappers")
	}

	// A trace-fault run fails with the same error class, but its damage is
	// seeded and reproduces exactly, so the harness must not retry it.
	h := New(faultScale)
	h.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}
	plan := &fault.Plan{Kind: fault.TruncateTrace, Seed: 11}
	_, err := h.RunWithContext(context.Background(), faultSpec, sim.Options{Fault: plan})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("trace-fault run: want a *RunError, got %v", err)
	}
	if !transient(re.Err, 1) {
		t.Fatalf("trace-fault error %v must be the retryable FormatError class", re.Err)
	}
	if re.Attempts != 1 {
		t.Fatalf("trace-fault run executed %d times, want 1 (seeded damage is not retried)", re.Attempts)
	}
}

// TestRetryBackoffDeterministic: the seeded jitter must make delays a pure
// function of (seed, key, attempt), growing exponentially to the cap.
func TestRetryBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{Seed: 7}
	a := p.delay("k", 1)
	if a != p.delay("k", 1) {
		t.Fatal("identical inputs must give identical delays")
	}
	if p.delay("k", 1) == p.delay("other", 1) {
		t.Fatal("jitter must vary across keys (seed-mixed)")
	}
	if d := p.delay("k", 20); d > DefaultRetryMaxBackoff+DefaultRetryMaxBackoff/2 {
		t.Fatalf("delay must stay within cap+jitter, got %v", d)
	}
	base := RetryPolicy{Seed: 7, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 10 * time.Second}
	if d1, d2 := base.delay("k", 1), base.delay("k", 3); d2 < 2*d1-base.BaseBackoff {
		t.Fatalf("backoff must grow exponentially: attempt1=%v attempt3=%v", d1, d2)
	}
}

// TestRunMemoizesErrors: a failing spec must be executed once and return
// the same error on subsequent calls.
func TestRunMemoizesErrors(t *testing.T) {
	h := New(faultScale)
	bad := RunSpec{Workload: "roms_like", L1DPf: "no-such-prefetcher"}
	_, err1 := h.RunContext(context.Background(), bad)
	_, err2 := h.RunContext(context.Background(), bad)
	if err1 == nil || err1 != err2 {
		t.Fatalf("errors must be memoized: %v vs %v", err1, err2)
	}
	if len(h.Failures()) != 1 {
		t.Fatalf("memoized failures must be recorded once, got %d", len(h.Failures()))
	}
}

// TestBertiOverrideValidated: an invalid sensitivity-study override must be
// rejected as a *SpecError before any machine is built.
func TestBertiOverrideValidated(t *testing.T) {
	h := New(faultScale)
	bad := faultSpec
	cfg := core.DefaultConfig()
	cfg.DeltasPerEntry = 0
	bad.BertiOverride = &cfg
	_, err := h.RunContext(context.Background(), bad)
	var se *SpecError
	if !errors.As(err, &se) || se.Field != "BertiOverride" {
		t.Fatalf("expected BertiOverride *SpecError, got %v", err)
	}
}
