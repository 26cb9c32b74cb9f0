package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
			if !errors.As(err, &re) {
				t.Fatalf("trace damage must fail as a *RunError: %v", err)
			}
			// The pristine memoized trace must be untouched by the damage.
			if _, err := h.RunContext(context.Background(), faultSpec); err != nil {
				t.Fatalf("fault-free rerun after trace fault: %v", err)
			}
		})
	}
}

// TestDamagedCorpusChunkFailsEveryRun: a corpus entry whose first chunk
// payload is damaged behind an intact footer still opens, so Ensure keeps
// it. Every run over it fails with the chunk's *tracestore.FormatError,
// leaves the file as it was, and a fresh harness fails the same way: the
// entry is only regenerated once it is deleted.
func TestDamagedCorpusChunkFailsEveryRun(t *testing.T) {
	dir := t.TempDir()
	h := New(faultScale)
	h.CorpusDir = dir
	if _, err := h.RunContext(context.Background(), faultSpec); err != nil {
		t.Fatalf("populating run: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.btr2"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one corpus entry, got %v (%v)", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := tracestore.HeadMagicLen + 16; i < tracestore.HeadMagicLen+48; i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(paths[0], data, 0o600); err != nil {
		t.Fatal(err)
	}

	var first string
	for run := 0; run < 2; run++ {
		h := New(faultScale)
		h.CorpusDir = dir
		_, err := h.RunContext(context.Background(), faultSpec)
		var re *RunError
		var fe *tracestore.FormatError
		if !errors.As(err, &re) || !errors.As(err, &fe) || fe.Section != "chunk" || fe.Chunk != 0 {
			t.Fatalf("run %d: want a *RunError holding chunk 0's *tracestore.FormatError, got %v", run, err)
		}
		if got, err := os.ReadFile(paths[0]); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("run %d: the damaged entry must be left as it was (%v)", run, err)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("a fresh harness failed differently:\n%s\n%s", err, first)
		}
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
// be memoized as the harness's one failure while the sibling runs complete;
// the batch itself ran every spec, so it returns no error.
func TestRunManyPartialResults(t *testing.T) {
	h := New(faultScale)
	specs := []RunSpec{
		{Workload: "roms_like"},
		{Workload: "no-such-workload"},
		{Workload: "roms_like", L1DPf: "next-line"},
	}
	out, err := h.RunManyContext(context.Background(), specs)
	if err != nil {
		t.Fatalf("a batch that ran every spec must return nil, got %v", err)
	}
	if out[0] == nil || out[1] != nil || out[2] == nil {
		t.Fatalf("result slots wrong: %v", out)
	}
	fails := h.Failures()
	if len(fails) != 1 {
		t.Fatalf("harness must record exactly the one failure, got %v", fails)
	}
	var se *SpecError
	if !errors.As(fails[0], &se) || se.Name != "no-such-workload" {
		t.Fatalf("failure must identify the bad spec: %v", fails[0])
	}
	// Renderers read a placeholder for the failed slot.
	safe := h.Runs(context.Background()).All(specs)
	if safe[1] == nil || safe[1].IPC() != 0 {
		t.Fatal("Runs.All must substitute a zero-stats placeholder")
	}
}

// TestPanicBecomesError: a panic inside a run must come back as a
// *PanicError with the stack attached.
func TestPanicBecomesError(t *testing.T) {
	_, err := protect(func() (*sim.Result, error) { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *PanicError, got %v", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack not captured: %+v", pe)
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
