package harness

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/sim"
)

// TestConcurrentDuplicateRunsExecuteOnce: many goroutines submitting the
// same spec concurrently must share a single execution — OnResult (the
// journal/dedup subscription point) fires exactly once and every caller
// gets the same memoized result. This is the in-process half of the
// campaign server's dedup guarantee; run it under -race.
func TestConcurrentDuplicateRunsExecuteOnce(t *testing.T) {
	h := New(tinyScale)
	h.Workers = 4
	var fired atomic.Int64
	h.OnResult = func(string, RunSpec, *sim.Result) { fired.Add(1) }

	spec := RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"}
	const callers = 8
	results := make([]*sim.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = h.RunContext(context.Background(), spec)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d failed: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("caller %d got a nil result", i)
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result object — the spec ran more than once", i)
		}
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("OnResult fired %d times for one spec, want exactly 1", n)
	}
}

// TestRunManyDuplicateSpecsExecuteOnce: a batch that repeats one spec must
// execute it once and fill every slot with the shared result.
func TestRunManyDuplicateSpecsExecuteOnce(t *testing.T) {
	h := New(tinyScale)
	h.Workers = 4
	var fired atomic.Int64
	h.OnResult = func(string, RunSpec, *sim.Result) { fired.Add(1) }

	spec := RunSpec{Workload: "roms_like", L1DPf: "next-line"}
	specs := []RunSpec{spec, spec, spec, spec, spec, spec}
	out, err := h.RunManyContext(context.Background(), specs)
	if err != nil {
		t.Fatalf("RunManyContext: %v", err)
	}
	for i, r := range out {
		if r != out[0] || r == nil {
			t.Fatalf("slot %d does not share the single execution's result", i)
		}
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("OnResult fired %d times for a duplicated spec, want 1", n)
	}
}

// TestSingleFlightWaiterObservesCancel: a waiter with a cancelled context
// must not block on the leader; it returns the typed cancel error.
func TestSingleFlightWaiterObservesCancel(t *testing.T) {
	h := New(tinyScale)
	h.Workers = 2
	spec := RunSpec{Workload: "lbm_like", L1DPf: "bop"}

	started := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, leaderErr = h.RunContext(context.Background(), spec)
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.RunContext(ctx, spec); !sim.IsCancel(err) {
		t.Fatalf("cancelled waiter must get a cancel error, got %v", err)
	}
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader must complete unaffected: %v", leaderErr)
	}
}

// TestValidateSpec: admission-time validation resolves exactly what a run
// would, with the offending field named.
func TestValidateSpec(t *testing.T) {
	valid := []RunSpec{
		{Workload: "mcf_like_1554", L1DPf: "berti"},
		{Workload: "roms_like"},
		{Workload: "bfs-kron", L1DPf: "oracle"},
		{Mix: []string{"mcf_like_1554", "roms_like"}, L1DPf: "ipcp", L2Pf: "bingo"},
		{Workload: "lbm_like", L1DPf: "berti", DRAMCfg: "ddr4-3200"},
	}
	for _, s := range valid {
		if err := ValidateSpec(s); err != nil {
			t.Errorf("ValidateSpec(%+v) = %v, want nil", s, err)
		}
	}

	cases := []struct {
		spec  RunSpec
		field string
	}{
		{RunSpec{}, "Workload"},
		{RunSpec{Workload: "no-such-workload"}, "Workload"},
		{RunSpec{Mix: []string{"mcf_like_1554", "no-such"}}, "Workload"},
		{RunSpec{Workload: "mcf_like_1554", L1DPf: "no-such-pf"}, "L1DPf"},
		{RunSpec{Workload: "mcf_like_1554", L2Pf: "no-such-pf"}, "L2Pf"},
		{RunSpec{Workload: "mcf_like_1554", DRAMCfg: "ddr9"}, "DRAMCfg"},
		{RunSpec{Workload: "mcf_like_1554", L1DPf: "berti", BertiOverride: &core.Config{}}, "BertiOverride"},
		{RunSpec{Workload: "mcf_like_1554", Skip: 1000}, "Skip"},
		{RunSpec{TraceFile: "t.btr2", Workload: "mcf_like_1554"}, "TraceFile"},
		{RunSpec{TraceFile: "t.btr2", Mix: []string{"mcf_like_1554", "roms_like"}}, "TraceFile"},
		{RunSpec{TraceFile: "t.btr2", L1DPf: "oracle"}, "L1DPf"},
		// The daemon's workers cannot fetch files: a well-formed trace-file
		// spec is refused too.
		{RunSpec{TraceFile: "t.btr2", L1DPf: "berti", Skip: 1000}, "TraceFile"},
	}
	for _, c := range cases {
		err := ValidateSpec(c.spec)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("ValidateSpec(%+v) = %v, want *SpecError", c.spec, err)
			continue
		}
		if se.Field != c.field {
			t.Errorf("ValidateSpec(%+v) flagged field %q, want %q", c.spec, se.Field, c.field)
		}
	}
}

// inFlight reports whether key's memo entry is claimed by a running leader.
func inFlight(h *Harness, key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.runs[key]
	return ok && !e.memoized()
}

// TestSeedWhileInFlight: a seed that lands while its key is executing is
// the memo from then on. The leader still finishes (closing its channel
// once), returns its own outcome to its caller, leaves the seed in place,
// and fires no OnResult.
func TestSeedWhileInFlight(t *testing.T) {
	spec := RunSpec{Workload: "roms_like", L1DPf: "next-line"}
	key := spec.Key()
	seededRes := &sim.Result{}
	seededErr := errors.New("daemon: run failed elsewhere")
	seeds := map[string]func(h *Harness){
		"result":  func(h *Harness) { h.SeedResult(key, seededRes) },
		"failure": func(h *Harness) { h.SeedFailure(spec, seededErr) },
	}
	for name, seed := range seeds {
		t.Run(name, func(t *testing.T) {
			h := New(faultScale)
			h.Workers = 1
			var fired atomic.Int64
			h.OnResult = func(string, RunSpec, *sim.Result) { fired.Add(1) }

			// Holding the only worker slot parks the leader in flight.
			release := h.acquire()
			type ran struct {
				r   *sim.Result
				err error
			}
			leader := make(chan ran, 1)
			go func() {
				r, err := h.RunContext(context.Background(), spec)
				leader <- ran{r, err}
			}()
			for !inFlight(h, key) {
				time.Sleep(time.Millisecond)
			}
			seed(h)
			wantRes, wantErr := seededRes, error(nil)
			if name == "failure" {
				wantRes, wantErr = nil, seededErr
			}
			if r, err := h.RunContext(context.Background(), spec); r != wantRes || err != wantErr {
				t.Fatalf("caller after the seed got (%p, %v), want the seed (%p, %v)", r, err, wantRes, wantErr)
			}
			release()
			got := <-leader
			if got.err != nil || got.r == nil || got.r == seededRes {
				t.Fatalf("leader must return its own run's result, got (%p, %v)", got.r, got.err)
			}
			if r, err := h.RunContext(context.Background(), spec); r != wantRes || err != wantErr {
				t.Fatalf("memo after the leader finished is (%p, %v), want the seed", r, err)
			}
			if n := fired.Load(); n != 0 {
				t.Fatalf("OnResult fired %d times for a run whose key was seeded", n)
			}
		})
	}
}

// TestSeedFailureMemoizes: a seeded failure is the key's outcome — the
// spec does not run, FailureFor returns the seeded error as given, and
// Failures lists it next to the run's own failures, in key order. A seed
// never replaces a memoized outcome.
func TestSeedFailureMemoizes(t *testing.T) {
	h := New(faultScale)
	ctx := context.Background()
	pushed := RunSpec{Workload: "roms_like", L1DPf: "next-line"}
	errPushed := errors.New("worker: <exact> text")
	h.SeedFailure(pushed, errPushed)
	if r, err := h.RunContext(ctx, pushed); r != nil || err != errPushed {
		t.Fatalf("seeded failure must be returned without running, got (%v, %v)", r, err)
	}
	if got := h.FailureFor(pushed.Key()); got != errPushed {
		t.Fatalf("FailureFor = %v, want the seeded error", got)
	}

	bad := RunSpec{Workload: "roms_like", L1DPf: "no-such-prefetcher"}
	_, errBad := h.RunContext(ctx, bad)
	if errBad == nil {
		t.Fatal("unknown prefetcher must fail")
	}
	h.SeedFailure(bad, errors.New("late"))
	h.SeedResult(bad.Key(), &sim.Result{})
	if got := h.FailureFor(bad.Key()); got != errBad {
		t.Fatalf("a seed replaced the memoized failure: %v", got)
	}
	if _, ok := h.ResultFor(bad.Key()); ok {
		t.Fatal("a seeded result replaced the memoized failure")
	}
	good := RunSpec{Workload: "roms_like"}
	if _, err := h.RunContext(ctx, good); err != nil {
		t.Fatal(err)
	}
	if h.FailureFor(good.Key()) != nil {
		t.Fatal("a completed run has no failure")
	}

	fails := h.Failures()
	if len(fails) != 2 {
		t.Fatalf("Failures = %v, want the seeded and the run failure", fails)
	}
	if !sort.SliceIsSorted(fails, func(i, j int) bool { return fails[i].Spec.Key() < fails[j].Spec.Key() }) {
		t.Fatalf("Failures not in key order: %v", fails)
	}
	for _, f := range fails {
		switch f.Spec.Key() {
		case pushed.Key():
			if f.Err != errPushed {
				t.Fatalf("seeded failure listed as %+v", f)
			}
		case bad.Key():
			if error(f) != errBad {
				t.Fatalf("run failure listed as %v, want %v", f, errBad)
			}
		default:
			t.Fatalf("unexpected failure %v", f)
		}
	}
}
