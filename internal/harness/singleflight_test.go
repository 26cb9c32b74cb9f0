package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

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
