package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"github.com/bertisim/berti/internal/check"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/workloads"
)

// diffScale keeps the full scheduler matrix (workloads × prefetchers ×
// fault plans × two schedulers) tractable inside go test ./...; the
// guarantee is scale-independent, so the smallest scale that still exercises
// warmup, measurement, misses, and writebacks is the right one.
var diffScale = Scale{Name: "sched-diff", MemRecords: 20_000, WarmupInstr: 20_000, SimInstr: 50_000}

// resultJSON canonicalizes a run outcome for the byte-identity comparison:
// the full Result marshaled to JSON plus the rendered error (StallError
// snapshots, checker violations, and decode errors are all deterministic).
func resultJSON(t *testing.T, res *sim.Result, err error) []byte {
	t.Helper()
	b, merr := json.Marshal(res)
	if merr != nil {
		t.Fatalf("marshal result: %v", merr)
	}
	if err != nil {
		b = append(b, '\n')
		b = append(b, err.Error()...)
	}
	return b
}

// schedulerPair builds one harness per scheduler at the differential scale.
func schedulerPair() (ticked, horizon *Harness) {
	ticked = New(diffScale)
	ticked.Scheduler = sim.SchedTicked
	ticked.EnableChecks = true
	horizon = New(diffScale)
	horizon.Scheduler = sim.SchedHorizon
	horizon.EnableChecks = true
	return ticked, horizon
}

// TestSchedulerDifferentialWorkloads pins the tentpole guarantee across the
// whole workload registry: with the invariant checker attached, every seed
// workload must produce byte-identical JSON stats under the ticked and
// horizon schedulers.
func TestSchedulerDifferentialWorkloads(t *testing.T) {
	ticked, horizon := schedulerPair()
	all := workloads.All()
	if testing.Short() {
		all = all[:6]
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{Workload: w.Name}
			rt, et := ticked.RunContext(context.Background(), spec)
			rh, eh := horizon.RunContext(context.Background(), spec)
			a, b := resultJSON(t, rt, et), resultJSON(t, rh, eh)
			if !bytes.Equal(a, b) {
				t.Fatalf("schedulers diverged on %s:\nticked:  %s\nhorizon: %s", w.Name, a, b)
			}
		})
	}
}

// TestSchedulerDifferentialPrefetchers covers every registered prefetcher at
// its deployment level on a memory-intensive workload — prefetch queues,
// MSHR watermarks, and the promote path are where the cache horizon is
// easiest to get wrong.
func TestSchedulerDifferentialPrefetchers(t *testing.T) {
	ticked, horizon := schedulerPair()
	entries := prefetch.All()
	if testing.Short() {
		entries = entries[:3]
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{Workload: "mcf_like_1554"}
			if e.Level == prefetch.AtL2 {
				spec.L2Pf = e.Name
			} else {
				spec.L1DPf = e.Name
			}
			rt, et := ticked.RunContext(context.Background(), spec)
			rh, eh := horizon.RunContext(context.Background(), spec)
			a, b := resultJSON(t, rt, et), resultJSON(t, rh, eh)
			if !bytes.Equal(a, b) {
				t.Fatalf("schedulers diverged with %s:\nticked:  %s\nhorizon: %s", e.Name, a, b)
			}
		})
	}
}

// TestSchedulerDifferentialFaults runs every fault kind under both
// schedulers and requires identical outcomes — including identical failures:
// a dropped fill must leak the same MSHR, trip the same mshr-stuck sweep at
// the same cycle, and stall at the same watchdog deadline in both modes.
// Every run also samples counters, so each of afterCycle's triggers (sampler,
// fault, checker sweep, watchdog) is compared across schedulers.
func TestSchedulerDifferentialFaults(t *testing.T) {
	kinds := fault.Kinds()
	if testing.Short() {
		kinds = []fault.Kind{fault.DropFill, fault.DupLine}
	}
	type faultCase struct {
		name string
		plan *fault.Plan
	}
	var cases []faultCase
	for _, k := range kinds {
		cases = append(cases, faultCase{string(k), &fault.Plan{Kind: k, Seed: 7, Rate: 0.05, After: 2_000, Param: 0}})
	}
	// This After falls inside a quiescent stretch of the run: the horizon
	// scheduler would jump over it, so only the fault plan's bound on the
	// jump keeps the duplicated tag, and the sweep that flags it, at After.
	cases = append(cases, faultCase{"dup-line-quiescent", &fault.Plan{Kind: fault.DupLine, Seed: 7, After: 17_370}})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(s sim.Scheduler) (out []byte, firstViolation uint64) {
				h := New(diffScale)
				h.Scheduler = s
				sampler := obs.NewSampler(5_000)
				res, err := h.RunWithContext(context.Background(), RunSpec{Workload: "mcf_like_1554", L1DPf: "berti"}, sim.Options{
					Checker:  check.New(),
					Watchdog: 300_000,
					Fault:    tc.plan,
					Observer: &obs.Observer{Sampler: sampler},
				})
				series, merr := json.Marshal(sampler.Series())
				if merr != nil {
					t.Fatalf("marshal time series: %v", merr)
				}
				var ve *check.ViolationError
				if errors.As(err, &ve) && len(ve.Violations) > 0 {
					firstViolation = ve.Violations[0].Cycle
				}
				return append(append(resultJSON(t, res, err), '\n'), series...), firstViolation
			}
			a, va := run(sim.SchedTicked)
			b, vb := run(sim.SchedHorizon)
			if !bytes.Equal(a, b) {
				t.Fatalf("schedulers diverged under %s:\nticked:  %s\nhorizon: %s", tc.name, a, b)
			}
			if va != vb {
				t.Fatalf("first violation at cycle %d (ticked) vs %d (horizon)", va, vb)
			}
			if tc.name == "dup-line-quiescent" && va == 0 {
				t.Fatal("the duplicated tag was never flagged")
			}
		})
	}
}

// TestSchedulerDifferentialMix covers the multi-core path: several cores
// skip only when ALL of them are quiescent, and per-core credit must land on
// the right core's counters.
func TestSchedulerDifferentialMix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-core differential is covered by the full run")
	}
	ticked, horizon := schedulerPair()
	spec := RunSpec{Mix: []string{"mcf_like_1554", "lbm_like", "bfs-road", "pr-kron"}, L1DPf: "berti"}
	rt, et := ticked.RunContext(context.Background(), spec)
	rh, eh := horizon.RunContext(context.Background(), spec)
	a, b := resultJSON(t, rt, et), resultJSON(t, rh, eh)
	if !bytes.Equal(a, b) {
		t.Fatalf("schedulers diverged on mix:\nticked:  %s\nhorizon: %s", a, b)
	}
}

// TestHarnessSchedulerPlumbing makes sure the field actually reaches the
// engine: an impossible scheduler value must not silently fall back.
func TestSchedulerParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Scheduler
		ok   bool
	}{
		{"", sim.SchedHorizon, true},
		{"horizon", sim.SchedHorizon, true},
		{"ticked", sim.SchedTicked, true},
		{"warp", 0, false},
	} {
		got, err := sim.ParseScheduler(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Fatalf("ParseScheduler(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for s, want := range map[sim.Scheduler]string{sim.SchedHorizon: "horizon", sim.SchedTicked: "ticked"} {
		if s.String() != want {
			t.Fatalf("Scheduler(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if fmt.Sprint(sim.Scheduler(9)) == "" {
		t.Fatal("unknown scheduler must still render")
	}
}
