package main

import (
	"fmt"
	"io"
	"regexp"
	"testing"

	"github.com/bertisim/berti/internal/harness"
)

// toy shrinks a workload to smoke-test size: tiny traces and instruction
// budgets, and at most four specs. The path and spec kinds stay the same.
func toy(w *workload) *workload {
	t := *w
	t.scale = harness.Scale{Name: "bench-toy", MemRecords: 3000, WarmupInstr: 1000, SimInstr: 4000}
	t.specs = t.specs[:min(4, len(t.specs))]
	return &t
}

func readBenchmark(t *testing.T) *benchmarkDef {
	t.Helper()
	var bm benchmarkDef
	if err := readJSON("../BENCHMARK.json", &bm); err != nil {
		t.Fatal(err)
	}
	return &bm
}

// TestEveryWorkloadEmitsDeclaredMetrics runs every workload at toy size,
// plain and traced, and checks each emits exactly the metrics
// BENCHMARK.json declares for that pass, with the declared units.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	bm := readBenchmark(t)
	table := benchWorkloads(1)
	if len(bm.Workloads) != len(table) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(bm.Workloads), len(table))
	}
	for _, d := range bm.Workloads {
		if findWorkload(table, d.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the table", d.Name)
		}
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, w := range table {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				rf := &runFile{Seed: 1, Traced: traced, Workloads: map[string]*outcome{}}
				if err := runOne(rf, toy(w), t.TempDir(), io.Discard); err != nil {
					t.Fatal(err)
				}
				o := rf.Workloads[w.name]
				if !o.Correct || o.Failed != 0 || o.Mismatches != 0 {
					t.Errorf("correct=%v failed=%d mismatches=%d %v", o.Correct, o.Failed, o.Mismatches, o.Notes)
				}
				for name, unit := range want {
					if got, ok := o.Metrics[name]; !ok {
						t.Errorf("%s not emitted", name)
					} else if got.Unit != unit {
						t.Errorf("%s unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range o.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("%s emitted but not declared", name)
					}
					if !valid.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
				}
			})
		}
	}
}

// TestInjectedFailedSpecCounted adds a spec naming no registered
// prefetcher: every rep must count it failed and the run must be incorrect.
func TestInjectedFailedSpecCounted(t *testing.T) {
	w := toy(findWorkload(benchWorkloads(1), "sim-mem"))
	w.specs = append(w.specs, harness.RunSpec{Workload: "mcf_like_1554", L1DPf: "no-such-prefetcher", Seed: 1})
	rf := &runFile{Seed: 1, Workloads: map[string]*outcome{}}
	if err := runOne(rf, w, t.TempDir(), io.Discard); err != nil {
		t.Fatal(err)
	}
	o := rf.Workloads[w.name]
	if o.Failed == 0 || 2*o.Failed != o.Attempted || o.Correct {
		t.Fatalf("failed=%d attempted=%d correct=%v, want half the attempts failed and the run incorrect", o.Failed, o.Attempted, o.Correct)
	}
}

// TestInjectedDigestMismatchCounted makes the fleet serve one result that
// differs from the local campaign's.
func TestInjectedDigestMismatchCounted(t *testing.T) {
	local := &outcome{Correct: true, Digests: []string{"a1", "b2", "c3"}}
	fleet := &outcome{Correct: true, Digests: []string{"a1", "bX", "c3"}}
	checkFleet(&runFile{Workloads: map[string]*outcome{"campaign-local": local, "campaign-fleet": fleet}})
	if fleet.Mismatches != 1 || fleet.Correct {
		t.Fatalf("mismatches=%d correct=%v, want 1 and false", fleet.Mismatches, fleet.Correct)
	}
}

// TestCompareVerdicts fabricates ten paired runs and checks the verdicts
// against BENCHMARK.json's sim_kips bound: a drop 5 points beyond the bound
// is a regression, a drop within it or no change is not, and a consistent
// 20% rise is a gain.
func TestCompareVerdicts(t *testing.T) {
	bm := readBenchmark(t)
	bound := -1.0
	for _, e := range bm.EndToEnd {
		if e.Name == "sim_kips" {
			bound = e.Bound
		}
	}
	if bound <= 0 {
		t.Fatal("BENCHMARK.json declares no positive sim_kips bound")
	}
	for _, tc := range []struct {
		scale float64
		want  string
	}{{1 - bound - 0.05, "regression"}, {1 - bound/2, "no change"}, {1.0, "no change"}, {1.2, "gain"}} {
		var base, next []*runFile
		for i := 0; i < 10; i++ {
			v := 1000 * (1 + 0.004*float64(i%3))
			run := func(kips float64) *runFile {
				return &runFile{Workloads: map[string]*outcome{"sim-mem": {Metrics: map[string]metric{"sim_kips": {Value: kips, Unit: "kinstr/s"}}}}}
			}
			base, next = append(base, run(v)), append(next, run(v*tc.scale))
		}
		rows := compareRuns(bm, base, next)
		if len(rows) != 1 || rows[0].workload != "sim-mem" || rows[0].metric != "sim_kips" {
			t.Fatalf("rows = %+v, want one sim-mem sim_kips row", rows)
		}
		if rows[0].verdict != tc.want {
			t.Errorf("x%.3f: verdict %q, want %q", tc.scale, rows[0].verdict, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
