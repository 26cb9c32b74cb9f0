package harness

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/bertisim/berti/internal/sim"
)

// microScale is the smallest scale at which every experiment renders.
var microScale = Scale{Name: "micro", MemRecords: 8_000, WarmupInstr: 6_000, SimInstr: 15_000, Mixes: 1}

var (
	microOnce sync.Once
	microH    *Harness
)

// microBatch runs the plan of every experiment at microScale as one batch
// on four workers, once per test binary, and returns the harness holding
// the results. The rendering tests share it.
func microBatch() *Harness {
	microOnce.Do(func() {
		microH = New(microScale)
		microH.Workers = 4
		microH.RunManyContext(context.Background(), Plan(microScale, Experiments()))
	})
	return microH
}

// TestEveryExperimentProducesItsTable renders each experiment from the
// micro-scale batch and asserts the report contains its headline table — a
// wiring regression test covering every table and figure target.
func TestEveryExperimentProducesItsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (micro scale)")
	}
	runs := microBatch().Runs(context.Background())
	wantFragment := map[string]string{
		"Fig1Accuracy":            "Figure 1(a)",
		"Fig1Energy":              "normalized to no prefetching",
		"Fig3LocalVsGlobal":       "global best offset",
		"Tab1Storage":             "2.55",
		"Tab2Config":              "baseline system",
		"Tab3PrefConfig":          "evaluated prefetchers",
		"Fig7SpeedupVsStorage":    "storage",
		"Fig8L1DSpeedup":          "speedup over IP-stride",
		"Fig9PerTrace":            "per-workload",
		"Fig10AccuracyTimeliness": "timely",
		"Fig11MPKI":               "MPKI",
		"Fig12MultiLevel":         "multi-level",
		"Fig13MultiLevelMPKI":     "MPKI",
		"Fig14Traffic":            "traffic",
		"Fig15Energy":             "energy",
		"Fig16BandwidthL1D":       "MTPS",
		"Fig17BandwidthML":        "MTPS",
		"Fig18CloudSuite":         "CloudSuite",
		"Fig19MISB":               "MISB",
		"Fig20MultiCore":          "4-core",
		"Fig21Watermarks":         "watermark",
		"Fig22TableSizes":         "table size",
		"AblLatencyBits":          "latency counter",
		"AblCrossPage":            "cross-page",
		"AblIdealL1D":             "ideal",
		"AblCalibration":          "calibration",
		"AblPythia":               "Pythia",
		"AblPerIP":                "per-page",
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Render(runs, &buf)
			out := buf.String()
			if out == "" {
				t.Fatal("no output")
			}
			frag, ok := wantFragment[e.ID]
			if !ok {
				t.Fatalf("experiment %s missing from the format map — add it", e.ID)
			}
			if !strings.Contains(strings.ToLower(out), strings.ToLower(frag)) {
				t.Fatalf("output of %s lacks %q:\n%s", e.ID, frag, out)
			}
		})
	}
}

// TestRenderedTextIndependentOfWorkers renders the figures that aggregate
// batched runs (suite-mean energy ratios, geomean speedups) from the
// four-worker micro batch and from a one-worker batch over just their
// plan: completion order differs, but every sum is taken in spec order, so
// the text must be byte-identical.
func TestRenderedTextIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("renders three figures from two batches (micro scale)")
	}
	var exps []Experiment
	for _, id := range []string{"Fig1Energy", "Fig15Energy", "Fig8L1DSpeedup"} {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		exps = append(exps, e)
	}
	render := func(h *Harness) string {
		if f := h.Failures(); len(f) != 0 {
			t.Fatalf("workers=%d: %d run(s) failed: %v", h.Workers, len(f), f[0])
		}
		var buf bytes.Buffer
		for _, e := range exps {
			e.Render(h.Runs(context.Background()), &buf)
		}
		return buf.String()
	}
	one := New(microScale)
	one.Workers = 1
	one.RunManyContext(context.Background(), Plan(microScale, exps))
	if got1, got4 := render(one), render(microBatch()); got1 != got4 {
		t.Fatalf("rendered text depends on the worker count:\nworkers=1:\n%s\nworkers=4:\n%s", got1, got4)
	}
}

// TestPlanCoversRender pins the contract batch rendering rests on: an
// experiment rendered against real results reads no spec outside its
// plan, so a batch over Plan leaves no figure row on a placeholder.
func TestPlanCoversRender(t *testing.T) {
	all := Plan(microScale, Experiments())
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Key()] {
			t.Fatalf("Plan lists %s twice", s.Key())
		}
		seen[s.Key()] = true
	}
	if testing.Short() {
		t.Skip("renders every experiment against the micro batch")
	}
	h := microBatch()
	for _, e := range Experiments() {
		planned := map[string]bool{}
		for _, s := range Plan(microScale, []Experiment{e}) {
			planned[s.Key()] = true
		}
		runs := h.Runs(context.Background())
		lookup := runs.lookup
		runs.lookup = func(specs []RunSpec) []*sim.Result {
			for _, s := range specs {
				if !planned[s.Key()] {
					t.Errorf("%s read %s, which Plan did not list", e.ID, s.Key())
				}
			}
			return lookup(specs)
		}
		e.Render(runs, io.Discard)
	}
}
