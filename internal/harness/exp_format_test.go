package harness

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/bertisim/berti/internal/metrics"
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

// TestEveryExperimentProducesItsTable tabulates each experiment from the
// micro-scale batch and checks the tables themselves: at least one, each
// with a title and columns, every row exactly as wide as its header, and
// the experiment's headline fragment in a title, a column or a note — a
// wiring regression test covering every table and figure target.
func TestEveryExperimentProducesItsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (micro scale)")
	}
	runs := microBatch().Runs(context.Background())
	wantFragment := map[string]string{
		"Fig1Accuracy":            "Figure 1(a)",
		"Fig1Energy":              "normalized to no prefetching",
		"Fig3LocalVsGlobal":       "deltas[status]",
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
			tables := e.Tables(runs)
			if len(tables) == 0 {
				t.Fatal("no table")
			}
			frag, ok := wantFragment[e.ID]
			if !ok {
				t.Fatalf("experiment %s missing from the format map — add it", e.ID)
			}
			var text []string
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Columns) == 0 {
					t.Fatalf("table without a title or columns:\n%s", metrics.Format(tables))
				}
				for i, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Errorf("%q row %d has %d cells for %d columns: %v", tb.Title, i, len(row), len(tb.Columns), row)
					}
				}
				text = append(append(append(text, tb.Title), tb.Columns...), tb.Notes...)
			}
			joined := strings.ToLower(strings.Join(text, "\n"))
			if !strings.Contains(joined, strings.ToLower(frag)) {
				t.Fatalf("no title, column or note of %s contains %q:\n%s", e.ID, frag, metrics.Format(tables))
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
		var text strings.Builder
		for _, e := range exps {
			text.WriteString(metrics.Format(e.Tables(h.Runs(context.Background()))))
		}
		return text.String()
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
		e.Tables(runs)
	}
}
