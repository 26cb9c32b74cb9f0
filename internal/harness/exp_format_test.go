package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// microScale is the smallest scale at which every experiment renders.
var microScale = Scale{Name: "micro", MemRecords: 8_000, WarmupInstr: 6_000, SimInstr: 15_000, Mixes: 1}

// TestEveryExperimentProducesItsTable runs each experiment at a micro scale
// and asserts the report contains its headline table — a wiring regression
// test covering every table and figure target.
func TestEveryExperimentProducesItsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (micro scale)")
	}
	h := New(microScale)
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
			e.Run(context.Background(), h, &buf)
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
// batched runs (suite-mean energy ratios, geomean speedups) on fresh
// harnesses with one and four workers: completion order differs, but
// every sum is taken in spec order, so the text must be byte-identical.
func TestRenderedTextIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("renders three figures twice (micro scale)")
	}
	render := func(workers int) string {
		h := New(microScale)
		h.Workers = workers
		var buf bytes.Buffer
		for _, id := range []string{"Fig1Energy", "Fig15Energy", "Fig8L1DSpeedup"} {
			e, ok := ExperimentByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			e.Run(context.Background(), h, &buf)
		}
		if f := h.Failures(); len(f) != 0 {
			t.Fatalf("workers=%d: %d run(s) failed: %v", workers, len(f), f[0])
		}
		return buf.String()
	}
	if one, four := render(1), render(4); one != four {
		t.Fatalf("rendered text depends on the worker count:\nworkers=1:\n%s\nworkers=4:\n%s", one, four)
	}
}
