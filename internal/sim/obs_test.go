package sim

import (
	"bytes"
	"testing"

	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/trace"
)

// observedRun executes one sampled+traced run over a fresh machine and
// returns the result plus the rendered CSV and Chrome trace bytes.
func observedRun(t *testing.T, cfg Config, tr *trace.Slice) (*Result, []byte, []byte) {
	t.Helper()
	o := &obs.Observer{
		Sampler: obs.NewSampler(5_000),
		Tracer:  obs.NewTracer(1 << 12),
	}
	m := MustNew(cfg, []trace.Reader{trace.NewSliceReader(tr)}, bertiFactory, nil)
	m.Attach(Options{Observer: o})
	res := MustRun(m)
	var csv, tj bytes.Buffer
	if res.TimeSeries == nil {
		t.Fatal("observed run returned no time series")
	}
	if err := res.TimeSeries.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := o.Tracer.WriteChromeTrace(&tj); err != nil {
		t.Fatal(err)
	}
	return res, csv.Bytes(), tj.Bytes()
}

// TestObservedRunDeterministic: two identical observed runs must produce
// byte-identical time series and event traces.
func TestObservedRunDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Cores = 1
	tr := strideTrace(60_000, 9, 2)
	resA, csvA, traceA := observedRun(t, cfg, tr)
	resB, csvB, traceB := observedRun(t, cfg, tr)
	if !bytes.Equal(csvA, csvB) {
		t.Fatal("identical runs produced different time-series CSV")
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("identical runs produced different Chrome traces")
	}
	if resA.Cycles != resB.Cycles {
		t.Fatalf("cycles diverged: %d vs %d", resA.Cycles, resB.Cycles)
	}
}

// TestObservedRunMatchesUnobserved: attaching the observability layer must
// not perturb simulation results.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfg := smallConfig()
	cfg.Cores = 1
	tr := strideTrace(60_000, 9, 2)
	plain := mustRunOnce(cfg, tr, bertiFactory, nil)
	observed, _, _ := observedRun(t, cfg, tr)
	if plain.Cycles != observed.Cycles {
		t.Fatalf("observation perturbed the run: %d vs %d cycles",
			plain.Cycles, observed.Cycles)
	}
	if plain.Cores[0].L1D.PrefFills != observed.Cores[0].L1D.PrefFills {
		t.Fatalf("prefetch fills diverged: %d vs %d",
			plain.Cores[0].L1D.PrefFills, observed.Cores[0].L1D.PrefFills)
	}
}

// TestObservedRunSeriesShape checks the engine-driven sampling: interval
// boundaries fall on exact multiples of the interval, intervals are
// contiguous, and the trailing partial interval (if any) is closed.
func TestObservedRunSeriesShape(t *testing.T) {
	cfg := smallConfig() // 40k measured instructions, 5k interval
	cfg.Cores = 1
	res, _, _ := observedRun(t, cfg, strideTrace(60_000, 9, 2))
	ts := res.TimeSeries
	if ts.SchemaVersion != obs.SchemaVersion || ts.IntervalInstr != 5_000 {
		t.Fatalf("series metadata wrong: v%d interval=%d", ts.SchemaVersion, ts.IntervalInstr)
	}
	if len(ts.Rows) < 8 {
		t.Fatalf("rows = %d, want >= 8 for 40k instructions at 5k interval", len(ts.Rows))
	}
	var prevEnd uint64
	for i, r := range ts.Rows {
		if r.Interval != i {
			t.Fatalf("row %d carries interval index %d", i, r.Interval)
		}
		if r.EndInstr != prevEnd+r.Instructions {
			t.Fatalf("row %d not contiguous: end=%d prev=%d delta=%d",
				i, r.EndInstr, prevEnd, r.Instructions)
		}
		// Every row except a trailing partial closes at the first retire
		// point at or past its boundary; with retire width 4 the overshoot
		// is bounded by a few instructions.
		if i < len(ts.Rows)-1 {
			boundary := uint64(i+1) * 5_000
			if r.EndInstr < boundary || r.EndInstr >= boundary+8 {
				t.Fatalf("row %d ends at %d, want within [%d, %d)",
					i, r.EndInstr, boundary, boundary+8)
			}
		}
		if r.Instructions == 0 || r.Instructions > 5_000+8 {
			t.Fatalf("row %d spans %d instructions", i, r.Instructions)
		}
		prevEnd = r.EndInstr
	}
	if last := ts.Rows[len(ts.Rows)-1]; last.EndInstr < cfg.SimInstructions {
		t.Fatalf("series ends at %d, before the %d measured instructions",
			last.EndInstr, cfg.SimInstructions)
	}
	// Berti implements Introspector, so gauges must be populated.
	if len(ts.Rows[0].Gauges) == 0 {
		t.Fatal("Berti introspection gauges missing from sampled rows")
	}
	if _, ok := ts.Rows[0].Gauges["table_occupancy"]; !ok {
		t.Fatalf("gauges missing table_occupancy: %v", ts.Rows[0].Gauges)
	}
}
