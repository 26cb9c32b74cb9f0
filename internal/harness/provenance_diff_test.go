package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/workloads"
)

// provenancePair builds one harness with lifecycle tracking and one
// without, both at the differential scale.
func provenancePair() (off, on *Harness) {
	off = New(diffScale)
	on = New(diffScale)
	on.EnableProvenance = true
	return off, on
}

// stripProvenance canonicalizes a tracked run for byte-comparison against
// an untracked one: everything except the Provenance report must match.
func stripProvenance(t *testing.T, res *sim.Result, err error) []byte {
	t.Helper()
	if res != nil {
		clone := *res
		clone.Provenance = nil
		res = &clone
	}
	return resultJSON(t, res, err)
}

// TestProvenanceDifferentialWorkloads pins the zero-cost-when-on guarantee
// across the whole workload registry: the tracker is a pure observer, so a
// tracked run's statistics must be byte-identical to an untracked run's.
// (CI also runs the scheduler-differential suite with provenance off, which
// pins the off case by construction.)
func TestProvenanceDifferentialWorkloads(t *testing.T) {
	off, on := provenancePair()
	all := workloads.All()
	if testing.Short() {
		all = all[:6]
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{Workload: w.Name, L1DPf: "berti"}
			ro, eo := off.RunContext(context.Background(), spec)
			rp, ep := on.RunContext(context.Background(), spec)
			a, b := resultJSON(t, ro, eo), stripProvenance(t, rp, ep)
			if !bytes.Equal(a, b) {
				t.Fatalf("provenance tracking perturbed %s:\noff: %s\non:  %s", w.Name, a, b)
			}
			if rp != nil && rp.Provenance == nil {
				t.Fatal("tracked run carried no provenance report")
			}
		})
	}
}

// TestProvenanceReconcilesOnGAP is the acceptance invariant: on every GAP
// workload, per level, the tracker's outcome counts (plus the explicit
// untracked spill) must equal the cache counters exactly, and each outcome
// histogram must have seen exactly the tracked resolutions of its class.
func TestProvenanceReconcilesOnGAP(t *testing.T) {
	h := New(diffScale)
	h.EnableProvenance = true
	gap := workloads.Suite("gap")
	if len(gap) == 0 {
		t.Fatal("no GAP workloads registered")
	}
	if testing.Short() {
		gap = gap[:2]
	}
	for _, w := range gap {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := h.RunContext(context.Background(), RunSpec{Workload: w.Name, L1DPf: "berti"})
			if err != nil {
				t.Fatal(err)
			}
			p := res.Provenance
			if p == nil {
				t.Fatal("no provenance report")
			}
			if p.Overflow != 0 {
				t.Logf("pool overflowed %d times; reconciliation uses the untracked counters", p.Overflow)
			}
			core := &res.Cores[0]
			check := func(name string, useful, late, useless uint64) {
				l := p.Level(name)
				if l == nil {
					if useful|late|useless != 0 {
						t.Fatalf("%s: counters nonzero but no level stats", name)
					}
					return
				}
				if got := l.Timely + l.UntrackedTimely; got != useful {
					t.Errorf("%s: timely %d+%d != PrefUseful %d", name, l.Timely, l.UntrackedTimely, useful)
				}
				if got := l.Late + l.UntrackedLate; got != late {
					t.Errorf("%s: late %d+%d != PrefLate %d", name, l.Late, l.UntrackedLate, late)
				}
				if got := l.Useless + l.UntrackedUseless; got != useless {
					t.Errorf("%s: useless %d+%d != PrefUseless %d", name, l.Useless, l.UntrackedUseless, useless)
				}
				// Histograms observe exactly the tracked resolutions.
				if l.Slack.Count != l.Timely {
					t.Errorf("%s: slack histogram count %d != timely %d", name, l.Slack.Count, l.Timely)
				}
				if l.LateWait.Count != l.Late {
					t.Errorf("%s: late-wait histogram count %d != late %d", name, l.LateWait.Count, l.Late)
				}
				if l.UselessLifetime.Count != l.Useless {
					t.Errorf("%s: useless-lifetime count %d != useless %d", name, l.UselessLifetime.Count, l.Useless)
				}
			}
			check("L1D", core.L1D.PrefUseful, core.L1D.PrefLate, core.L1D.PrefUseless)
			check("L2", core.L2.PrefUseful, core.L2.PrefLate, core.L2.PrefUseless)
			check("LLC", res.LLC.PrefUseful, res.LLC.PrefLate, res.LLC.PrefUseless)
		})
	}
}

// TestProvenanceRollupMergesAcrossRuns covers the campaign roll-up: reports
// from several runs merge by workload and into one attribution table, and
// the OnResult chaining keeps a pre-installed hook firing.
func TestProvenanceRollupMergesAcrossRuns(t *testing.T) {
	h := New(diffScale)
	h.EnableProvenance = true
	var hookFired int
	h.OnResult = func(string, RunSpec, *sim.Result) { hookFired++ }
	rollup := NewProvenanceRollup()
	rollup.Attach(h)

	specs := []RunSpec{
		{Workload: "bfs-kron", L1DPf: "berti"},
		{Workload: "bfs-kron", L1DPf: "berti", Seed: 1},
		{Workload: "pr-kron", L1DPf: "berti"},
	}
	for _, s := range specs {
		if _, err := h.RunContext(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	if hookFired != len(specs) {
		t.Fatalf("chained OnResult fired %d times, want %d", hookFired, len(specs))
	}
	rep := rollup.Report()
	if rep.Runs != len(specs) || rep.RunsWithoutProvenance != 0 {
		t.Fatalf("rollup saw %d runs (%d without provenance)", rep.Runs, rep.RunsWithoutProvenance)
	}
	if len(rep.Workloads) != 2 {
		t.Fatalf("workload rows = %+v", rep.Workloads)
	}
	if rep.Workloads[0].Workload != "bfs-kron" || rep.Workloads[0].Runs != 2 {
		t.Fatalf("bfs-kron row = %+v", rep.Workloads[0])
	}
	// The merged report's issued totals equal the sum of the per-run ones.
	var wantIssued uint64
	for _, r := range h.Results() {
		for i := range r.Provenance.Levels {
			wantIssued += r.Provenance.Levels[i].Issued
		}
	}
	var gotIssued uint64
	for i := range rep.Merged.Levels {
		gotIssued += rep.Merged.Levels[i].Issued
	}
	if gotIssued != wantIssued || gotIssued == 0 {
		t.Fatalf("merged issued = %d, want %d (nonzero)", gotIssued, wantIssued)
	}
	// The roll-up document is valid JSON with the schema version stamped.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Merged        *provenance.Report
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion == 0 || doc.Merged == nil {
		t.Fatalf("rollup JSON missing schema or merged report: %s", buf.Bytes())
	}
}
