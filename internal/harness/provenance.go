package harness

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"

	"github.com/bertisim/berti/internal/obs"
	"github.com/bertisim/berti/internal/obs/provenance"
	"github.com/bertisim/berti/internal/sim"
)

// ProvenanceRollup accumulates the per-run provenance reports of a campaign
// (delivered through the harness OnResult hook) into a cross-workload
// attribution summary: one outcome row per workload plus a fully merged
// attribution report (per-PC / per-delta tables, calibration bands,
// histograms) across every run that carried provenance.
//
// Attach chains onto any OnResult hook already installed (e.g. the campaign
// journal's), so roll-up and journaling compose.
type ProvenanceRollup struct {
	mu     sync.Mutex
	runs   int
	noProv int
	merged provenance.Report
	byWL   map[string]*WorkloadAttribution
}

// NewProvenanceRollup builds an empty roll-up.
func NewProvenanceRollup() *ProvenanceRollup {
	return &ProvenanceRollup{byWL: map[string]*WorkloadAttribution{}}
}

// Attach subscribes the roll-up to the harness's OnResult hook, chaining any
// hook already installed (journal subscriptions keep firing).
func (p *ProvenanceRollup) Attach(h *Harness) {
	prev := h.OnResult
	h.OnResult = func(key string, spec RunSpec, r *sim.Result) {
		if prev != nil {
			prev(key, spec, r)
		}
		label := spec.Workload
		if len(spec.Mix) > 0 { // a mix's row: "mix:w1+w2+..."
			label = "mix:" + strings.Join(spec.Mix, "+")
		}
		p.Add(label, r)
	}
}

// Add folds one completed run into the roll-up. Runs without a provenance
// report (tracker not enabled, or a seeded/legacy result) only bump the
// runs-without-provenance counter.
func (p *ProvenanceRollup) Add(workload string, r *sim.Result) {
	if r == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs++
	if r.Provenance == nil {
		p.noProv++
		return
	}
	provenance.Merge(&p.merged, r.Provenance)
	wa := p.byWL[workload]
	if wa == nil {
		wa = &WorkloadAttribution{Workload: workload}
		p.byWL[workload] = wa
	}
	wa.add(r.Provenance)
}

// WorkloadAttribution is one workload's outcome totals summed across runs
// and cache levels.
type WorkloadAttribution struct {
	Workload string `json:"workload"`
	Runs     int    `json:"runs"`
	Issued   uint64 `json:"issued"`
	Spawned  uint64 `json:"spawned"`
	Timely   uint64 `json:"timely"`
	Late     uint64 `json:"late"`
	Useless  uint64 `json:"useless"`
	Dropped  uint64 `json:"dropped"`
	Overflow uint64 `json:"overflow"`
	// TimelyRate is Timely over all terminally-resolved outcomes.
	TimelyRate float64 `json:"timely_rate"`
	// AvgSlack is the mean fill-to-first-use slack (cycles) over timely
	// outcomes at every level.
	AvgSlack float64 `json:"avg_slack"`

	slackSum, slackCount uint64
}

// add folds one run's report into the workload row.
func (w *WorkloadAttribution) add(r *provenance.Report) {
	w.Runs++
	w.Overflow += r.Overflow
	for i := range r.Levels {
		l := &r.Levels[i]
		w.Issued += l.Issued
		w.Spawned += l.Spawned
		w.Timely += l.Timely
		w.Late += l.Late
		w.Useless += l.Useless
		w.Dropped += l.Dropped
		w.slackSum += l.Slack.Sum
		w.slackCount += l.Slack.Count
	}
	w.finalize()
}

func (w *WorkloadAttribution) finalize() {
	w.TimelyRate, w.AvgSlack = 0, 0
	if n := w.Timely + w.Late + w.Useless + w.Dropped; n > 0 {
		w.TimelyRate = float64(w.Timely) / float64(n)
	}
	if w.slackCount > 0 {
		w.AvgSlack = float64(w.slackSum) / float64(w.slackCount)
	}
}

// RollupReport is the cross-workload attribution document, versioned under
// the obs schema.
type RollupReport struct {
	SchemaVersion int `json:"schema_version"`
	// Runs counts completed runs observed; RunsWithoutProvenance counts the
	// subset that carried no provenance report.
	Runs                  int                   `json:"runs"`
	RunsWithoutProvenance int                   `json:"runs_without_provenance,omitempty"`
	Workloads             []WorkloadAttribution `json:"workloads"`
	Merged                *provenance.Report    `json:"merged"`
}

// Report snapshots the roll-up. The merged attribution report is a deep
// copy, safe against further Add calls merging into the roll-up.
func (p *ProvenanceRollup) Report() *RollupReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	wls := make([]WorkloadAttribution, 0, len(p.byWL))
	for _, w := range p.byWL {
		wls = append(wls, *w)
	}
	sort.Slice(wls, func(i, j int) bool { return wls[i].Workload < wls[j].Workload })
	m := p.merged.Clone()
	m.SchemaVersion = obs.SchemaVersion
	return &RollupReport{
		SchemaVersion:         obs.SchemaVersion,
		Runs:                  p.runs,
		RunsWithoutProvenance: p.noProv,
		Workloads:             wls,
		Merged:                &m,
	}
}

// WriteJSON renders the roll-up as indented JSON (deterministic for equal
// roll-ups).
func (r *RollupReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV renders the merged attribution tables as CSV (the per-PC and
// per-delta rows of the merged report, under the provenance CSV schema).
func (r *RollupReport) WriteCSV(w io.Writer) error {
	return r.Merged.WriteCSV(w)
}
