package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Row is one closed sampling interval: counter deltas between two
// snapshots plus derived rates. JSON field names are part of the versioned
// schema (see SchemaVersion).
type Row struct {
	// Interval is the 0-based interval index.
	Interval int `json:"interval"`
	// EndInstr / EndCycle locate the interval's right edge (cumulative
	// measured instructions / absolute machine cycle).
	EndInstr uint64 `json:"end_instr"`
	EndCycle uint64 `json:"end_cycle"`
	// Instructions / Cycles are the deltas covered by this interval.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`

	IPC     float64 `json:"ipc"`
	L1DMPKI float64 `json:"l1d_mpki"`
	L2MPKI  float64 `json:"l2_mpki"`
	LLCMPKI float64 `json:"llc_mpki"`

	// Prefetch activity at L1D within the interval.
	PfIssued  uint64 `json:"l1d_pf_issued"`
	PfFills   uint64 `json:"l1d_pf_fills"`
	PfUseful  uint64 `json:"l1d_pf_useful"`
	PfLate    uint64 `json:"l1d_pf_late"`
	PfUseless uint64 `json:"l1d_pf_useless"`
	// PfAccuracy is (useful+late)/fills for the interval (the artifact
	// formula applied to the window).
	PfAccuracy float64 `json:"l1d_pf_accuracy"`
	// PfCoverage is (useful+late)/(misses+useful): the fraction of
	// would-have-missed accesses the prefetcher covered this interval.
	PfCoverage float64 `json:"l1d_pf_coverage"`
	// PfTimelyFrac is useful/(useful+late): how many covered accesses were
	// covered timely rather than merged into an in-flight prefetch.
	PfTimelyFrac float64 `json:"l1d_pf_timely_frac"`

	// MSHROccupancy is the instantaneous L1D MSHR occupancy at the sample.
	MSHROccupancy int `json:"l1d_mshr_occ"`

	DRAMReads      uint64  `json:"dram_reads"`
	DRAMWrites     uint64  `json:"dram_writes"`
	DRAMRowHitRate float64 `json:"dram_row_hit_rate"`

	PageWalks uint64 `json:"page_walks"`

	// Gauges carries prefetcher introspection values sampled at the right
	// edge of the interval (omitted when no introspector is attached).
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// TimeSeries is the versioned container for a run's sampled intervals.
type TimeSeries struct {
	SchemaVersion int    `json:"schema_version"`
	IntervalInstr uint64 `json:"interval_instructions"`
	// ClampedRows counts intervals whose accuracy ratio exceeded 1 and was
	// clamped (an interval-boundary miscount: a fill landing in one window
	// with its use counted in another). Nonzero values flag windows whose
	// per-interval accuracy is an approximation.
	ClampedRows uint64 `json:"clamped_rows"`
	Rows        []Row  `json:"rows"`
}

// Sampler converts snapshots taken at interval boundaries into Rows. The
// simulator calls Begin once at measurement start and Record at every
// boundary (plus once for a trailing partial interval).
type Sampler struct {
	interval uint64
	prev     Snapshot
	began    bool
	rows     []Row
	clamped  uint64
	// OnRow, when set, is invoked with every freshly-closed interval (the
	// live metrics endpoint's subscription point). Set it before the run.
	OnRow func(Row)
}

// NewSampler builds a sampler with the given interval (instructions per
// sample). interval must be > 0.
func NewSampler(interval uint64) *Sampler {
	if interval == 0 {
		panic("obs: sampler interval must be > 0")
	}
	return &Sampler{interval: interval}
}

// Interval returns the configured instructions-per-sample.
func (s *Sampler) Interval() uint64 { return s.interval }

// Begin sets the baseline snapshot (measurement start). Counters in base
// are typically zero with only the cycle nonzero (taken right after the
// post-warmup stats reset).
func (s *Sampler) Begin(base Snapshot) {
	s.prev = base
	s.began = true
}

// Record closes one interval ending at snap. Calls before Begin, and calls
// that advance zero instructions (e.g. a trailing Record exactly at the
// last boundary), are ignored.
func (s *Sampler) Record(snap Snapshot) {
	if !s.began || snap.Instructions <= s.prev.Instructions {
		return
	}
	p := &s.prev
	instr := snap.Instructions - p.Instructions
	cycles := snap.Cycle - p.Cycle
	row := Row{
		Interval:     len(s.rows),
		EndInstr:     snap.Instructions,
		EndCycle:     snap.Cycle,
		Instructions: instr,
		Cycles:       cycles,

		PfIssued:  snap.L1D.PrefIssued - p.L1D.PrefIssued,
		PfFills:   snap.L1D.PrefFills - p.L1D.PrefFills,
		PfUseful:  snap.L1D.PrefUseful - p.L1D.PrefUseful,
		PfLate:    snap.L1D.PrefLate - p.L1D.PrefLate,
		PfUseless: snap.L1D.PrefUseless - p.L1D.PrefUseless,

		MSHROccupancy: snap.L1DMSHROccupancy,

		DRAMReads:  snap.DRAM.Reads - p.DRAM.Reads,
		DRAMWrites: snap.DRAM.Writes - p.DRAM.Writes,

		PageWalks: snap.TLB.PageWalks - p.TLB.PageWalks,
		Gauges:    snap.Gauges,
	}
	if cycles > 0 {
		row.IPC = float64(instr) / float64(cycles)
	}
	kilo := float64(instr) / 1000
	row.L1DMPKI = float64(snap.L1D.DemandMisses-p.L1D.DemandMisses) / kilo
	row.L2MPKI = float64(snap.L2.DemandMisses-p.L2.DemandMisses) / kilo
	row.LLCMPKI = float64(snap.LLC.DemandMisses-p.LLC.DemandMisses) / kilo
	if row.PfFills > 0 {
		row.PfAccuracy = float64(row.PfUseful+row.PfLate) / float64(row.PfFills)
		if row.PfAccuracy > 1 {
			// An interval boundary split a prefetch's fill from its use:
			// clamp the ratio but count the clamp so the miscount is
			// visible in the series summary instead of silently hidden.
			row.PfAccuracy = 1
			s.clamped++
		}
	}
	// DemandMisses already counts late prefetches (the demand would have
	// missed); timely-useful hits are misses the prefetcher removed.
	misses := snap.L1D.DemandMisses - p.L1D.DemandMisses
	if base := misses + row.PfUseful; base > 0 {
		row.PfCoverage = float64(row.PfUseful+row.PfLate) / float64(base)
	}
	if covered := row.PfUseful + row.PfLate; covered > 0 {
		row.PfTimelyFrac = float64(row.PfUseful) / float64(covered)
	}
	rh := snap.DRAM.RowHits - p.DRAM.RowHits
	rm := snap.DRAM.RowMisses - p.DRAM.RowMisses
	rc := snap.DRAM.RowConflicts - p.DRAM.RowConflicts
	if tot := rh + rm + rc; tot > 0 {
		row.DRAMRowHitRate = float64(rh) / float64(tot)
	}
	s.rows = append(s.rows, row)
	s.prev = snap
	if s.OnRow != nil {
		s.OnRow(row)
	}
}

// Rows returns the recorded intervals.
func (s *Sampler) Rows() []Row { return s.rows }

// Series packages the recorded rows with schema metadata.
func (s *Sampler) Series() *TimeSeries {
	return &TimeSeries{
		SchemaVersion: SchemaVersion,
		IntervalInstr: s.interval,
		ClampedRows:   s.clamped,
		Rows:          s.rows,
	}
}

// gaugeKeys returns the sorted union of gauge names across rows, so CSV
// columns are stable and deterministic.
func gaugeKeys(rows []Row) []string {
	seen := map[string]bool{}
	for i := range rows {
		for k := range rows[i].Gauges {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// csvColumns is the fixed column set of schema v1, in order. Gauge columns
// (prefixed "pf.") follow, sorted by name.
var csvColumns = []string{
	"interval", "end_instr", "end_cycle", "instructions", "cycles",
	"ipc", "l1d_mpki", "l2_mpki", "llc_mpki",
	"l1d_pf_issued", "l1d_pf_fills", "l1d_pf_useful", "l1d_pf_late",
	"l1d_pf_useless", "l1d_pf_accuracy", "l1d_pf_coverage",
	"l1d_pf_timely_frac", "l1d_mshr_occ",
	"dram_reads", "dram_writes", "dram_row_hit_rate", "page_walks",
}

// WriteCSV renders the series as CSV: one comment line identifying the
// schema, a header row, then one row per interval. Output is byte-for-byte
// deterministic for identical runs.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# berti.timeseries v%d interval=%d\n", ts.SchemaVersion, ts.IntervalInstr)
	gauges := gaugeKeys(ts.Rows)
	for i, c := range csvColumns {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(c)
	}
	for _, g := range gauges {
		bw.WriteString(",pf.")
		bw.WriteString(g)
	}
	bw.WriteByte('\n')
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for i := range ts.Rows {
		r := &ts.Rows[i]
		cells := []string{
			strconv.Itoa(r.Interval), u(r.EndInstr), u(r.EndCycle),
			u(r.Instructions), u(r.Cycles),
			f(r.IPC), f(r.L1DMPKI), f(r.L2MPKI), f(r.LLCMPKI),
			u(r.PfIssued), u(r.PfFills), u(r.PfUseful), u(r.PfLate),
			u(r.PfUseless), f(r.PfAccuracy), f(r.PfCoverage),
			f(r.PfTimelyFrac), strconv.Itoa(r.MSHROccupancy),
			u(r.DRAMReads), u(r.DRAMWrites), f(r.DRAMRowHitRate), u(r.PageWalks),
		}
		for _, g := range gauges {
			cells = append(cells, f(r.Gauges[g]))
		}
		for j, c := range cells {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(c)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
