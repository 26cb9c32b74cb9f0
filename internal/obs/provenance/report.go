package provenance

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/bertisim/berti/internal/obs"
)

// OtherKey labels the overflow row that absorbs PCs/deltas beyond the
// attribution-table caps.
const OtherKey = "other"

// HistOut is the report form of a log2 histogram. Buckets is trimmed of
// trailing zeros; bucket 0 counts zero values, bucket i >= 1 counts values
// in [2^(i-1), 2^i).
type HistOut struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the average observed value.
func (h *HistOut) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// merge folds o into h.
func (h *HistOut) merge(o *HistOut) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	if len(o.Buckets) > len(h.Buckets) {
		h.Buckets = append(h.Buckets, make([]uint64, len(o.Buckets)-len(h.Buckets))...)
	}
	for i, v := range o.Buckets {
		h.Buckets[i] += v
	}
}

// LevelStats is one cache level's lifecycle accounting. The reconciliation
// invariant against the cache counters is exact per level:
//
//	Timely  + UntrackedTimely  == stats.PrefUseful
//	Late    + UntrackedLate    == stats.PrefLate
//	Useless + UntrackedUseless == stats.PrefUseless
//
// Untracked counters only grow when the record pool overflowed (see
// Report.Overflow), so on a healthy run they are zero.
type LevelStats struct {
	Level string `json:"level"`
	// Issued counts prefetches accepted into this level's PQ (primary
	// records); Spawned counts the additional installs this level performed
	// for prefetches issued above it (child records).
	Issued  uint64 `json:"issued"`
	Spawned uint64 `json:"spawned"`
	// Fills counts tracked installs that set the prefetch bit here.
	Fills   uint64 `json:"fills"`
	Timely  uint64 `json:"timely"`
	Late    uint64 `json:"late"`
	Useless uint64 `json:"useless"`
	Dropped uint64 `json:"dropped"`

	UntrackedTimely  uint64 `json:"untracked_timely"`
	UntrackedLate    uint64 `json:"untracked_late"`
	UntrackedUseless uint64 `json:"untracked_useless"`
	UntrackedDropped uint64 `json:"untracked_dropped"`
	// Stale counts resolutions whose ID no longer named a live record
	// (only reachable through deliberate state corruption in fault plans).
	Stale uint64 `json:"stale"`
	// LiveAtEnd counts records still unresolved when the report was taken:
	// prefetches in flight or resident-but-untouched prefetched lines.
	LiveAtEnd uint64 `json:"live_at_end"`

	FillLatency     HistOut `json:"fill_latency"`
	Slack           HistOut `json:"slack"`
	LateWait        HistOut `json:"late_wait"`
	UselessLifetime HistOut `json:"useless_lifetime"`
}

// clone copies l with its own histogram buckets, so merging into the copy
// leaves l alone.
func (l *LevelStats) clone() LevelStats {
	c := *l
	for _, h := range []*HistOut{&c.FillLatency, &c.Slack, &c.LateWait, &c.UselessLifetime} {
		h.Buckets = append([]uint64(nil), h.Buckets...)
	}
	return c
}

// Row is one attribution row: all outcomes attributed to a single trigger
// PC (Key "0x...") or delta (Key "+3"/"-5"), across every level the
// prefetch installed at. The overflow row uses Key "other".
type Row struct {
	Key string `json:"key"`
	// Issued counts primary prefetch requests; ConfSum accumulates the
	// prefetcher's confidence (percent) over them.
	Issued  uint64 `json:"issued"`
	ConfSum uint64 `json:"conf_sum"`
	Timely  uint64 `json:"timely"`
	Late    uint64 `json:"late"`
	Useless uint64 `json:"useless"`
	Dropped uint64 `json:"dropped"`
	// SlackSum/SlackCount accumulate timely-use slack cycles.
	SlackSum   uint64 `json:"slack_sum"`
	SlackCount uint64 `json:"slack_count"`

	// Derived (recomputed on merge): mean confidence at issue, the
	// ground-truth timely rate over resolved outcomes, and mean slack.
	AvgConf    float64 `json:"avg_conf"`
	TimelyRate float64 `json:"timely_rate"`
	AvgSlack   float64 `json:"avg_slack"`
}

// Resolved returns the number of terminally-resolved outcomes in the row.
func (r *Row) Resolved() uint64 { return r.Timely + r.Late + r.Useless + r.Dropped }

// finalize recomputes the derived fields from the raw sums.
func (r *Row) finalize() {
	r.AvgConf, r.TimelyRate, r.AvgSlack = 0, 0, 0
	if r.Issued > 0 {
		r.AvgConf = float64(r.ConfSum) / float64(r.Issued)
	}
	if n := r.Resolved(); n > 0 {
		r.TimelyRate = float64(r.Timely) / float64(n)
	}
	if r.SlackCount > 0 {
		r.AvgSlack = float64(r.SlackSum) / float64(r.SlackCount)
	}
}

// merge folds o into r (same key).
func (r *Row) merge(o *Row) {
	r.Issued += o.Issued
	r.ConfSum += o.ConfSum
	r.Timely += o.Timely
	r.Late += o.Late
	r.Useless += o.Useless
	r.Dropped += o.Dropped
	r.SlackSum += o.SlackSum
	r.SlackCount += o.SlackCount
}

// CalBand is one confidence-calibration band: prefetches the prefetcher
// issued claiming confidence in [ConfLo, ConfHi], against their measured
// outcomes. Only primary records count — one entry per requested prefetch —
// so "claimed 90, delivered 61% timely" reads directly off TimelyRate.
type CalBand struct {
	ConfLo     int     `json:"conf_lo"`
	ConfHi     int     `json:"conf_hi"`
	Issued     uint64  `json:"issued"`
	Timely     uint64  `json:"timely"`
	Late       uint64  `json:"late"`
	Useless    uint64  `json:"useless"`
	Dropped    uint64  `json:"dropped"`
	TimelyRate float64 `json:"timely_rate"`
}

// finalize recomputes the derived timely rate.
func (b *CalBand) finalize() {
	b.TimelyRate = 0
	if n := b.Timely + b.Late + b.Useless + b.Dropped; n > 0 {
		b.TimelyRate = float64(b.Timely) / float64(n)
	}
}

// Report is a tracker's aggregated output, JSON-serializable under the obs
// schema version and mergeable across runs (see Merge).
type Report struct {
	SchemaVersion int `json:"schema_version"`
	// Capacity/Overflow describe the record pool: Overflow > 0 means some
	// prefetches ran untracked and the untracked counters are nonzero.
	Capacity  int    `json:"capacity"`
	Overflow  uint64 `json:"overflow"`
	LiveAtEnd uint64 `json:"live_at_end"`
	// PCsLost/DeltasLost count distinct keys folded into the "other" rows
	// after the attribution-table caps filled.
	PCsLost    uint64 `json:"pcs_lost"`
	DeltasLost uint64 `json:"deltas_lost"`

	Levels []LevelStats `json:"levels"`
	// PCs/Deltas are sorted by issued desc, then resolved desc, then key.
	PCs         []Row     `json:"pcs"`
	Deltas      []Row     `json:"deltas"`
	Calibration []CalBand `json:"calibration"`
}

// pcKeyString formats a trigger-PC row key.
func pcKeyString(pc uint64) string { return "0x" + strconv.FormatUint(pc, 16) }

// deltaKeyString formats a delta row key with an explicit sign.
func deltaKeyString(d int64) string {
	if d >= 0 {
		return "+" + strconv.FormatInt(d, 10)
	}
	return strconv.FormatInt(d, 10)
}

// buildRow converts a raw aggregate to its report row.
func buildRow(key string, a *rowAgg) Row {
	r := Row{
		Key:        key,
		Issued:     a.issued,
		ConfSum:    a.confSum,
		Timely:     a.out[OutTimely],
		Late:       a.out[OutLate],
		Useless:    a.out[OutUseless],
		Dropped:    a.out[OutDropped],
		SlackSum:   a.slackSum,
		SlackCount: a.slackCnt,
	}
	r.finalize()
	return r
}

// sortRows applies the report's deterministic row order.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Issued != rows[j].Issued {
			return rows[i].Issued > rows[j].Issued
		}
		if ri, rj := rows[i].Resolved(), rows[j].Resolved(); ri != rj {
			return ri > rj
		}
		return rows[i].Key < rows[j].Key
	})
}

// Report aggregates the tracker's state into its serializable form. The
// tracker remains usable afterwards (live records keep resolving).
func (t *Tracker) Report() *Report {
	rep := &Report{
		SchemaVersion: obs.SchemaVersion,
		Capacity:      len(t.pool),
		Overflow:      t.overflow,
		LiveAtEnd:     uint64(t.live),
		PCsLost:       t.pcLost,
		DeltasLost:    t.dLost,
	}
	var liveByLevel [NumLevels]uint64
	for i := range t.pool {
		if t.pool[i].live {
			liveByLevel[clampLevel(int(t.pool[i].level))]++
		}
	}
	for l := range t.levels {
		a := &t.levels[l]
		rep.Levels = append(rep.Levels, LevelStats{
			Level:            levelName(l),
			Issued:           a.issued,
			Spawned:          a.spawned,
			Fills:            a.fills,
			Timely:           a.out[OutTimely],
			Late:             a.out[OutLate],
			Useless:          a.out[OutUseless],
			Dropped:          a.out[OutDropped],
			UntrackedTimely:  a.untracked[OutTimely],
			UntrackedLate:    a.untracked[OutLate],
			UntrackedUseless: a.untracked[OutUseless],
			UntrackedDropped: a.untracked[OutDropped],
			Stale:            a.stale,
			LiveAtEnd:        liveByLevel[l],
			FillLatency:      a.fillLat.out(),
			Slack:            a.slack.out(),
			LateWait:         a.lateWait.out(),
			UselessLifetime:  a.uselessLife.out(),
		})
	}
	for i := range t.pcRows {
		rep.PCs = append(rep.PCs, buildRow(pcKeyString(t.pcKeys[i]), &t.pcRows[i]))
	}
	if t.pcOver != (rowAgg{}) {
		rep.PCs = append(rep.PCs, buildRow(OtherKey, &t.pcOver))
	}
	for i := range t.dRows {
		rep.Deltas = append(rep.Deltas, buildRow(deltaKeyString(t.dKeys[i]), &t.dRows[i]))
	}
	if t.dOver != (rowAgg{}) {
		rep.Deltas = append(rep.Deltas, buildRow(OtherKey, &t.dOver))
	}
	sortRows(rep.PCs)
	sortRows(rep.Deltas)
	for b := 0; b < calBands; b++ {
		band := CalBand{
			ConfLo:  b * 10,
			ConfHi:  b*10 + 9,
			Issued:  t.cal[b].issued,
			Timely:  t.cal[b].out[OutTimely],
			Late:    t.cal[b].out[OutLate],
			Useless: t.cal[b].out[OutUseless],
			Dropped: t.cal[b].out[OutDropped],
		}
		if b == calBands-1 {
			band.ConfHi = 100
		}
		band.finalize()
		rep.Calibration = append(rep.Calibration, band)
	}
	return rep
}

// Level returns the named level's stats, or nil.
func (r *Report) Level(name string) *LevelStats {
	for i := range r.Levels {
		if r.Levels[i].Level == name {
			return &r.Levels[i]
		}
	}
	return nil
}

// TopPCs returns the first n PC rows (the rows are already sorted most
// significant first).
func (r *Report) TopPCs(n int) []Row {
	if n > len(r.PCs) {
		n = len(r.PCs)
	}
	return r.PCs[:n]
}

// TopDeltas returns the first n delta rows.
func (r *Report) TopDeltas(n int) []Row {
	if n > len(r.Deltas) {
		n = len(r.Deltas)
	}
	return r.Deltas[:n]
}

// Clone returns a deep copy of r that later merges into r do not change.
func (r *Report) Clone() Report {
	c := *r
	c.Levels = nil
	for i := range r.Levels {
		c.Levels = append(c.Levels, r.Levels[i].clone())
	}
	c.PCs = append([]Row(nil), r.PCs...)
	c.Deltas = append([]Row(nil), r.Deltas...)
	c.Calibration = append([]CalBand(nil), r.Calibration...)
	return c
}

// Merge folds src into dst: counters and histograms add, attribution rows
// merge by key (re-capped at the table bounds, spilling into "other"), and
// derived fields are recomputed. Use it to build cross-workload roll-ups
// from per-run reports.
func Merge(dst, src *Report) {
	if src == nil {
		return
	}
	if dst.SchemaVersion == 0 {
		dst.SchemaVersion = src.SchemaVersion
	}
	if src.Capacity > dst.Capacity {
		dst.Capacity = src.Capacity
	}
	dst.Overflow += src.Overflow
	dst.LiveAtEnd += src.LiveAtEnd
	dst.PCsLost += src.PCsLost
	dst.DeltasLost += src.DeltasLost
	for i := range src.Levels {
		s := &src.Levels[i]
		var d *LevelStats
		for j := range dst.Levels {
			if dst.Levels[j].Level == s.Level {
				d = &dst.Levels[j]
				break
			}
		}
		if d == nil {
			dst.Levels = append(dst.Levels, s.clone())
			continue
		}
		d.Issued += s.Issued
		d.Spawned += s.Spawned
		d.Fills += s.Fills
		d.Timely += s.Timely
		d.Late += s.Late
		d.Useless += s.Useless
		d.Dropped += s.Dropped
		d.UntrackedTimely += s.UntrackedTimely
		d.UntrackedLate += s.UntrackedLate
		d.UntrackedUseless += s.UntrackedUseless
		d.UntrackedDropped += s.UntrackedDropped
		d.Stale += s.Stale
		d.LiveAtEnd += s.LiveAtEnd
		d.FillLatency.merge(&s.FillLatency)
		d.Slack.merge(&s.Slack)
		d.LateWait.merge(&s.LateWait)
		d.UselessLifetime.merge(&s.UselessLifetime)
	}
	dst.PCs = mergeRows(dst.PCs, src.PCs, PCTableCap, &dst.PCsLost)
	dst.Deltas = mergeRows(dst.Deltas, src.Deltas, DeltaTableCap, &dst.DeltasLost)
	if len(dst.Calibration) == 0 {
		dst.Calibration = append(dst.Calibration, src.Calibration...)
	} else {
		for i := range src.Calibration {
			if i >= len(dst.Calibration) {
				dst.Calibration = append(dst.Calibration, src.Calibration[i])
				continue
			}
			d := &dst.Calibration[i]
			s := &src.Calibration[i]
			d.Issued += s.Issued
			d.Timely += s.Timely
			d.Late += s.Late
			d.Useless += s.Useless
			d.Dropped += s.Dropped
			d.finalize()
		}
	}
}

// mergeRows merges two sorted row sets by key, keeping at most maxRows
// keyed rows (the rest fold into "other", bumping lost).
func mergeRows(dst, src []Row, maxRows int, lost *uint64) []Row {
	byKey := make(map[string]int, len(dst)+len(src))
	out := make([]Row, 0, len(dst)+len(src))
	fold := func(rows []Row) {
		for i := range rows {
			r := rows[i]
			if j, ok := byKey[r.Key]; ok {
				out[j].merge(&r)
				continue
			}
			byKey[r.Key] = len(out)
			out = append(out, r)
		}
	}
	fold(dst)
	fold(src)
	// Enforce the cap: keep the most significant keyed rows, fold the rest
	// into "other".
	var other *Row
	if j, ok := byKey[OtherKey]; ok {
		o := out[j]
		out = append(out[:j], out[j+1:]...)
		other = &o
	}
	sortRows(out)
	if len(out) > maxRows {
		if other == nil {
			other = &Row{Key: OtherKey}
		}
		for i := maxRows; i < len(out); i++ {
			other.merge(&out[i])
			*lost++
		}
		out = out[:maxRows]
	}
	if other != nil {
		out = append(out, *other)
	}
	for i := range out {
		out[i].finalize()
	}
	sortRows(out)
	return out
}

// csvColumns is the fixed attribution CSV column set of the schema.
var csvColumns = []string{
	"kind", "key", "issued", "conf_sum", "avg_conf",
	"timely", "late", "useless", "dropped", "timely_rate",
	"slack_sum", "slack_count", "avg_slack",
}

// WriteCSV renders the attribution tables as CSV: one comment line naming
// the schema, a header, then one row per PC (kind=pc) and per delta
// (kind=delta). Output is byte-for-byte deterministic for equal reports.
func (r *Report) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# berti.provenance v%d\n", r.SchemaVersion)
	for i, c := range csvColumns {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	writeRows := func(kind string, rows []Row) {
		for i := range rows {
			row := &rows[i]
			cells := []string{
				kind, row.Key, u(row.Issued), u(row.ConfSum), f(row.AvgConf),
				u(row.Timely), u(row.Late), u(row.Useless), u(row.Dropped),
				f(row.TimelyRate), u(row.SlackSum), u(row.SlackCount), f(row.AvgSlack),
			}
			for j, c := range cells {
				if j > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(c)
			}
			bw.WriteByte('\n')
		}
	}
	writeRows("pc", r.PCs)
	writeRows("delta", r.Deltas)
	return bw.Flush()
}
