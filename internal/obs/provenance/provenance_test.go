package provenance

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestLifecycleTimelyAndSlack(t *testing.T) {
	tr := NewTracker(8)
	pid := tr.Issue(0, 0x40, 3, 90, 100)
	if pid == 0 {
		t.Fatal("Issue returned the untracked ID with a free pool")
	}
	tr.Fill(pid, 150)
	tr.Resolve(pid, 0, OutTimely, 175)
	rep := tr.Report()
	l := rep.Level("L1D")
	if l == nil || l.Issued != 1 || l.Fills != 1 || l.Timely != 1 {
		t.Fatalf("level stats = %+v", l)
	}
	if l.FillLatency.Sum != 50 || l.Slack.Sum != 25 {
		t.Fatalf("fill latency sum = %d (want 50), slack sum = %d (want 25)",
			l.FillLatency.Sum, l.Slack.Sum)
	}
	if tr.Live() != 0 {
		t.Fatalf("live = %d after terminal resolve", tr.Live())
	}
	if len(rep.PCs) != 1 || rep.PCs[0].Key != "0x40" || rep.PCs[0].AvgConf != 90 {
		t.Fatalf("pc rows = %+v", rep.PCs)
	}
	if len(rep.Deltas) != 1 || rep.Deltas[0].Key != "+3" {
		t.Fatalf("delta rows = %+v", rep.Deltas)
	}
}

func TestPoolOverflowGoesUntracked(t *testing.T) {
	tr := NewTracker(2)
	a := tr.Issue(0, 1, 1, 50, 0)
	b := tr.Issue(0, 2, 2, 50, 0)
	c := tr.Issue(0, 3, 3, 50, 0)
	if a == 0 || b == 0 {
		t.Fatal("pool should have capacity for two records")
	}
	if c != 0 {
		t.Fatalf("third Issue = %d, want 0 (pool exhausted)", c)
	}
	if tr.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", tr.Overflow())
	}
	// Resolving the untracked ID lands in the untracked counters, keeping
	// the reconciliation sums exact.
	tr.Resolve(0, 0, OutTimely, 10)
	rep := tr.Report()
	l := rep.Level("L1D")
	if l.Timely != 0 || l.UntrackedTimely != 1 {
		t.Fatalf("untracked timely = %d (timely %d), want 1 (0)", l.UntrackedTimely, l.Timely)
	}
	// Releasing a record makes room again.
	tr.Resolve(a, 0, OutUseless, 20)
	if d := tr.Issue(0, 4, 4, 50, 30); d == 0 {
		t.Fatal("pool should have a free slot after a terminal resolve")
	}
}

func TestStaleAndGenerationSafety(t *testing.T) {
	tr := NewTracker(4)
	pid := tr.Issue(0, 1, 1, 50, 0)
	tr.Resolve(pid, 0, OutDropped, 5)
	// Same ID again: the record is gone, the resolution is stale.
	tr.Resolve(pid, 0, OutTimely, 6)
	// Reuse the slot: the generation bump means the old ID stays stale.
	pid2 := tr.Issue(0, 2, 2, 50, 7)
	tr.Resolve(pid, 0, OutTimely, 8)
	rep := tr.Report()
	l := rep.Level("L1D")
	if l.Stale != 2 {
		t.Fatalf("stale = %d, want 2", l.Stale)
	}
	if l.Timely != 0 || l.Dropped != 1 {
		t.Fatalf("outcomes polluted by stale resolves: %+v", l)
	}
	tr.Resolve(pid2, 0, OutTimely, 9)
	if tr.Report().Level("L1D").Timely != 1 {
		t.Fatal("fresh-generation resolve should count")
	}
}

func TestChildAndRelevel(t *testing.T) {
	tr := NewTracker(8)
	pid := tr.Issue(0, 0x10, 2, 80, 0)
	child := tr.Child(pid, 1, 5)
	if child == 0 || child == pid {
		t.Fatalf("child = %d (parent %d)", child, pid)
	}
	tr.Fill(child, 40)
	tr.Resolve(child, 1, OutTimely, 60)
	tr.Fill(pid, 45)
	tr.Resolve(pid, 0, OutTimely, 50)
	rep := tr.Report()
	if l2 := rep.Level("L2"); l2 == nil || l2.Spawned != 1 || l2.Timely != 1 {
		t.Fatalf("L2 stats = %+v, want spawned=1 timely=1", l2)
	}
	// Child outcomes attribute back to the parent's PC/delta rows.
	if len(rep.PCs) != 1 || rep.PCs[0].Timely != 2 {
		t.Fatalf("pc rows = %+v, want one row with timely=2", rep.PCs)
	}
	// Relevel moves a record's outcome accounting.
	p2 := tr.Issue(0, 0x20, 4, 70, 100)
	tr.Relevel(p2, 2)
	tr.Resolve(p2, 2, OutUseless, 200)
	if llc := tr.Report().Level("LLC"); llc == nil || llc.Useless != 1 {
		t.Fatalf("LLC stats = %+v, want useless=1", llc)
	}
}

func TestResetCountersKeepsLiveRecords(t *testing.T) {
	tr := NewTracker(8)
	warm := tr.Issue(0, 1, 1, 50, 0) // in flight across the reset
	done := tr.Issue(0, 2, 2, 50, 0)
	tr.Resolve(done, 0, OutDropped, 5)
	tr.ResetCounters()
	rep := tr.Report()
	if l := rep.Level("L1D"); l != nil && (l.Issued != 0 || l.Dropped != 0) {
		t.Fatalf("aggregates survived reset: %+v", l)
	}
	if tr.Live() != 1 {
		t.Fatalf("live = %d, want 1 (warmup record kept)", tr.Live())
	}
	// The surviving record resolves into the post-reset counters.
	tr.Fill(warm, 10)
	tr.Resolve(warm, 0, OutTimely, 20)
	if l := tr.Report().Level("L1D"); l == nil || l.Timely != 1 {
		t.Fatalf("post-reset resolve lost: %+v", l)
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1 << 40} {
		h.Observe(v)
	}
	out := h.out()
	if out.Count != 6 || out.Max != 1<<40 {
		t.Fatalf("hist out = %+v", out)
	}
	var sum uint64
	for _, b := range out.Buckets {
		sum += b
	}
	if sum != 6 {
		t.Fatalf("bucket sum = %d, want 6", sum)
	}
	// bits.Len64 bucketing: 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3.
	if out.Buckets[0] != 1 || out.Buckets[1] != 1 || out.Buckets[2] != 2 || out.Buckets[3] != 1 {
		t.Fatalf("bucket layout = %v", out.Buckets)
	}
}

func TestCalibrationBands(t *testing.T) {
	tr := NewTracker(16)
	// Claimed 90%+ confidence, delivered 1 timely of 3 resolved.
	for i, out := range []Outcome{OutTimely, OutUseless, OutUseless} {
		pid := tr.Issue(0, uint64(i), 1, 95, 0)
		if out == OutTimely {
			tr.Fill(pid, 10)
		}
		tr.Resolve(pid, 0, out, 20)
	}
	rep := tr.Report()
	var band *CalBand
	for i := range rep.Calibration {
		if rep.Calibration[i].ConfLo == 90 {
			band = &rep.Calibration[i]
		}
	}
	if band == nil || band.Issued != 3 {
		t.Fatalf("90+ band = %+v", band)
	}
	if got := band.TimelyRate; got < 0.33 || got > 0.34 {
		t.Fatalf("claimed 95%% confidence delivered timely rate %v, want 1/3", got)
	}
}

func TestMergeReports(t *testing.T) {
	build := func(pc uint64, out Outcome) *Report {
		tr := NewTracker(8)
		pid := tr.Issue(0, pc, 5, 60, 0)
		tr.Fill(pid, 10)
		tr.Resolve(pid, 0, out, 30)
		return tr.Report()
	}
	dst := build(0x100, OutTimely)
	Merge(dst, build(0x100, OutUseless))
	Merge(dst, build(0x200, OutTimely))
	if len(dst.PCs) != 2 {
		t.Fatalf("merged pc rows = %+v", dst.PCs)
	}
	var shared *Row
	for i := range dst.PCs {
		if dst.PCs[i].Key == "0x100" {
			shared = &dst.PCs[i]
		}
	}
	if shared == nil || shared.Issued != 2 || shared.Timely != 1 || shared.Useless != 1 {
		t.Fatalf("shared row = %+v", shared)
	}
	if shared.TimelyRate != 0.5 {
		t.Fatalf("merged timely rate = %v, want 0.5 (recomputed)", shared.TimelyRate)
	}
	l := dst.Level("L1D")
	if l == nil || l.Issued != 3 || l.Timely != 2 || l.Useless != 1 {
		t.Fatalf("merged level stats = %+v", l)
	}
	if l.Slack.Count != 2 {
		t.Fatalf("merged slack count = %d, want 2", l.Slack.Count)
	}
}

// TestMergeLeavesSourceAlone: Merge copies a level it has not seen, so
// later merges into dst (and into a Clone of it) never write into the
// source report's histogram buckets.
func TestMergeLeavesSourceAlone(t *testing.T) {
	tr := NewTracker(8)
	pid := tr.Issue(0, 0x100, 5, 60, 0)
	tr.Fill(pid, 10)
	tr.Resolve(pid, 0, OutTimely, 30)
	src := tr.Report()
	want, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var dst Report
	Merge(&dst, src)
	snap := dst.Clone()
	snapWant, _ := json.Marshal(&snap)
	Merge(&dst, src)
	if got, _ := json.Marshal(src); !bytes.Equal(got, want) {
		t.Fatalf("merging changed the source report: L1D fill latency %+v", src.Level("L1D").FillLatency)
	}
	if got, _ := json.Marshal(&snap); !bytes.Equal(got, snapWant) {
		t.Fatalf("merging into a report changed its clone: L1D fill latency %+v", snap.Level("L1D").FillLatency)
	}
	fl := dst.Level("L1D").FillLatency
	var n uint64
	for _, b := range fl.Buckets {
		n += b
	}
	if fl.Count != 2 || n != 2 {
		t.Fatalf("merged fill latency: count %d, bucket total %d, want 2 and 2", fl.Count, n)
	}
}
