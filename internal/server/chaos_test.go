package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
)

// chaosSpecs is the distributed acceptance sweep: big enough that one
// worker cannot finish it before being killed.
func chaosSpecs() []harness.RunSpec {
	return []harness.RunSpec{
		{Workload: "mcf_like_1554", L1DPf: "ip-stride"},
		{Workload: "mcf_like_1554", L1DPf: "next-line"},
		{Workload: "roms_like", L1DPf: "ip-stride"},
		{Workload: "roms_like", L1DPf: "next-line"},
		{Workload: "lbm_like", L1DPf: "ip-stride"},
		{Workload: "lbm_like", L1DPf: "next-line"},
	}
}

// pathBlocker fails every request whose path contains substr — the
// "partitioned worker" transport: heartbeats get through, results do not.
type pathBlocker struct {
	base    http.RoundTripper
	substr  string
	blocked atomic.Int64
}

func (b *pathBlocker) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.Contains(req.URL.Path, b.substr) {
		b.blocked.Add(1)
		return nil, fmt.Errorf("chaos test: partition blocks %s", req.URL.Path)
	}
	return b.base.RoundTrip(req)
}

// TestLeaseChaosLostWorkerByteIdentical is the tentpole acceptance test,
// in-process: a campaign distributed over three workers — one killed
// mid-batch while partitioned from the results endpoint, one running
// behind a seeded fault injector that drops/delays/duplicates requests —
// must finish with a report byte-identical to a local-execution daemon's,
// with lease expiry, spec reassignment, and duplicate dedup all observed
// in the fleet metrics.
func TestLeaseChaosLostWorkerByteIdentical(t *testing.T) {
	ctx := testCtx(t)
	specs := chaosSpecs()

	// Reference: the same sweep on a plain local-execution daemon.
	refS, _ := newTestServer(t, t.TempDir())
	refTS := httptest.NewServer(refS.Handler())
	defer refTS.Close()
	refCl := NewClient(refTS.URL)
	refAck, err := refCl.Submit(ctx, "chaos", specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refCl.WaitCampaign(ctx, refAck.ID); err != nil {
		t.Fatal(err)
	}
	want, err := refCl.Report(ctx, refAck.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos coordinator: lease-only, fast TTL so the test observes expiry.
	h := harness.New(srvScale)
	s, err := New(Options{
		Harness: h, DataDir: t.TempDir(), Logf: t.Logf,
		LeaseOnly: true, LeaseTTL: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)

	ack, err := cl.Submit(ctx, "chaos", specs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != refAck.ID {
		t.Fatalf("same sweep, different campaign IDs: %q vs %q", ack.ID, refAck.ID)
	}

	// Victim: grabs the whole batch, heartbeats fine, but a partition
	// blocks its results pushes. It will compute work it can never land.
	victimCl := NewClient(ts.URL)
	victimCl.SetTransport(&pathBlocker{base: http.DefaultTransport, substr: "/results"})
	victimCl.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	vctx, vcancel := context.WithCancel(ctx)
	victim := &Worker{
		ID: "victim", Client: victimCl, Harness: harness.New(srvScale),
		MaxSpecs: 64, PollInterval: 20 * time.Millisecond, Logf: t.Logf,
	}
	victimDone := make(chan error, 1)
	go func() { victimDone <- victim.Run(vctx) }()

	// Wait for the victim to hold the lease, then SIGKILL-equivalent: stop
	// the process outright, mid-batch, heartbeats and all.
	for {
		s.pool.mu.Lock()
		granted := s.pool.seq > 0
		s.pool.mu.Unlock()
		if granted {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("victim never acquired a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	vcancel()
	if err := <-victimDone; err != nil {
		t.Fatalf("victim exit: %v", err)
	}

	// Two healthy workers finish the job; one runs behind the seeded
	// network-fault injector (drops, delays, duplicated requests).
	faultyCl := NewClient(ts.URL)
	plan := &fault.NetPlan{Seed: 7, DropRate: 0.15, DelayRate: 0.3, Delay: 5 * time.Millisecond, DupRate: 0.2}
	faultyCl.SetTransport(plan.Transport(nil))
	faultyCl.Retry = RetryPolicy{MaxAttempts: 6, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 25 * time.Millisecond}
	for i, c := range []*Client{faultyCl, NewClient(ts.URL)} {
		w := &Worker{
			ID: fmt.Sprintf("healthy-%d", i), Client: c, Harness: harness.New(srvScale),
			MaxSpecs: 2, PollInterval: 20 * time.Millisecond, Logf: t.Logf,
		}
		wctx, wcancel := context.WithCancel(ctx)
		t.Cleanup(wcancel)
		go func() {
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}

	st, err := cl.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("chaos campaign finished as %+v, want done %d/%d", st, len(specs), len(specs))
	}
	got, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos report differs from local-execution report (%d vs %d bytes)", len(got), len(want))
	}

	// Deterministic late duplicate: replay a finished entry against the
	// victim's long-dead lease. It must be accepted-and-deduped and leave
	// the report untouched.
	var rep Report
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatal(err)
	}
	rr, err := cl.PushResults(ctx, "l000001", "victim",
		[]campaign.Entry{{Key: rep.Runs[0].Key, Result: rep.Runs[0].Result}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Accepted != 0 || rr.Duplicates != 1 {
		t.Fatalf("late replay: %+v, want 1 duplicate", rr)
	}
	again, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("late duplicate changed the report")
	}

	// The failure story must be visible in the fleet metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap live.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fl := snap.Fleet
	if fl.LeasesExpired < 1 {
		t.Fatalf("fleet metrics: %+v, want at least one expired lease", fl)
	}
	if fl.SpecsReassigned < 1 {
		t.Fatalf("fleet metrics: %+v, want reassigned specs", fl)
	}
	if fl.DuplicateResults < 1 {
		t.Fatalf("fleet metrics: %+v, want deduped duplicates", fl)
	}
	if fl.RemoteResults < uint64(len(specs)) {
		t.Fatalf("fleet metrics: %+v, want every spec landed remotely", fl)
	}
	if fl.WorkersSeen < 3 {
		t.Fatalf("fleet metrics: %+v, want all three workers registered", fl)
	}
}
