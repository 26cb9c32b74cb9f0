package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
)

// poolSpecs fabricates n distinct specs for pool-only tests (the pool
// never executes them, so only key distinctness matters).
func poolSpecs(n int) []harness.RunSpec {
	pfs := []string{"none", "next-line", "ip-stride", "berti", "stream", "sms"}
	wls := []string{"mcf_like_1554", "roms_like", "lbm_like", "gcc_like", "xz_like"}
	specs := make([]harness.RunSpec, n)
	for i := range specs {
		specs[i] = harness.RunSpec{Workload: wls[i%len(wls)], L1DPf: pfs[(i/len(wls))%len(pfs)]}
	}
	return specs
}

// fakeClock drives a leasePool deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakePool(ttl time.Duration) (*leasePool, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	p := newLeasePool(ttl, 0, nil)
	p.now = clk.now
	return p, clk
}

// poolWatch is what a test captures just before one pool op, so
// checkPoolInvariants can relate the state after the op to the state
// before it.
type poolWatch struct {
	wake     <-chan struct{}
	pendingN int
	inProc   []string // keys out on in-process leases
	// wakes marks an add or expire: if it leaves specs pending, the wake
	// channel taken before it must be closed.
	wakes bool
}

// watchPool captures p for the next op's invariant check.
func watchPool(p *leasePool, wakes bool) *poolWatch {
	w := &poolWatch{wake: p.wakeChan(), wakes: wakes}
	p.mu.Lock()
	defer p.mu.Unlock()
	w.pendingN = p.pendingN
	for _, l := range p.leases {
		if l.inProcess {
			for key := range l.outstanding {
				w.inProc = append(w.inProc, key)
			}
		}
	}
	return w
}

// checkPoolInvariants asserts the structural invariants the state machine
// promises: exact pending count, holder/lease agreement, and no key in
// two leases. Given the watch taken before the last op (nil skips these),
// it also asserts that expire never returned an in-process lease's keys
// to pending, and that no wake-up was lost: the channel taken before the
// op is closed if the op was an add or expire that left specs pending, or
// if specs became pending where none were.
func checkPoolInvariants(t *testing.T, p *leasePool, w *poolWatch) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if w != nil {
		for _, key := range w.inProc {
			if p.state[key] == specPending {
				t.Fatalf("in-process lease's key %q returned to pending", key)
			}
		}
		if p.pendingN > 0 && (w.wakes || w.pendingN == 0) {
			select {
			case <-w.wake:
			default:
				t.Fatalf("%d spec(s) pending but the wake channel taken before the op is open", p.pendingN)
			}
		}
	}
	pending := 0
	for key, st := range p.state {
		switch st {
		case specPending:
			pending++
			if _, held := p.holder[key]; held {
				t.Fatalf("pending key %q has a holder", key)
			}
		case specLeased:
			lid, held := p.holder[key]
			if !held {
				t.Fatalf("leased key %q has no holder", key)
			}
			l := p.leases[lid]
			if l == nil || !l.outstanding[key] {
				t.Fatalf("leased key %q not outstanding in its lease %q", key, lid)
			}
		case specDone:
			if _, held := p.holder[key]; held {
				t.Fatalf("done key %q still has a holder", key)
			}
		}
	}
	if pending != p.pendingN {
		t.Fatalf("pendingN=%d but %d keys are pending", p.pendingN, pending)
	}
	seen := map[string]string{}
	for lid, l := range p.leases {
		if len(l.outstanding) == 0 {
			t.Fatalf("lease %q kept alive with nothing outstanding", lid)
		}
		for key := range l.outstanding {
			if other, dup := seen[key]; dup {
				t.Fatalf("key %q outstanding in leases %q and %q", key, other, lid)
			}
			seen[key] = lid
			if p.state[key] != specLeased {
				t.Fatalf("lease %q holds key %q in state %d", lid, key, p.state[key])
			}
		}
	}
}

// TestLeasePoolLifecycle walks the core path: add, acquire, heartbeat
// past the original deadline, expire a silent lease, reacquire, finish —
// and checks every counter the metrics endpoint exposes.
func TestLeasePoolLifecycle(t *testing.T) {
	p, clk := newFakePool(time.Second)
	specs := poolSpecs(5)
	if done := p.add(specs); len(done) != 0 {
		t.Fatalf("fresh add reported %v already done", done)
	}
	checkPoolInvariants(t, p, nil)

	l, granted := p.acquire("w1", 3, false)
	if l == nil || len(granted) != 3 || l.worker != "w1" {
		t.Fatalf("acquire: lease %+v, %d specs", l, len(granted))
	}
	checkPoolInvariants(t, p, nil)

	// Heartbeats extend the deadline: after two half-TTL advances with a
	// heartbeat in between, the lease must still be alive.
	clk.advance(600 * time.Millisecond)
	if !p.heartbeat(l.id, "w1", 1) {
		t.Fatal("heartbeat on a live lease refused")
	}
	clk.advance(600 * time.Millisecond)
	if n, _ := p.expire(); n != 0 {
		t.Fatalf("lease expired despite heartbeat %v before deadline", 600*time.Millisecond)
	}

	// One spec completes; the other two go silent past the TTL.
	key0 := granted[0].Key()
	if fresh, known := p.finish("w1", key0); !fresh || !known {
		t.Fatalf("first finish: fresh=%v known=%v", fresh, known)
	}
	if fresh, known := p.finish("w1", key0); fresh || !known {
		t.Fatalf("duplicate finish: fresh=%v known=%v, want deduped", fresh, known)
	}
	clk.advance(1100 * time.Millisecond)
	nl, ns := p.expire()
	if nl != 1 || ns != 2 {
		t.Fatalf("expire: %d leases / %d specs, want 1/2", nl, ns)
	}
	if p.heartbeat(l.id, "w1", 2) {
		t.Fatal("heartbeat on an expired lease accepted")
	}
	checkPoolInvariants(t, p, nil)

	// The reassigned specs plus the two never-leased ones go to w2.
	l2, granted2 := p.acquire("w2", 64, false)
	if l2 == nil || len(granted2) != 4 {
		t.Fatalf("reacquire after expiry granted %d specs, want 4", len(granted2))
	}
	// A late result from w1 for a reassigned key is a first completion
	// (w1 really did compute it) and detaches it from w2's lease.
	late := granted[1].Key()
	if fresh, _ := p.finish("w1", late); !fresh {
		t.Fatal("late result for a reassigned spec not counted as first completion")
	}
	// w2 finishing the same key afterwards is the duplicate.
	if fresh, known := p.finish("w2", late); fresh || !known {
		t.Fatalf("second completion after reassignment: fresh=%v known=%v", fresh, known)
	}
	for _, spec := range granted2 {
		p.finish("w2", spec.Key())
	}
	checkPoolInvariants(t, p, nil)

	g := p.gauges()
	if g.SpecsPending != 0 || g.LeasesOutstanding != 0 || g.WorkersSeen != 2 {
		t.Fatalf("final gauges: %+v", g)
	}
	ws := p.workerStatuses()
	if len(ws) != 2 || ws[0].Worker != "w1" || ws[1].Worker != "w2" {
		t.Fatalf("worker registry: %+v", ws)
	}
	var totalDone uint64
	for _, w := range ws {
		totalDone += w.SpecsCompleted
	}
	if totalDone != 5 {
		t.Fatalf("registry counts %d completions, want exactly 5 (one per spec)", totalDone)
	}
	if _, known := p.finish("w2", "no-such-key"); known {
		t.Fatal("finish on an unknown key claimed to know it")
	}
}

// TestLeasePoolNeverLosesOrDoubleCounts is the property test behind the
// exactly-once claim: under a seeded random interleaving of acquire /
// heartbeat / expire / finish (including duplicate and late finishes),
// with a third of the leases in-process, every spec is first-completed
// exactly once and the invariants hold after every step.
func TestLeasePoolNeverLosesOrDoubleCounts(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p, clk := newFakePool(time.Second)
			specs := poolSpecs(20)
			p.add(specs)
			keys := make([]string, len(specs))
			for i, s := range specs {
				keys[i] = s.Key()
			}
			freshCount := map[string]int{}
			workers := []string{"wa", "wb", "wc"}
			var leaseIDs []string

			for step := 0; step < 600; step++ {
				op := rng.Intn(10)
				watch := watchPool(p, op == 4)
				switch op {
				case 0, 1, 2: // acquire; op 2 takes an in-process lease
					w := workers[rng.Intn(len(workers))]
					if l, _ := p.acquire(w, 1+rng.Intn(5), op == 2); l != nil {
						leaseIDs = append(leaseIDs, l.id)
					}
				case 3: // heartbeat a random (possibly dead) lease
					if len(leaseIDs) > 0 {
						p.heartbeat(leaseIDs[rng.Intn(len(leaseIDs))], workers[rng.Intn(len(workers))], rng.Intn(5))
					}
				case 4: // time passes; maybe leases expire
					clk.advance(time.Duration(rng.Intn(700)) * time.Millisecond)
					p.expire()
				default: // finish a random key — duplicates and late results included
					key := keys[rng.Intn(len(keys))]
					fresh, known := p.finish(workers[rng.Intn(len(workers))], key)
					if !known {
						t.Fatalf("step %d: pool forgot key %q", step, key)
					}
					if fresh {
						freshCount[key]++
					}
				}
				checkPoolInvariants(t, p, watch)
			}
			// Drain: finish everything still unfinished.
			for _, key := range keys {
				if fresh, known := p.finish("wa", key); !known {
					t.Fatalf("drain: pool forgot key %q", key)
				} else if fresh {
					freshCount[key]++
				}
			}
			for _, key := range keys {
				if freshCount[key] != 1 {
					t.Fatalf("key %q first-completed %d times, want exactly 1", key, freshCount[key])
				}
			}
			if g := p.gauges(); g.SpecsPending != 0 || g.LeasesOutstanding != 0 {
				t.Fatalf("after drain: %+v", g)
			}
		})
	}
}

// newLeaseTestServer builds a lease-only coordinator over a fresh data
// dir with a fast TTL, plus its HTTP front.
func newLeaseTestServer(t *testing.T, dataDir string, ttl time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	h := harness.New(srvScale)
	s, err := New(Options{Harness: h, DataDir: dataDir, Logf: t.Logf, LeaseOnly: true, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestLeaseProtocolEndToEnd drives the wire protocol by hand (no Worker
// loop): submit a campaign to a lease-only coordinator, acquire the
// lease, push results computed on a local harness, and verify the
// campaign report equals a local-execution daemon's byte for byte. A
// replay of the same push must dedupe, not double-count.
func TestLeaseProtocolEndToEnd(t *testing.T) {
	ctx := testCtx(t)
	specs := srvSpecs()

	// Reference: local-execution daemon.
	refS, _ := newTestServer(t, t.TempDir())
	refTS := httptest.NewServer(refS.Handler())
	defer refTS.Close()
	refCl := NewClient(refTS.URL)
	refAck, err := refCl.Submit(ctx, "wire", specs)
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

	_, ts := newLeaseTestServer(t, t.TempDir(), time.Minute)
	cl := NewClient(ts.URL)
	ack, err := cl.Submit(ctx, "wire", specs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != refAck.ID {
		t.Fatalf("same sweep, different campaign IDs: %q vs %q", ack.ID, refAck.ID)
	}
	st, err := cl.Status(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Completed != 0 {
		t.Fatalf("lease-only campaign should wait for workers, got %+v", st)
	}

	grant, err := cl.AcquireLease(ctx, "hand-worker", 64)
	if err != nil {
		t.Fatal(err)
	}
	if grant.ID == "" || len(grant.Specs) != len(specs) || grant.Scale != srvScale.Name {
		t.Fatalf("grant: %+v", grant)
	}
	if _, err := cl.Heartbeat(ctx, grant.ID, "hand-worker", 0); err != nil {
		t.Fatal(err)
	}

	// Execute locally and push.
	wh := harness.New(srvScale)
	var entries []campaign.Entry
	for _, spec := range grant.Specs {
		r, err := wh.RunContext(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, campaign.Entry{Key: spec.Key(), Result: r})
	}
	rr, err := cl.PushResults(ctx, grant.ID, "hand-worker", entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Accepted != len(specs) || rr.Duplicates != 0 || rr.Unknown != 0 {
		t.Fatalf("first push: %+v", rr)
	}
	// Exact replay: everything dedupes.
	rr2, err := cl.PushResults(ctx, grant.ID, "hand-worker", entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Accepted != 0 || rr2.Duplicates != len(specs) {
		t.Fatalf("replayed push: %+v", rr2)
	}

	st, err = cl.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(specs) {
		t.Fatalf("campaign finished as %+v", st)
	}
	got, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lease-mode report differs from local-execution report (%d vs %d bytes)", len(got), len(want))
	}

	ws, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].Worker != "hand-worker" || ws[0].SpecsCompleted != uint64(len(specs)) {
		t.Fatalf("worker registry: %+v", ws)
	}
}

// TestLeasePushFiresOnResult: results a worker pushes to a lease-only
// coordinator fire the coordinator's OnResult once each, so a provenance
// roll-up attached there (bertid -provenance) counts every run.
func TestLeasePushFiresOnResult(t *testing.T) {
	ctx := testCtx(t)
	h := harness.New(srvScale)
	rollup := harness.NewProvenanceRollup()
	rollup.Attach(h)
	s, err := New(Options{Harness: h, DataDir: t.TempDir(), Logf: t.Logf, LeaseOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	w := &Worker{
		ID: "w1", Client: NewClient(ts.URL), Harness: harness.New(srvScale),
		MaxSpecs: 2, PollInterval: 20 * time.Millisecond, Logf: t.Logf,
	}
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- w.Run(wctx) }()

	specs := srvSpecs()
	cl := NewClient(ts.URL)
	ack, err := cl.Submit(ctx, "pushed", specs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitCampaign(ctx, ack.ID)
	wcancel()
	if werr := <-done; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(specs) {
		t.Fatalf("campaign finished as %+v", st)
	}
	if rep := rollup.Report(); rep.Runs != len(specs) {
		t.Fatalf("roll-up saw %d run(s), want %d", rep.Runs, len(specs))
	}
}

// TestPushedFailureFailsLaterCampaigns: a failure a worker pushes to a
// lease-only coordinator is memoized on the coordinator's harness, so a
// later campaign naming that key is not leased out again and finishes
// failed with the pushed error text, byte for byte.
func TestPushedFailureFailsLaterCampaigns(t *testing.T) {
	ctx := testCtx(t)
	s, ts := newLeaseTestServer(t, t.TempDir(), time.Minute)
	cl := NewClient(ts.URL)
	specs := srvSpecs()
	key := specs[0].Key()
	const msg = "worker w1: run <failed> & \"exploded\" é"

	// run submits specs as a campaign, fails every spec the worker is
	// granted (pushing msg for key), and returns the finished report.
	run := func(specs []harness.RunSpec, wantGranted string) *Report {
		t.Helper()
		ack, err := cl.Submit(ctx, "pushed-failure", specs)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := cl.AcquireLease(ctx, "w1", 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Specs) != 1 || grant.Specs[0].Key() != wantGranted {
			t.Fatalf("granted %+v, want only %q", grant.Specs, wantGranted)
		}
		text := msg
		if wantGranted != key {
			text = "second failure"
		}
		rr, err := cl.PushResults(ctx, grant.ID, "w1", nil, []RunFailure{{Key: wantGranted, Error: text}})
		if err != nil {
			t.Fatal(err)
		}
		if rr.Failed != 1 {
			t.Fatalf("push: %+v", rr)
		}
		st, err := cl.WaitCampaign(ctx, ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || st.Failed != len(specs) {
			t.Fatalf("campaign finished as %+v, want %d failed", st, len(specs))
		}
		body, err := cl.Report(ctx, ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		return &rep
	}
	first := run(specs[:1], key)
	if len(first.Failed) != 1 || first.Failed[0].Error != msg {
		t.Fatalf("first campaign's failures: %+v", first.Failed)
	}
	fails := s.h.Failures()
	if len(fails) != 1 || fails[0].Spec.Key() != key || fails[0].Err.Error() != msg {
		t.Fatalf("coordinator harness failures: %v, want the pushed one", fails)
	}
	later := run(specs[:2], specs[1].Key())
	var again []failedRun
	for _, f := range later.Failed {
		if f.Key == key {
			again = append(again, f)
		}
	}
	if len(again) != 1 || again[0].Error != msg {
		t.Fatalf("later campaign reports %+v for %q, want the pushed text %q", again, key, msg)
	}
}

// TestClientRetriesTransient pins the retry discipline: 5xx and transport
// errors retry with the deterministic backoff; 4xx (including 410 for a
// dead lease) surface immediately.
func TestClientRetriesTransient(t *testing.T) {
	ctx := testCtx(t)
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/workers", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"hiccup"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("[]\n"))
	})
	var hbCalls atomic.Int64
	mux.HandleFunc("POST /api/v1/leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		hbCalls.Add(1)
		http.Error(w, `{"error":"lease gone"}`, http.StatusGone)
	})
	var badCalls atomic.Int64
	mux.HandleFunc("POST /api/v1/leases", func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		http.Error(w, `{"error":"no"}`, http.StatusBadRequest)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := NewClient(ts.URL)
	cl.Retry = harness.RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond}

	if _, err := cl.Workers(ctx); err != nil {
		t.Fatalf("two 503s then success should succeed, got %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("transient 503 retried %d times total, want 3 calls", n)
	}

	_, err := cl.Heartbeat(ctx, "l000001", "w", 0)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("410 heartbeat: got %v, want ErrLeaseLost", err)
	}
	if n := hbCalls.Load(); n != 1 {
		t.Fatalf("permanent 410 hit the server %d times, want exactly 1", n)
	}

	if _, err := cl.AcquireLease(ctx, "w", 1); err == nil {
		t.Fatal("400 acquire should error")
	}
	if n := badCalls.Load(); n != 1 {
		t.Fatalf("permanent 400 hit the server %d times, want exactly 1", n)
	}

	// Transport-level failure against a dead server retries, then gives a
	// cancel-typed error when the context dies mid-backoff.
	dead := NewClient("http://127.0.0.1:1")
	dead.Retry = harness.RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	cctx, cancel := context.WithTimeout(ctx, 60*time.Millisecond)
	defer cancel()
	_, err = dead.Workers(cctx)
	var ce *sim.CancelError
	if err == nil {
		t.Fatal("dead server should error")
	}
	if !errors.As(err, &ce) && cctx.Err() == nil {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

// TestLeaseDrainBehaviour: a draining coordinator refuses new leases
// (503) and tells heartbeating workers to abandon their batches (410),
// but still accepts results — landed work is never thrown away.
func TestLeaseDrainBehaviour(t *testing.T) {
	ctx := testCtx(t)
	s, ts := newLeaseTestServer(t, t.TempDir(), time.Minute)
	cl := NewClient(ts.URL)
	cl.Retry = harness.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond}

	spec := harness.RunSpec{Workload: "roms_like", L1DPf: "next-line"}
	s.pool.add([]harness.RunSpec{spec})
	grant, err := cl.AcquireLease(ctx, "drain-worker", 1)
	if err != nil || grant.ID == "" {
		t.Fatalf("pre-drain acquire: grant=%+v err=%v", grant, err)
	}
	r, err := harness.New(srvScale).RunContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	s.Drain()
	if _, err := cl.AcquireLease(ctx, "drain-worker", 1); err == nil {
		t.Fatal("draining coordinator granted a lease")
	}
	if _, err := cl.Heartbeat(ctx, grant.ID, "drain-worker", 0); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("draining heartbeat: got %v, want ErrLeaseLost", err)
	}
	rr, err := cl.PushResults(ctx, grant.ID, "drain-worker", []campaign.Entry{{Key: spec.Key(), Result: r}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Accepted != 1 {
		t.Fatalf("draining coordinator rejected a result: %+v", rr)
	}
}
