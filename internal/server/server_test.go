package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/sim"
)

// srvScale keeps server tests fast (the harness tiers are exercised
// elsewhere; here the simulations are just real-enough payloads).
var srvScale = harness.Scale{Name: "srv-test", MemRecords: 30_000, WarmupInstr: 20_000, SimInstr: 50_000, Mixes: 2}

func srvSpecs() []harness.RunSpec {
	return []harness.RunSpec{
		{Workload: "mcf_like_1554", L1DPf: "ip-stride"},
		{Workload: "mcf_like_1554", L1DPf: "next-line"},
		{Workload: "roms_like", L1DPf: "ip-stride"},
	}
}

// newTestServer builds a server over a fresh harness and data dir and
// registers cleanup. Tests that restart the daemon call New directly.
func newTestServer(t *testing.T, dataDir string) (*Server, *harness.Harness) {
	t.Helper()
	h := harness.New(srvScale)
	s, err := New(Options{Harness: h, DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s, h
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestCampaignLifecycle drives the full happy path over real HTTP: submit,
// watch status converge, and fetch a deterministic report — two fetches of
// the same finished campaign must be byte-identical, and a duplicate
// submission must attach to the existing campaign instead of re-running.
func TestCampaignLifecycle(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := testCtx(t)

	ack, err := cl.Submit(ctx, "lifecycle", srvSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if ack.Existing || ack.Total != 3 {
		t.Fatalf("first submit: existing=%v total=%d, want fresh total 3", ack.Existing, ack.Total)
	}
	st, err := cl.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("campaign finished as %+v, want done 3/3", st)
	}

	rep1, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("two report fetches of the same campaign differ")
	}
	var rep Report
	if err := json.Unmarshal(rep1, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 || rep.ID != ack.ID {
		t.Fatalf("report holds %d runs for %q, want 3 for %q", len(rep.Runs), rep.ID, ack.ID)
	}
	for i := 1; i < len(rep.Runs); i++ {
		if rep.Runs[i-1].Key >= rep.Runs[i].Key {
			t.Fatalf("report runs not sorted by key: %q then %q", rep.Runs[i-1].Key, rep.Runs[i].Key)
		}
	}

	// Resubmitting the identical sweep (shuffled, with a duplicate) joins
	// the finished campaign.
	specs := srvSpecs()
	specs = append([]harness.RunSpec{specs[2], specs[0], specs[1]}, specs[0])
	again, err := cl.Submit(ctx, "lifecycle-again", specs)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existing || again.ID != ack.ID {
		t.Fatalf("identical resubmit: existing=%v id=%q, want existing id %q", again.Existing, again.ID, ack.ID)
	}
}

// TestConcurrentDuplicateSubmission is the dedup contract: two clients
// POSTing the same spec set simultaneously share one campaign, and every
// unique spec executes exactly once — OnResult (counted per key under
// -race) must never fire twice for one key.
func TestConcurrentDuplicateSubmission(t *testing.T) {
	s, h := newTestServer(t, t.TempDir())
	var mu sync.Mutex
	perKey := map[string]int{}
	prev := h.OnResult
	h.OnResult = func(key string, spec harness.RunSpec, r *sim.Result) {
		mu.Lock()
		perKey[key]++
		mu.Unlock()
		if prev != nil {
			prev(key, spec, r)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := testCtx(t)

	const clients = 4
	acks := make([]*SubmitResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acks[i], errs[i] = NewClient(ts.URL).Submit(ctx, "dup", srvSpecs())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if acks[i].ID != acks[0].ID {
			t.Fatalf("clients landed on different campaigns: %q vs %q", acks[i].ID, acks[0].ID)
		}
	}
	if _, err := NewClient(ts.URL).WaitCampaign(ctx, acks[0].ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perKey) != 3 {
		t.Fatalf("OnResult saw %d distinct keys, want 3: %v", len(perKey), perKey)
	}
	for k, n := range perKey {
		if n != 1 {
			t.Fatalf("spec %q executed %d times, want exactly once", k, n)
		}
	}
}

// TestLocalLeasesNeverExpire pins the in-process worker contract: their
// leases carry no deadline, so a default daemon whose TTL is far shorter
// than every run still executes each spec exactly once, with no expiry or
// reassignment, and its workers appear in the registry like remote ones.
func TestLocalLeasesNeverExpire(t *testing.T) {
	// At this scale each mcf run takes ~100 ms on a 2-vCPU host, five
	// times the lease TTL; the expiry scan runs every 5 ms.
	h := harness.New(harness.Scale{Name: "srv-slow", MemRecords: 30_000, WarmupInstr: 20_000, SimInstr: 300_000, Mixes: 2})
	h.Workers = 2
	var mu sync.Mutex
	perKey := map[string]int{}
	h.OnResult = func(key string, _ harness.RunSpec, _ *sim.Result) {
		mu.Lock()
		perKey[key]++
		mu.Unlock()
	}
	s, err := New(Options{
		Harness:           h,
		DataDir:           t.TempDir(),
		Logf:              t.Logf,
		LeaseTTL:          20 * time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := testCtx(t)

	var specs []harness.RunSpec
	for _, pf := range []string{"next-line", "ip-stride", "berti", "bop"} {
		specs = append(specs, harness.RunSpec{Workload: "mcf_like_1554", L1DPf: pf})
	}
	ack, err := cl.Submit(ctx, "slow", specs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(specs) {
		t.Fatalf("campaign finished as %+v, want done %d/%d", st, len(specs), len(specs))
	}
	mu.Lock()
	if len(perKey) != len(specs) {
		t.Fatalf("OnResult saw %d distinct keys, want %d: %v", len(perKey), len(specs), perKey)
	}
	for k, n := range perKey {
		if n != 1 {
			t.Fatalf("spec %q executed %d times, want exactly once", k, n)
		}
	}
	mu.Unlock()

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
	if fl := snap.Fleet; fl.LeasesExpired != 0 || fl.SpecsReassigned != 0 {
		t.Fatalf("fleet metrics: %+v, want no expired leases and no reassigned specs", fl)
	}

	ws, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != h.Workers {
		t.Fatalf("worker registry lists %d workers, want the %d in-process ones: %+v", len(ws), h.Workers, ws)
	}
	var done uint64
	for _, w := range ws {
		if !strings.HasPrefix(w.Worker, "local-") || !w.Live {
			t.Fatalf("registry row %+v, want a live in-process worker", w)
		}
		done += w.SpecsCompleted
	}
	if done != uint64(st.Total) {
		t.Fatalf("in-process workers completed %d specs, want the campaign's %d", done, st.Total)
	}
}

// TestFailedSpecFailsEveryCampaign: a spec that failed this daemon life
// fails again, with the same text, in a later campaign that names it — it
// neither hangs nor counts as complete.
func TestFailedSpecFailsEveryCampaign(t *testing.T) {
	h := harness.New(srvScale)
	h.RunTimeout = time.Nanosecond
	s, err := New(Options{Harness: h, DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := testCtx(t)

	specs := srvSpecs()
	failures := func(specs []harness.RunSpec) []failedRun {
		t.Helper()
		ack, err := cl.Submit(ctx, "fail", specs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.WaitCampaign(ctx, ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || st.Completed != 0 || st.Failed != len(specs) {
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
		return rep.Failed
	}
	first := failures(specs[:1])
	later := failures(specs[:2])
	key := specs[0].Key()
	if first[0].Key != key || first[0].Error == "" {
		t.Fatalf("first campaign's failure: %+v", first)
	}
	var again []failedRun
	for _, f := range later {
		if f.Key == key {
			again = append(again, f)
		}
	}
	if len(again) != 1 || again[0].Error != first[0].Error {
		t.Fatalf("later campaign reports %+v for %q, want the first failure %q", again, key, first[0].Error)
	}
}

// TestRestartResumesCampaign is the crash-resume contract in-process: a
// campaign interrupted by a drain (standing in for SIGKILL — every store
// write is synced, so the drain adds nothing the store needs) must resume
// on a fresh daemon over the same data dir and finish with a report
// byte-identical to an uninterrupted run of the same sweep.
func TestRestartResumesCampaign(t *testing.T) {
	dataDir := t.TempDir()
	ctx := testCtx(t)

	// Reference: the same sweep run uninterrupted on a separate data dir.
	ref, _ := newTestServer(t, t.TempDir())
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	refCl := NewClient(refTS.URL)
	refAck, err := refCl.Submit(ctx, "resume", srvSpecs())
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

	// Life 1: serialize the pool so the campaign cannot finish instantly,
	// submit, wait for the first stored completion, then tear down with
	// work still pending.
	h1 := harness.New(srvScale)
	h1.Workers = 1
	s1, err := New(Options{Harness: h1, DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	cl1 := NewClient(ts1.URL)
	ack, err := cl1.Submit(ctx, "resume", srvSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != refAck.ID {
		t.Fatalf("same sweep produced different campaign IDs: %q vs %q", ack.ID, refAck.ID)
	}
	// The campaign counts a key complete only after its store write.
	for {
		st, err := cl1WaitlessStatus(s1, ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed >= 1 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for the first completion")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s1.Drain()
	ts1.Close()
	if st, err := cl1WaitlessStatus(s1, ack.ID); err == nil && st.Completed == st.Total {
		t.Skip("campaign finished before the drain landed; nothing to resume")
	}

	// Life 2: a fresh daemon over the same data dir must recover the
	// campaign from manifest+store and finish it.
	h2 := harness.New(srvScale)
	s2, err := New(Options{Harness: h2, DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Drain)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	cl2 := NewClient(ts2.URL)
	st, err := cl2.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != 3 {
		t.Fatalf("resumed campaign finished as %+v, want done 3/3", st)
	}
	got, err := cl2.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted report:\nresumed:\n%s\nuninterrupted:\n%s", got, want)
	}
}

// cl1WaitlessStatus peeks at a campaign's status without HTTP (the test
// server may already be closed).
func cl1WaitlessStatus(s *Server, id string) (*CampaignStatus, error) {
	c, ok := s.campaignByID(id)
	if !ok {
		return nil, errors.New("unknown campaign")
	}
	return s.status(c), nil
}

// TestClientBatchLandsEveryRun: Client.Batch runs a spec set as one
// campaign and lands each reported run in the client harness as a local
// run would land (memoized, OnResult once per key); a daemon-side failure
// is recorded as a client run failure, and specs the client already holds
// are not sent again.
func TestClientBatchLandsEveryRun(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.PollInterval = 20 * time.Millisecond
	ctx := testCtx(t)

	local := harness.New(srvScale)
	var fired atomic.Int32
	local.OnResult = func(string, harness.RunSpec, *sim.Result) { fired.Add(1) }
	specs := srvSpecs()
	if err := cl.Batch(ctx, local, specs); err != nil {
		t.Fatal(err)
	}
	if n := fired.Load(); n != int32(len(specs)) {
		t.Fatalf("client-side OnResult fired %d times, want %d", n, len(specs))
	}
	for _, spec := range specs {
		r, ok := local.ResultFor(spec.Key())
		if !ok || r.IPC() <= 0 {
			t.Fatalf("%s not landed in the client harness (ok=%v)", spec.Key(), ok)
		}
	}
	if err := cl.Batch(ctx, local, specs); err != nil || fired.Load() != int32(len(specs)) {
		t.Fatalf("a batch the client already holds must send nothing: err=%v fired=%d", err, fired.Load())
	}

	// A run that fails on the daemon fails on the client.
	fh := harness.New(srvScale)
	fh.RunTimeout = time.Nanosecond
	fs, err := New(Options{Harness: fh, DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Drain)
	fts := httptest.NewServer(fs.Handler())
	defer fts.Close()
	failing := harness.New(srvScale)
	if err := NewClient(fts.URL).Batch(ctx, failing, specs[:1]); err != nil {
		t.Fatal(err)
	}
	if f := failing.Failures(); len(f) != 1 || f[0].Spec.Key() != specs[0].Key() {
		t.Fatalf("daemon failure must be recorded against its spec, got %v", f)
	}
	if _, ok := failing.ResultFor(specs[0].Key()); ok {
		t.Fatal("a failed run must not be memoized as a result")
	}
}

// TestClientBatchScaleMismatch: a client whose scale differs from the
// daemon's gets both scale names back and lands nothing, so its report can
// never label the daemon's results with the client's scale.
func TestClientBatchScaleMismatch(t *testing.T) {
	micro := harness.Scale{Name: "micro", MemRecords: 8_000, WarmupInstr: 6_000, SimInstr: 15_000, Mixes: 1}
	s, err := New(Options{Harness: harness.New(micro), DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.PollInterval = 20 * time.Millisecond

	local := harness.New(srvScale)
	var fired atomic.Int32
	local.OnResult = func(string, harness.RunSpec, *sim.Result) { fired.Add(1) }
	err = cl.Batch(testCtx(t), local, srvSpecs()[:1])
	var sm *ScaleMismatchError
	if !errors.As(err, &sm) || sm.Client != srvScale.Name || sm.Daemon != micro.Name {
		t.Fatalf("want a scale mismatch naming %q and %q, got %v", srvScale.Name, micro.Name, err)
	}
	if !strings.Contains(err.Error(), srvScale.Name) || !strings.Contains(err.Error(), micro.Name) {
		t.Fatalf("mismatch error must name both scales: %v", err)
	}
	if len(local.Results()) != 0 || fired.Load() != 0 {
		t.Fatal("a mismatched report must land nothing")
	}
}

// TestSubmitValidation: invalid specs are rejected with the typed field
// breakdown, rehydrated client-side as *harness.SpecError.
func TestSubmitValidation(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := testCtx(t)

	_, err := cl.Submit(ctx, "bad", []harness.RunSpec{{Workload: "no_such_workload", L1DPf: "berti"}})
	var se *harness.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("invalid workload: got %v, want *harness.SpecError", err)
	}
	if se.Field != "Workload" || se.Name != "no_such_workload" {
		t.Fatalf("SpecError = %+v, want Field=Workload Name=no_such_workload", se)
	}

	_, err = cl.Submit(ctx, "bad", []harness.RunSpec{{Workload: "mcf_like_1554", L1DPf: "definitely-not-a-prefetcher"}})
	if !errors.As(err, &se) || se.Field != "L1DPf" {
		t.Fatalf("invalid prefetcher: got %v, want SpecError on L1DPf", err)
	}

	if _, err := cl.Submit(ctx, "empty", nil); err == nil || !strings.Contains(err.Error(), "at least one spec") {
		t.Fatalf("empty submit: got %v, want at-least-one-spec error", err)
	}

	if _, err := cl.Status(ctx, "0000000000000000"); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Fatalf("unknown campaign: got %v", err)
	}
}

// TestDrainRejectsNewWork: a draining daemon answers health with
// "draining" and turns away new campaigns with 503.
func TestDrainRejectsNewWork(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Drain()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.State != "draining" {
		t.Fatalf("health state = %q, want draining", health.State)
	}

	_, err = NewClient(ts.URL).Submit(context.Background(), "late", srvSpecs())
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit while draining: got %v, want draining rejection", err)
	}
}

// TestStoreRoundTrip: the content-addressed store is idempotent, collision
// -checked, and treats damage as a miss.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := harness.New(srvScale)
	spec := harness.RunSpec{Workload: "mcf_like_1554", L1DPf: "next-line"}
	r, err := h.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Key()
	if err := st.Put(key, r); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, r); err != nil {
		t.Fatalf("second Put must be a no-op, got %v", err)
	}
	got, ok := st.Get(key)
	if !ok {
		t.Fatal("Get missed a stored key")
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatal("stored result does not round-trip")
	}
	if _, ok := st.Get("w=never|mix=[]|l1=|l2=|dram=|seed=0"); ok {
		t.Fatal("Get invented a result for an unknown key")
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", st.Len())
	}
	// Damage the entry on disk: Get must report a miss, not garbage.
	if err := writeGarbage(st.path(key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("Get returned a damaged entry")
	}
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("{ damaged"), 0o644)
}

// runReport runs specs as one campaign on a daemon at scale over dataDir,
// drains it, and returns the served report bytes.
func runReport(t *testing.T, ctx context.Context, scale harness.Scale, dataDir, name string, specs []harness.RunSpec) []byte {
	t.Helper()
	s, err := New(Options{Harness: harness.New(scale), DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.PollInterval = 20 * time.Millisecond
	ack, err := cl.Submit(ctx, name, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitCampaign(ctx, ack.ID); err != nil {
		t.Fatal(err)
	}
	body, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRecoverSkipsBadManifests: a data dir holding a healthy campaign (one
// of its results already stored), a truncated manifest, a manifest at
// another scale and stray files still boots. The healthy campaign resumes,
// runs only what the store lacks, and finishes with a report
// byte-identical to a fresh run; each bad manifest is skipped with a log
// line and stray files are ignored.
func TestRecoverSkipsBadManifests(t *testing.T) {
	ctx := testCtx(t)
	specs := srvSpecs()
	want := runReport(t, ctx, srvScale, t.TempDir(), "healthy", specs)
	var ref Report
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}

	dataDir := t.TempDir()
	campDir := filepath.Join(dataDir, "campaigns")
	if err := os.MkdirAll(campDir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := func(scale harness.Scale, specs []harness.RunSpec) (string, *Manifest) {
		id := CampaignID(scale, specs)
		return filepath.Join(campDir, id+ManifestExt), &Manifest{SchemaVersion: ManifestSchemaVersion, ID: id, Name: "healthy", Scale: scale, Specs: specs}
	}
	healthyPath, healthy := manifest(srvScale, specs)
	if err := writeManifest(healthyPath, healthy); err != nil {
		t.Fatal(err)
	}
	tornPath, torn := manifest(srvScale, specs[:1])
	body, err := json.Marshal(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, body[:len(body)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	other := srvScale
	other.SimInstr = 100_000
	otherPath, otherM := manifest(other, specs[:2])
	if err := writeManifest(otherPath, otherM); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"notes.txt":                       "not a campaign",
		healthy.ID + ".journal":           "left by an older daemon",
		healthy.ID + ManifestExt + ".tmp": "{ torn",
	} {
		if err := os.WriteFile(filepath.Join(campDir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewStore(filepath.Join(dataDir, "results", scaleDir(srvScale)))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ref.Runs[0].Key, ref.Runs[0].Result); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	var ran int
	h := harness.New(srvScale)
	h.OnResult = func(string, harness.RunSpec, *sim.Result) {
		mu.Lock()
		ran++
		mu.Unlock()
	}
	s, err := New(Options{Harness: h, DataDir: dataDir, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatalf("boot over a damaged data dir: %v", err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.PollInterval = 20 * time.Millisecond
	st, err := cl.WaitCampaign(ctx, healthy.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(specs) {
		t.Fatalf("resumed campaign finished as %+v, want done %d/%d", st, len(specs), len(specs))
	}
	got, err := cl.Report(ctx, healthy.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from a fresh run:\nresumed:\n%s\nfresh:\n%s", got, want)
	}
	for _, id := range []string{torn.ID, otherM.ID} {
		if _, err := cl.Status(ctx, id); err == nil {
			t.Fatalf("campaign %s was recovered from a bad manifest", id)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if ran != len(specs)-1 {
		t.Fatalf("resume executed %d runs, want %d (one result was already stored)", ran, len(specs)-1)
	}
	all := strings.Join(logs, "\n")
	for _, want := range []string{
		"skipping campaign manifest " + filepath.Base(tornPath),
		"skipping campaign " + otherM.ID + ": manifest scale",
	} {
		if !strings.Contains(all, want) {
			t.Fatalf("no log line containing %q in:\n%s", want, all)
		}
	}
	if strings.Contains(all, "notes.txt") || strings.Contains(all, ".journal") || strings.Contains(all, ".tmp") {
		t.Fatalf("stray files must be ignored silently:\n%s", all)
	}
}

// TestStoreKeepsScalesApart: memo keys do not encode the scale, so a
// daemon at one scale must never report a result another scale's daemon
// stored in the same data dir. A spec completed at SimInstr 50000, then
// submitted to a SimInstr 100000 daemon over the same data dir, must run
// again: the report is byte-identical to a fresh daemon's at that scale.
func TestStoreKeepsScalesApart(t *testing.T) {
	ctx := testCtx(t)
	specs := srvSpecs()[:1]
	other := srvScale
	other.SimInstr = 100_000
	dataDir := t.TempDir()
	runReport(t, ctx, srvScale, dataDir, "scales", specs)
	got := runReport(t, ctx, other, dataDir, "scales", specs)
	want := runReport(t, ctx, other, t.TempDir(), "scales", specs)
	if !bytes.Equal(got, want) {
		t.Fatalf("a daemon at SimInstr %d reported another scale's stored result:\ngot:\n%s\nwant:\n%s", other.SimInstr, got, want)
	}
}

// TestStoreErrorOnStatus: a result the store cannot write is still served
// this daemon life, and the failure shows on the campaign's status. The
// status stays a plain CampaignStatus, so WaitCampaign still waits for the
// terminal state, and that state carries store_error.
func TestStoreErrorOnStatus(t *testing.T) {
	dataDir := t.TempDir()
	s, _ := newTestServer(t, dataDir)
	storeDir := filepath.Join(dataDir, "results", scaleDir(srvScale))
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(storeDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.PollInterval = 20 * time.Millisecond
	ctx := testCtx(t)

	specs := srvSpecs()[:1]
	ack, err := cl.Submit(ctx, "store-error", specs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(specs) || st.StoreError == "" {
		t.Fatalf("campaign finished as %+v, want done %d/%d with a store error", st, len(specs), len(specs))
	}
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc["state"] != StateDone || doc["store_error"] == nil || doc["store_error"] == "" {
		t.Fatalf("status document %v, want state done with store_error", doc)
	}
	body, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(specs) {
		t.Fatalf("report holds %d runs, want %d served from memory", len(rep.Runs), len(specs))
	}
}

// TestStreamSendsEachChange follows a campaign's SSE stream to its end:
// every event differs from the one before it, progress never goes back,
// the last event is the terminal status GET serves, and the stream then
// closes. No event counts a run complete before the result store holds
// it.
func TestStreamSendsEachChange(t *testing.T) {
	h := harness.New(srvScale)
	h.Workers = 2 // one run can land while the other is in flight
	s, err := New(Options{Harness: h, DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := testCtx(t)

	specs := srvSpecs()
	ack, err := cl.Submit(ctx, "stream", specs)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/campaigns/"+ack.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %s", resp.Status)
	}
	var events []CampaignStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		stored := s.store.Len()
		var st CampaignStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			t.Fatal(err)
		}
		if st.Completed > stored {
			t.Fatalf("event %+v counts %d complete, but the store holds %d results", st, st.Completed, stored)
		}
		if n := len(events); n > 0 {
			prev := events[n-1]
			if st == prev {
				t.Fatalf("event %d repeats the one before it: %+v", n, st)
			}
			if st.Completed+st.Failed < prev.Completed+prev.Failed {
				t.Fatalf("progress went back: %+v after %+v", st, prev)
			}
			if prev.State != StateRunning {
				t.Fatalf("event %+v after the terminal %+v", st, prev)
			}
		}
		events = append(events, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not close cleanly: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("stream sent no events")
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Completed != len(specs) {
		t.Fatalf("last event %+v, want done %d/%d", last, len(specs), len(specs))
	}
	got, err := cl.Status(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if *got != last {
		t.Fatalf("GET status %+v differs from the last event %+v", *got, last)
	}
}

// TestWriteManifestFailureLeavesNoTemp: a manifest write that fails (here
// its rename, over a non-empty directory at the manifest path) reports
// the error and leaves no temp file in the campaigns directory for a
// later recovery or operator to trip over.
func TestWriteManifestFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "0123456789abcdef"+ManifestExt)
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{SchemaVersion: ManifestSchemaVersion, ID: "0123456789abcdef", Scale: srvScale, Specs: srvSpecs()}
	if err := writeManifest(path, m); err == nil {
		t.Fatal("writing a manifest over a non-empty directory must fail")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != filepath.Base(path) {
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Fatalf("campaigns directory holds %v after a failed manifest write, want only the manifest path", names)
	}
}
