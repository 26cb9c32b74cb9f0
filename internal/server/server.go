package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/sim"
)

// APISchemaVersion governs every JSON document the HTTP API serves.
const APISchemaVersion = 1

// ReportSchemaVersion governs the campaign report document, which the
// daemon serves and cmd/experiments -json-out writes.
const ReportSchemaVersion = 1

// Options configures a Server.
type Options struct {
	// Harness executes the runs (required). The daemon runs
	// max(Harness.Workers, 1) in-process lease workers on it. The server
	// installs no OnResult hook; set one of your own before New starts
	// the workers. It fires once per run: from the harness for an
	// in-process run, from the lease endpoint for a pushed result.
	Harness *harness.Harness
	// DataDir is the daemon's state root (required): campaign manifests
	// live in DataDir/campaigns, the content-addressed result store in
	// DataDir/results/<scale dir>, one directory per harness scale.
	DataDir string
	// Live receives run counters and serves /metrics; a listener-less one
	// is created when nil.
	Live *live.Server
	// Logf sinks operational log lines (log.Printf when nil).
	Logf func(format string, args ...any)
	// LeaseOnly makes the daemon a pure coordinator: it runs zero
	// in-process workers, so every spec waits in the lease pool for
	// bertiworker processes to pull. The lease endpoints are served either
	// way, and remote workers may join a default daemon too.
	LeaseOnly bool
	// LeaseTTL is how long a lease survives without a heartbeat or a
	// results push before its specs are reassigned (DefaultLeaseTTL if 0).
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence suggested to workers and the expiry
	// scan period (LeaseTTL/4 if 0).
	HeartbeatInterval time.Duration
}

// Server is the campaign service: it admits experiment specs over HTTP,
// dedupes them against everything ever computed (memo cache, result store,
// lease pool), hands fresh work to in-process and remote lease workers,
// and stores every completion durably so a killed daemon resumes every
// in-flight campaign on restart from its manifest and the result store.
type Server struct {
	h       *harness.Harness
	live    *live.Server
	store   *Store
	campDir string
	logf    func(string, ...any)
	mux     *http.ServeMux
	pool    *leasePool

	runCtx     context.Context
	cancelRuns context.CancelFunc
	workerWG   sync.WaitGroup
	drainOnce  sync.Once

	mu        sync.Mutex
	campaigns map[string]*campaignState
	draining  bool
}

// New builds the server: opens the result store for the harness's scale,
// recovers every on-disk campaign (unfinished specs re-enqueued), and
// starts the in-process lease workers. Mount Handler on an HTTP listener
// to serve it.
func New(opts Options) (*Server, error) {
	if opts.Harness == nil {
		return nil, errors.New("server: Options.Harness is required")
	}
	if opts.DataDir == "" {
		return nil, errors.New("server: Options.DataDir is required")
	}
	store, err := NewStore(filepath.Join(opts.DataDir, "results", scaleDir(opts.Harness.Scale)))
	if err != nil {
		return nil, err
	}
	campDir := filepath.Join(opts.DataDir, "campaigns")
	if err := os.MkdirAll(campDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	lv := opts.Live
	if lv == nil {
		lv = live.NewServer()
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		h:         opts.Harness,
		live:      lv,
		store:     store,
		campDir:   campDir,
		logf:      logf,
		campaigns: map[string]*campaignState{},
	}
	s.pool = newLeasePool(opts.LeaseTTL, opts.HeartbeatInterval, lv)
	lv.SetFleetGauges(s.pool.gauges)
	s.runCtx, s.cancelRuns = context.WithCancel(context.Background())
	s.buildMux()
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 1; !opts.LeaseOnly && i <= max(s.h.Workers, 1); i++ {
		s.workerWG.Add(1)
		go s.localWorker(fmt.Sprintf("local-%d", i))
	}
	s.workerWG.Add(1)
	go s.expiryLoop()
	return s, nil
}

// localWorker is one in-process lease worker. It takes one spec per
// acquire, runs it on the harness, and lands the outcome through
// acceptEntry or acceptFailure, the same finish-gated path a remote push
// takes. Idle, it blocks on the pool's wake channel, taken before acquire
// so a spec added in between still wakes it. A drain cancels the run and
// leaves its spec leased; the manifest and result store resume it next
// life.
func (s *Server) localWorker(id string) {
	defer s.workerWG.Done()
	for s.runCtx.Err() == nil {
		wake := s.pool.wakeChan()
		_, specs := s.pool.acquire(id, 1, true)
		if specs == nil {
			select {
			case <-wake:
			case <-s.runCtx.Done():
			}
			continue
		}
		spec := specs[0]
		r, err := s.h.RunContext(s.runCtx, spec)
		switch {
		case err == nil:
			s.acceptEntry(id, spec.Key(), r)
		case !sim.IsCancel(err):
			// Normalised to a *harness.RunError as the harness's batch
			// runner does, so the failure text matches a worker's push.
			var re *harness.RunError
			if !errors.As(err, &re) {
				re = &harness.RunError{Spec: spec, Attempts: 1, Err: err}
			}
			s.acceptFailure(id, spec.Key(), re.Error())
		}
	}
}

// recover rebuilds every on-disk campaign after a restart. Each manifest
// names a campaign's specs; enqueue counts the ones the result store
// already holds and re-queues the rest. A manifest that does not load, or
// was written at another scale, is skipped with a log line.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.campDir)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	for _, de := range entries {
		if !strings.HasSuffix(de.Name(), ManifestExt) {
			continue
		}
		m, err := readManifest(filepath.Join(s.campDir, de.Name()))
		if err != nil {
			s.logf("server: skipping campaign manifest %s: %v", de.Name(), err)
			continue
		}
		if m.Scale != s.h.Scale {
			s.logf("server: skipping campaign %s: manifest scale %+v, daemon runs %+v", m.ID, m.Scale, s.h.Scale)
			continue
		}
		c := newCampaignState(m.ID, m.Name, m.Specs)
		s.mu.Lock()
		s.campaigns[c.id] = c
		s.mu.Unlock()
		s.enqueue(c)
		s.logf("server: resumed campaign %s (%d specs, %d already complete)", c.id, len(c.specs), c.status().Completed)
	}
	return nil
}

// enqueue counts what of c is already finished (a memoized result, the
// result store, or a failure memoized this daemon life) and adds the
// remainder to the lease pool. Safe to call exactly once per
// campaignState, after c is registered. Counters start pessimistic
// (everything remaining) and dedupe per key, so a completion racing this
// call is counted once. A key the pool finished after the checks below
// was landed by acceptEntry or acceptFailure, which saw c registered and
// noted it.
func (s *Server) enqueue(c *campaignState) {
	var todo []harness.RunSpec
	for _, spec := range c.specs {
		key := spec.Key()
		if _, ok := s.h.ResultFor(key); ok {
			c.noteKeyDone(key)
			continue
		}
		if r, ok := s.store.Get(key); ok {
			s.h.SeedResult(key, r)
			c.noteKeyDone(key)
			continue
		}
		if err := s.h.FailureFor(key); err != nil {
			c.noteKeyFailed(key, err.Error())
			continue
		}
		todo = append(todo, spec)
	}
	s.pool.add(todo)
}

// Drain stops the service gracefully: new submissions get 503, the run
// context is cancelled so in-flight simulations stop cooperatively at the
// engine's next poll stride, every completed run is already in the result
// store (Store.Put syncs before it renames), and the in-process workers
// exit. Idempotent; returns once every worker has stopped.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.cancelRuns()
		s.workerWG.Wait()
	})
}

// Close is Drain (the HTTP listener belongs to the caller).
func (s *Server) Close() error {
	s.Drain()
	return nil
}

// Handler returns the API mux:
//
//	POST /api/v1/campaigns           — submit a spec set; identical sets dedupe
//	GET  /api/v1/campaigns           — list campaign statuses
//	GET  /api/v1/campaigns/{id}      — one campaign's status
//	GET  /api/v1/campaigns/{id}/report — deterministic JSON report (done only)
//	GET  /api/v1/campaigns/{id}/stream — SSE progress stream
//	POST /api/v1/leases              — worker acquires a batch of specs
//	POST /api/v1/leases/{id}/heartbeat — worker extends its lease
//	POST /api/v1/leases/{id}/results — worker pushes results (idempotent)
//	GET  /api/v1/workers             — worker registry
//	GET  /healthz                    — daemon state
//	GET  /metrics, /metrics/provenance, /debug/vars — the live metrics mux
func (s *Server) Handler() http.Handler { return s.mux }

// Live returns the embedded metrics server (the daemon wires provenance
// attribution through it).
func (s *Server) Live() *live.Server { return s.live }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /api/v1/leases", s.handleLeaseAcquire)
	mux.HandleFunc("POST /api/v1/leases/{id}/heartbeat", s.handleLeaseHeartbeat)
	mux.HandleFunc("POST /api/v1/leases/{id}/results", s.handleLeaseResults)
	mux.HandleFunc("GET /api/v1/workers", s.handleWorkers)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.live.Mount(mux)
	s.mux = mux
}

// ---- API documents ----

// SubmitRequest is the POST /api/v1/campaigns body. Specs use the harness
// RunSpec JSON shape; duplicate keys within one submission collapse.
type SubmitRequest struct {
	Name  string            `json:"name,omitempty"`
	Specs []harness.RunSpec `json:"specs"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	// Existing reports that an identical campaign was already known (from
	// any client, or a previous daemon life); the submission attached to it
	// instead of re-running anything.
	Existing  bool   `json:"existing"`
	Total     int    `json:"total"`
	StatusURL string `json:"status_url"`
}

// CampaignStatus is the status document for one campaign.
type CampaignStatus struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Name          string `json:"name,omitempty"`
	State         string `json:"state"`
	Total         int    `json:"total"`
	Completed     int    `json:"completed"`
	Failed        int    `json:"failed"`
	// StoreError is the first result-store write failure for any of the
	// campaign's keys. Those results are served this daemon life but
	// re-execute after a restart.
	StoreError string `json:"store_error,omitempty"`
}

// Report is the final campaign document: every completed run sorted by
// memo key. For one campaign it is byte-identical whether the campaign ran
// uninterrupted or across any number of daemon restarts — the CI
// campaign-server job enforces exactly that. cmd/experiments -json-out
// writes the same document with no ID, marking an interrupted batch
// Partial.
type Report struct {
	SchemaVersion int              `json:"schema_version"`
	ID            string           `json:"id,omitempty"`
	Name          string           `json:"name,omitempty"`
	Scale         harness.Scale    `json:"scale"`
	Partial       bool             `json:"partial,omitempty"`
	Runs          []campaign.Entry `json:"runs"`
	Failed        []failedRun      `json:"failed,omitempty"`
}

// SortedRuns sorts keys in place and resolves each through h's memo
// cache; keys without a memoized result are left out. Every Report lists
// its runs this way.
func SortedRuns(h *harness.Harness, keys []string) []campaign.Entry {
	sort.Strings(keys)
	runs := make([]campaign.Entry, 0, len(keys))
	for _, k := range keys {
		if r, ok := h.ResultFor(k); ok {
			runs = append(runs, campaign.Entry{Key: k, Result: r})
		}
	}
	return runs
}

// apiError is every non-2xx JSON body. Field/Name carry the typed
// *harness.SpecError breakdown for validation failures.
type apiError struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
	Name  string `json:"name,omitempty"`
}

// maxBodyBytes bounds request bodies (a full-scale sweep is well under
// this; anything bigger is a mistake or abuse).
const maxBodyBytes = 32 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	doc := apiError{Error: err.Error()}
	var se *harness.SpecError
	if errors.As(err, &se) {
		doc.Field, doc.Name = se.Field, se.Name
	}
	writeJSON(w, code, doc)
}

// ---- handlers ----

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	state := "running"
	if s.draining {
		state = "draining"
	}
	n := len(s.campaigns)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": APISchemaVersion,
		"state":          state,
		"scale":          s.h.Scale.Name,
		"campaigns":      n,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("a campaign needs at least one spec"))
		return
	}
	for i, spec := range req.Specs {
		if err := harness.ValidateSpec(spec); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("spec %d: %w", i, err))
			return
		}
	}
	specs := dedupeSpecs(req.Specs)
	id := CampaignID(s.h.Scale, specs)

	s.mu.Lock()
	if c, ok := s.campaigns[id]; ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, &SubmitResponse{
			SchemaVersion: APISchemaVersion,
			ID:            id,
			Existing:      true,
			Total:         len(c.specs),
			StatusURL:     "/api/v1/campaigns/" + id,
		})
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errors.New("daemon is draining; not admitting new campaigns"))
		return
	}
	// Write the manifest and register under the lock, so a concurrent
	// identical submission attaches to this campaign instead of racing the
	// file, and the campaign is never visible without its manifest.
	m := &Manifest{SchemaVersion: ManifestSchemaVersion, ID: id, Name: req.Name, Scale: s.h.Scale, Specs: specs}
	if err := writeManifest(filepath.Join(s.campDir, id+ManifestExt), m); err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("writing manifest: %w", err))
		return
	}
	c := newCampaignState(id, req.Name, specs)
	s.campaigns[id] = c
	s.mu.Unlock()

	s.enqueue(c)
	writeJSON(w, http.StatusAccepted, &SubmitResponse{
		SchemaVersion: APISchemaVersion,
		ID:            id,
		Total:         len(specs),
		StatusURL:     "/api/v1/campaigns/" + id,
	})
}

func (s *Server) campaignByID(id string) (*campaignState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	all := make([]*campaignState, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		all = append(all, c)
	}
	s.mu.Unlock()
	statuses := make([]*CampaignStatus, len(all))
	for i, c := range all {
		statuses[i] = c.status()
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{
		"schema_version": APISchemaVersion,
		"campaigns":      statuses,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown campaign"))
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown campaign"))
		return
	}
	st := c.status()
	if st.State == StateRunning {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("campaign is still %s (%d of %d complete)", st.State, st.Completed, st.Total))
		return
	}
	writeJSON(w, http.StatusOK, s.buildReport(c))
}

// buildReport assembles the deterministic report: the campaign's runs
// through SortedRuns (the result store seeded the memo cache after any
// restart) and its failures sorted by key.
func (s *Server) buildReport(c *campaignState) *Report {
	keys := make([]string, 0, len(c.keys))
	for k := range c.keys {
		keys = append(keys, k)
	}
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		ID:            c.id,
		Name:          c.name,
		Scale:         s.h.Scale,
		Runs:          SortedRuns(s.h, keys),
	}
	c.mu.Lock()
	failed := append([]failedRun(nil), c.failed...)
	c.mu.Unlock()
	sort.Slice(failed, func(i, j int) bool { return failed[i].Key < failed[j].Key })
	rep.Failed = failed
	return rep
}

// handleStream serves server-sent events: one status document per progress
// change, a final one when the campaign finishes, then the stream closes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown campaign"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	events, cancel := c.subscribe()
	defer cancel()
	send := func() bool {
		body, err := json.Marshal(c.status())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", body); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	for {
		select {
		case <-events:
			if !send() {
				return
			}
		case <-c.done:
			send()
			return
		case <-r.Context().Done():
			return
		}
	}
}
