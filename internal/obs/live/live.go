// Package live exposes campaign observability over HTTP while simulations
// run: a JSON snapshot endpoint with run counters and the most recent
// sampler intervals, a provenance endpoint rendering the current
// cross-workload attribution, and the process's expvar page. The server is
// a pure observer — it only reads snapshots the simulation side pushes, so
// attaching it cannot perturb results.
package live

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/bertisim/berti/internal/obs"
)

// RecentRows bounds the sampler intervals kept for the snapshot endpoint.
const RecentRows = 64

// expvar's registry is process-global and Publish panics on duplicate
// names, so the berti map is published exactly once regardless of how many
// servers a process (or test binary) starts.
var (
	pubOnce sync.Once
	pubMap  *expvar.Map
)

func bertiVars() *expvar.Map {
	pubOnce.Do(func() { pubMap = expvar.NewMap("berti") })
	return pubMap
}

// Server serves live campaign metrics. It either owns its own HTTP
// listener (New) or is mounted onto an existing mux (NewServer + Mount —
// the campaign server embeds the same endpoints without duplicating the
// handler wiring).
//
//	GET /metrics             — JSON snapshot: schema version, run counters,
//	                           sampler-row counters, the last RecentRows
//	                           sampler intervals.
//	GET /metrics/provenance  — the attribution document from the installed
//	                           provider (404 until one is set).
//	GET /debug/vars          — the process expvar page (includes the
//	                           "berti" map mirroring the run counters).
type Server struct {
	ln  net.Listener
	srv *http.Server

	completed  atomic.Uint64
	runsFailed atomic.Uint64
	rowsSeen   atomic.Uint64

	// Fleet counters (distributed worker protocol).
	remoteResults  atomic.Uint64
	leasesGranted  atomic.Uint64
	leasesExpired  atomic.Uint64
	reassigned     atomic.Uint64
	dupResults     atomic.Uint64
	unknownResults atomic.Uint64

	mu     sync.Mutex
	recent []obs.Row
	next   int
	wrap   bool
	attrib func() any
	fleet  func() FleetGauges
}

// NewServer builds a listener-less metrics server for embedding: call
// Mount to register its endpoints on an existing mux. Counters and the
// sampler ring work identically to a listening server.
func NewServer() *Server {
	return &Server{recent: make([]obs.Row, RecentRows)}
}

// Mount registers the metrics endpoints on mux. The same wiring backs both
// the standalone -metrics-addr listener and the campaign server's API mux.
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/provenance", s.handleProvenance)
	mux.Handle("/debug/vars", expvar.Handler())
}

// New binds addr (e.g. "localhost:0", ":8090") and starts serving. Close
// the returned server to release the port.
func New(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	s := NewServer()
	mux := http.NewServeMux()
	s.Mount(mux)
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listener address (resolves ":0" binds for tests);
// empty for an embedded (Mount-only) server.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down (a no-op for an embedded server, whose
// lifecycle belongs to the mux owner).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// SetAttribution installs the provider for /metrics/provenance. The
// provider is invoked per request and its result JSON-encoded — pass e.g. a
// closure over a harness ProvenanceRollup's Report method.
func (s *Server) SetAttribution(f func() any) {
	s.mu.Lock()
	s.attrib = f
	s.mu.Unlock()
}

// RunCompleted records one successfully-finished simulation.
func (s *Server) RunCompleted() {
	s.completed.Add(1)
	bertiVars().Add("runs_completed", 1)
}

// RunFailed records one failed simulation.
func (s *Server) RunFailed() {
	s.runsFailed.Add(1)
	bertiVars().Add("runs_failed", 1)
}

// RemoteResult records one result pushed by a distributed worker (as
// opposed to executed by the local pool).
func (s *Server) RemoteResult() {
	s.remoteResults.Add(1)
	bertiVars().Add("remote_results", 1)
}

// LeaseGranted records one lease handed to a worker.
func (s *Server) LeaseGranted() {
	s.leasesGranted.Add(1)
	bertiVars().Add("leases_granted", 1)
}

// LeaseExpired records one lease whose deadline passed without completion
// (worker crashed, partitioned, or too slow).
func (s *Server) LeaseExpired() {
	s.leasesExpired.Add(1)
	bertiVars().Add("leases_expired", 1)
}

// SpecsReassigned records n specs returned to the pending queue by lease
// expiry — each will be leased again to a live worker.
func (s *Server) SpecsReassigned(n int) {
	s.reassigned.Add(uint64(n))
	bertiVars().Add("specs_reassigned", int64(n))
}

// DuplicateResult records one result for a spec that had already
// completed (late push from a reassigned lease, or a duplicated request):
// accepted on the wire, deduped in accounting.
func (s *Server) DuplicateResult() {
	s.dupResults.Add(1)
	bertiVars().Add("duplicate_results_deduped", 1)
}

// UnknownResult records one result for a key the coordinator never leased
// (a stale or misdirected worker).
func (s *Server) UnknownResult() {
	s.unknownResults.Add(1)
	bertiVars().Add("unknown_results", 1)
}

// SetFleetGauges installs the provider for point-in-time fleet state
// (worker liveness, leases outstanding, specs pending). The provider is
// invoked per /metrics request; pass a closure over the coordinator's
// lease pool.
func (s *Server) SetFleetGauges(f func() FleetGauges) {
	s.mu.Lock()
	s.fleet = f
	s.mu.Unlock()
}

// RecordRow ingests one freshly-closed sampler interval (wire it to
// obs.Sampler.OnRow). Only the last RecentRows rows are retained.
func (s *Server) RecordRow(r obs.Row) {
	s.rowsSeen.Add(1)
	bertiVars().Add("sampler_rows", 1)
	s.mu.Lock()
	s.recent[s.next] = r
	s.next++
	if s.next == len(s.recent) {
		s.next, s.wrap = 0, true
	}
	s.mu.Unlock()
}

// FleetGauges is the point-in-time worker-fleet state supplied by the
// coordinator's lease pool via SetFleetGauges.
type FleetGauges struct {
	// WorkersSeen counts every distinct worker ID that ever acquired a
	// lease or heartbeat; WorkersLive counts those seen within the
	// liveness window (lease TTL).
	WorkersSeen int `json:"workers_seen"`
	WorkersLive int `json:"workers_live"`
	// LeasesOutstanding counts currently-held leases; SpecsPending counts
	// specs waiting to be leased.
	LeasesOutstanding int `json:"leases_outstanding"`
	SpecsPending      int `json:"specs_pending"`
}

// FleetSnapshot is the fleet section of the /metrics response: the gauges
// plus the cumulative lease-lifecycle counters.
type FleetSnapshot struct {
	FleetGauges
	RemoteResults    uint64 `json:"remote_results"`
	LeasesGranted    uint64 `json:"leases_granted"`
	LeasesExpired    uint64 `json:"leases_expired"`
	SpecsReassigned  uint64 `json:"specs_reassigned"`
	DuplicateResults uint64 `json:"duplicate_results_deduped"`
	UnknownResults   uint64 `json:"unknown_results"`
}

// Snapshot is the /metrics response document.
type Snapshot struct {
	SchemaVersion int           `json:"schema_version"`
	RunsCompleted uint64        `json:"runs_completed"`
	RunsFailed    uint64        `json:"runs_failed"`
	SamplerRows   uint64        `json:"sampler_rows"`
	Fleet         FleetSnapshot `json:"fleet"`
	Recent        []obs.Row     `json:"recent_rows"`
}

// snapshot assembles the current snapshot (recent rows oldest-first).
func (s *Server) snapshot() *Snapshot {
	s.mu.Lock()
	var rows []obs.Row
	if s.wrap {
		rows = append(rows, s.recent[s.next:]...)
		rows = append(rows, s.recent[:s.next]...)
	} else {
		rows = append(rows, s.recent[:s.next]...)
	}
	fleet := s.fleet
	s.mu.Unlock()
	snap := &Snapshot{
		SchemaVersion: obs.SchemaVersion,
		RunsCompleted: s.completed.Load(),
		RunsFailed:    s.runsFailed.Load(),
		SamplerRows:   s.rowsSeen.Load(),
		Fleet: FleetSnapshot{
			RemoteResults:    s.remoteResults.Load(),
			LeasesGranted:    s.leasesGranted.Load(),
			LeasesExpired:    s.leasesExpired.Load(),
			SpecsReassigned:  s.reassigned.Load(),
			DuplicateResults: s.dupResults.Load(),
			UnknownResults:   s.unknownResults.Load(),
		},
		Recent: rows,
	}
	if fleet != nil {
		snap.Fleet.FleetGauges = fleet()
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.snapshot())
}

func (s *Server) handleProvenance(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	f := s.attrib
	s.mu.Unlock()
	if f == nil {
		http.Error(w, "no attribution provider installed", http.StatusNotFound)
		return
	}
	writeJSON(w, f())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
