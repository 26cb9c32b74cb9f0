package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/sim"
)

// Spec states in the lease pool. The state machine is deliberately tiny:
//
//	pending --acquire--> leased --complete/fail--> done   (terminal)
//	   ^                    |
//	   +------expire--------+   (remote leases only)
//
// done is terminal: a late completion for a reassigned spec (the original
// worker finished after its lease expired) finds the state already done
// and is deduped, so no spec is ever double-counted; an expired lease
// returns its specs to pending, so no spec is ever lost. Every completion
// in every mode, in-process or pushed, passes through finish.
const (
	specPending byte = iota
	specLeased
	specDone
)

// lease is one granted batch.
type lease struct {
	id       string
	worker   string
	deadline time.Time
	// inProcess marks a lease held by one of the daemon's own workers. It
	// has no deadline: an in-process worker cannot die or partition apart
	// from its coordinator, and expiring it would only re-run a spec that
	// is simply taking longer than the TTL.
	inProcess bool
	// outstanding holds the batch's not-yet-finished keys; the lease is
	// discarded once it empties (nothing left to reassign).
	outstanding map[string]bool
	total       int
	// progress is the worker's last heartbeat Completed figure.
	progress int
}

// workerInfo is one registry row.
type workerInfo struct {
	firstSeen time.Time
	lastSeen  time.Time
	leases    uint64
	specsDone uint64
	inProcess bool // lives as long as the daemon, idle or not
}

// live reports whether w counts as alive at now.
func (w *workerInfo) live(now time.Time, ttl time.Duration) bool {
	return w.inProcess || now.Sub(w.lastSeen) <= ttl
}

// leasePool owns the daemon's only work queue: which specs are waiting,
// which are out on lease to which worker, and which are finished. All
// transitions happen under one mutex — the pool is the single authority
// on spec fate, which is what makes exactly-once accounting checkable.
type leasePool struct {
	ttl  time.Duration
	hb   time.Duration
	now  func() time.Time // injectable clock for deterministic tests
	live *live.Server

	mu       sync.Mutex
	seq      uint64
	pending  []string // FIFO of candidate keys; stale (non-pending) entries skipped lazily
	pendingN int      // exact count of state==specPending keys
	state    map[string]byte
	specs    map[string]harness.RunSpec
	holder   map[string]string // leased key -> lease ID
	leases   map[string]*lease
	workers  map[string]*workerInfo
	// wake is closed (and replaced) whenever add or expire leaves specs
	// pending. An idle in-process worker takes it before acquire and
	// blocks on it, so a spec added between the two is never missed.
	wake chan struct{}
}

func newLeasePool(ttl, hb time.Duration, lv *live.Server) *leasePool {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if hb <= 0 {
		hb = ttl / 4
	}
	return &leasePool{
		ttl:     ttl,
		hb:      hb,
		now:     time.Now,
		live:    lv,
		state:   map[string]byte{},
		specs:   map[string]harness.RunSpec{},
		holder:  map[string]string{},
		leases:  map[string]*lease{},
		workers: map[string]*workerInfo{},
		wake:    make(chan struct{}),
	}
}

// wakeChan returns the channel the next add or expire that leaves specs
// pending will close.
func (p *leasePool) wakeChan() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wake
}

// wakeLocked wakes every idle in-process worker if any spec is pending.
func (p *leasePool) wakeLocked() {
	if p.pendingN > 0 {
		close(p.wake)
		p.wake = make(chan struct{})
	}
}

// add registers specs as pending work. Keys the pool already finished are
// returned (the caller counts them complete immediately); keys already
// pending or leased are silently shared — their eventual completion
// notifies every interested campaign.
func (p *leasePool) add(specs []harness.RunSpec) (alreadyDone []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, spec := range specs {
		key := spec.Key()
		st, ok := p.state[key]
		if ok {
			if st == specDone {
				alreadyDone = append(alreadyDone, key)
			}
			continue
		}
		p.state[key] = specPending
		p.specs[key] = spec
		p.pending = append(p.pending, key)
		p.pendingN++
	}
	p.wakeLocked()
	return alreadyDone
}

// touchWorker updates the registry under the lock.
func (p *leasePool) touchWorkerLocked(worker string) *workerInfo {
	w := p.workers[worker]
	if w == nil {
		w = &workerInfo{firstSeen: p.now()}
		p.workers[worker] = w
	}
	w.lastSeen = p.now()
	return w
}

// acquire grants up to max pending specs to worker. An inProcess lease
// carries no deadline and expire never reclaims it. Returns nil when no
// work is pending.
func (p *leasePool) acquire(worker string, max int, inProcess bool) (*lease, []harness.RunSpec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.touchWorkerLocked(worker)
	w.inProcess = w.inProcess || inProcess
	var granted []string
	for len(granted) < max && len(p.pending) > 0 {
		key := p.pending[0]
		p.pending = p.pending[1:]
		if p.state[key] != specPending {
			continue // stale entry (completed or re-leased since queued)
		}
		granted = append(granted, key)
	}
	if len(granted) == 0 {
		return nil, nil
	}
	p.seq++
	l := &lease{
		id:          fmt.Sprintf("l%06d", p.seq),
		worker:      worker,
		inProcess:   inProcess,
		outstanding: make(map[string]bool, len(granted)),
		total:       len(granted),
	}
	if !inProcess {
		l.deadline = p.now().Add(p.ttl)
	}
	specs := make([]harness.RunSpec, len(granted))
	for i, key := range granted {
		p.state[key] = specLeased
		p.holder[key] = l.id
		l.outstanding[key] = true
		specs[i] = p.specs[key]
	}
	p.pendingN -= len(granted)
	p.leases[l.id] = l
	w.leases++
	if p.live != nil {
		p.live.LeaseGranted()
	}
	return l, specs
}

// heartbeat extends a lease's deadline and records progress. Returns
// false when the lease is unknown (expired and reassigned, or never
// granted) — the worker must abandon the batch.
func (p *leasePool) heartbeat(id, worker string, completed int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.touchWorkerLocked(worker)
	l, ok := p.leases[id]
	if !ok {
		return false
	}
	l.deadline = p.now().Add(p.ttl)
	if completed > l.progress {
		l.progress = completed
	}
	return true
}

// touchLease extends a lease's deadline if it still exists (a results
// push proves the worker is alive even without heartbeats).
func (p *leasePool) touchLease(id string) {
	p.mu.Lock()
	if l, ok := p.leases[id]; ok {
		l.deadline = p.now().Add(p.ttl)
	}
	p.mu.Unlock()
}

// spec returns the spec the pool tracks under key.
func (p *leasePool) spec(key string) harness.RunSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.specs[key]
}

// finish transitions key to done (from any non-terminal state), detaching
// it from its holding lease. fresh reports a first completion; known
// reports whether the pool tracks the key at all. Exactly one concurrent
// caller per key ever sees fresh==true.
func (p *leasePool) finish(worker, key string) (fresh, known bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if worker != "" {
		p.touchWorkerLocked(worker)
	}
	st, ok := p.state[key]
	if !ok {
		return false, false
	}
	if st == specDone {
		return false, true
	}
	if st == specLeased {
		lid := p.holder[key]
		delete(p.holder, key)
		if l := p.leases[lid]; l != nil {
			delete(l.outstanding, key)
			if len(l.outstanding) == 0 {
				delete(p.leases, lid)
			}
		}
	} else {
		p.pendingN-- // completing straight from pending (late result after expiry)
	}
	p.state[key] = specDone
	if w := p.workers[worker]; w != nil {
		w.specsDone++
	}
	return true, true
}

// expire scans for past-deadline remote leases and appends their
// outstanding specs to the back of the pending queue. Returns the number
// of leases expired and specs reassigned.
func (p *leasePool) expire() (leases, specs int) {
	p.mu.Lock()
	now := p.now()
	for id, l := range p.leases {
		if l.inProcess || !now.After(l.deadline) {
			continue
		}
		leases++
		for key := range l.outstanding {
			delete(p.holder, key)
			p.state[key] = specPending
			p.pending = append(p.pending, key)
			p.pendingN++
			specs++
		}
		delete(p.leases, id)
	}
	p.wakeLocked()
	p.mu.Unlock()
	if p.live != nil {
		for i := 0; i < leases; i++ {
			p.live.LeaseExpired()
		}
		if specs > 0 {
			p.live.SpecsReassigned(specs)
		}
	}
	return leases, specs
}

// gauges assembles the point-in-time fleet state for /metrics.
func (p *leasePool) gauges() live.FleetGauges {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	liveN := 0
	for _, w := range p.workers {
		if w.live(now, p.ttl) {
			liveN++
		}
	}
	return live.FleetGauges{
		WorkersSeen:       len(p.workers),
		WorkersLive:       liveN,
		LeasesOutstanding: len(p.leases),
		SpecsPending:      p.pendingN,
	}
}

// workerStatuses assembles the registry rows, sorted by worker ID.
func (p *leasePool) workerStatuses() []WorkerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	out := make([]WorkerStatus, 0, len(p.workers))
	for id, w := range p.workers {
		out = append(out, WorkerStatus{
			Worker:            id,
			Live:              w.live(now, p.ttl),
			LastSeenAgoMillis: now.Sub(w.lastSeen).Milliseconds(),
			LeasesAcquired:    w.leases,
			SpecsCompleted:    w.specsDone,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// ---- coordinator-side completion paths ----

// acceptEntry lands one result, pushed by a remote worker or produced by
// an in-process one: the pool decides its fate (the single authority on
// first-vs-duplicate), and only a first completion touches the store, the
// memo cache, and the campaign counters. A store write failure is logged
// and noted on every interested campaign's status. Returns "accepted",
// "duplicate", or "unknown".
func (s *Server) acceptEntry(worker, key string, r *sim.Result) string {
	fresh, known := s.pool.finish(worker, key)
	if fresh {
		putErr := s.store.Put(key, r)
		if putErr != nil {
			s.logf("%v", putErr)
		}
		s.h.SeedResult(key, r)
		s.live.RunCompleted()
		s.mu.Lock()
		var interested []*campaignState
		for _, c := range s.campaigns {
			if c.keys[key] {
				interested = append(interested, c)
			}
		}
		s.mu.Unlock()
		for _, c := range interested {
			if putErr != nil {
				c.noteStoreErr(putErr)
			}
			c.noteKeyDone(key)
		}
		return "accepted"
	}
	if known {
		s.live.DuplicateResult()
		return "duplicate"
	}
	// The pool never tracked this key in this daemon life; if it is already
	// finished in the memo cache or the store (done before a restart), the
	// push is a late duplicate, otherwise it is work the coordinator never
	// issued.
	if _, ok := s.h.ResultFor(key); ok {
		s.live.DuplicateResult()
		return "duplicate"
	}
	if _, ok := s.store.Get(key); ok {
		s.live.DuplicateResult()
		return "duplicate"
	}
	s.live.UnknownResult()
	return "unknown"
}

// acceptFailure lands one failure, pushed or in-process. The harness
// memoizes it (an in-process failure already is), so it is terminal for
// this daemon life and a later campaign naming the key fails it with the
// same text; failures are not persisted, so they re-execute after a
// restart.
func (s *Server) acceptFailure(worker, key, msg string) string {
	fresh, known := s.pool.finish(worker, key)
	if !fresh {
		if known {
			s.live.DuplicateResult()
			return "duplicate"
		}
		return "unknown"
	}
	s.h.SeedFailure(s.pool.spec(key), errors.New(msg))
	s.live.RunFailed()
	s.mu.Lock()
	var interested []*campaignState
	for _, c := range s.campaigns {
		if c.keys[key] {
			interested = append(interested, c)
		}
	}
	s.mu.Unlock()
	for _, c := range interested {
		c.noteKeyFailed(key, msg)
	}
	return "failed"
}

// expiryLoop periodically reassigns expired leases until the server
// drains. The cadence follows the heartbeat interval: expiry is detected
// within one heartbeat period of the deadline.
func (s *Server) expiryLoop() {
	defer s.workerWG.Done()
	interval := s.pool.hb
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-t.C:
			if n, specs := s.pool.expire(); n > 0 {
				s.logf("server: expired %d lease(s), reassigned %d spec(s)", n, specs)
			}
		}
	}
}

// ---- lease HTTP handlers ----

func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, errors.New("lease request needs a worker identity"))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, errors.New("daemon is draining; not granting leases"))
		return
	}
	max := req.MaxSpecs
	if max <= 0 {
		max = DefaultLeaseSpecs
	}
	if max > maxLeaseSpecs {
		max = maxLeaseSpecs
	}
	grant := &LeaseGrant{
		SchemaVersion:   APISchemaVersion,
		Scale:           s.h.Scale.Name,
		TTLMillis:       s.pool.ttl.Milliseconds(),
		HeartbeatMillis: s.pool.hb.Milliseconds(),
	}
	if l, specs := s.pool.acquire(req.Worker, max, false); l != nil {
		grant.ID = l.id
		grant.Specs = specs
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleLeaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusGone, errors.New("daemon is draining; abandon the lease"))
		return
	}
	if !s.pool.heartbeat(id, req.Worker, req.Completed) {
		writeErr(w, http.StatusGone, fmt.Errorf("lease %s expired or unknown; its specs were reassigned", id))
		return
	}
	writeJSON(w, http.StatusOK, &HeartbeatResponse{
		SchemaVersion:  APISchemaVersion,
		State:          "ok",
		DeadlineMillis: s.pool.ttl.Milliseconds(),
	})
}

// handleLeaseResults lands a worker's push. Deliberately lenient: results
// are accepted even for an expired or unknown lease (the computation is
// real regardless of the lease's fate) and during a drain (the result
// store makes every landed result crash-safe) — the per-entry
// accounting in the response says what actually happened. Each accepted
// entry fires the harness's OnResult once, as an in-process run does from
// the harness, so hooks such as a provenance roll-up see pushed runs too.
func (s *Server) handleLeaseResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req ResultsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	resp := &ResultsResponse{SchemaVersion: APISchemaVersion}
	for _, e := range req.Entries {
		if e.Key == "" || e.Result == nil {
			writeErr(w, http.StatusBadRequest, errors.New("every entry needs a key and a result"))
			return
		}
	}
	for _, f := range req.Failures {
		if f.Key == "" {
			writeErr(w, http.StatusBadRequest, errors.New("every failure needs a key"))
			return
		}
	}
	for _, e := range req.Entries {
		switch s.acceptEntry(req.Worker, e.Key, e.Result) {
		case "accepted":
			resp.Accepted++
			s.live.RemoteResult()
			if s.h.OnResult != nil {
				s.h.OnResult(e.Key, s.pool.spec(e.Key), e.Result)
			}
		case "duplicate":
			resp.Duplicates++
		default:
			resp.Unknown++
		}
	}
	for _, f := range req.Failures {
		switch s.acceptFailure(req.Worker, f.Key, f.Error) {
		case "failed":
			resp.Failed++
		case "duplicate":
			resp.Duplicates++
		default:
			resp.Unknown++
		}
	}
	s.pool.touchLease(id)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.workerStatuses())
}
