package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/prefetch"
	"github.com/bertisim/berti/internal/server"
	"github.com/bertisim/berti/internal/sim"
	"github.com/bertisim/berti/internal/trace"
)

// tracer records what the traced run measures from outside the program:
// spans around calls into each layer, per-engine-run hot-path counters,
// HTTP exchanges and named samples. A nil *tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	runs    []runRecord
	samples map[string][]float64
}

// span is one timed call. Spans on one lane nest by time; Parent names
// the span that caused it (-1 for a phase).
type span struct {
	Name       string
	Lane       int
	Parent     int
	Start, End time.Time
}

// layerStats aggregates the hot-path calls of one engine run. One machine
// runs on one goroutine, so the counters need no synchronisation.
type layerStats struct {
	accessNs, fillNs, nextNs          int64
	accessCalls, fillCalls, nextCalls int64
	candidates                        int64
}

// runRecord is one engine run seen through the timing wrappers.
type runRecord struct {
	phase  string
	spec   harness.RunSpec
	newNs  int64
	runNs  int64
	cycles uint64 // cycles executed, warmup included
	st     *layerStats
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// begin opens a phase span: lane 0, no parent. It returns the span's id
// (-1 when untraced).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: -1, Start: time.Now()})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the caller measured and returns its id
// (-1 when untraced).
func (t *tracer) add(name string, lane, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Lane: lane, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// sample appends one observation to a named distribution.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) addRun(r runRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.runs = append(t.runs, r)
	t.mu.Unlock()
}

// phaseRuns returns the engine runs recorded under one phase.
func (t *tracer) phaseRuns(phase string) []runRecord {
	var out []runRecord
	for _, r := range t.runs {
		if r.phase == phase {
			out = append(out, r)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microsecond timestamps from the start of the run).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for id, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X", PID: 1, TID: s.Lane,
			TS: us(s.Start.Sub(t.t0)), Dur: us(s.End.Sub(s.Start)),
			Args: map[string]int{"id": id, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// timedPrefetcher times every training and fill call of the prefetcher it
// wraps. Name and StorageBits pass through, so results keep their bytes.
type timedPrefetcher struct {
	cache.Prefetcher
	st *layerStats
}

func (p *timedPrefetcher) OnAccess(ev cache.AccessEvent) []cache.PrefetchReq {
	start := time.Now()
	out := p.Prefetcher.OnAccess(ev)
	p.st.accessNs += int64(time.Since(start))
	p.st.accessCalls++
	p.st.candidates += int64(len(out))
	return out
}

func (p *timedPrefetcher) OnFill(ev cache.FillEvent) {
	start := time.Now()
	p.Prefetcher.OnFill(ev)
	p.st.fillNs += int64(time.Since(start))
	p.st.fillCalls++
}

// timedReader times every record the core pulls from its trace reader.
type timedReader struct {
	trace.Reader
	st *layerStats
}

func (r *timedReader) Next() (trace.Record, error) {
	start := time.Now()
	rec, err := r.Reader.Next()
	r.st.nextNs += int64(time.Since(start))
	r.st.nextCalls++
	return rec, err
}

// prefetcherFactory resolves a registry prefetcher ("" = none), wrapping
// each instance in a timedPrefetcher when st is non-nil.
func prefetcherFactory(name string, st *layerStats) (sim.PrefetcherFactory, error) {
	if name == "" {
		return nil, nil
	}
	e, ok := prefetch.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown prefetcher %q", name)
	}
	if st == nil {
		return sim.PrefetcherFactory(e.New), nil
	}
	return func() cache.Prefetcher { return &timedPrefetcher{Prefetcher: e.New(), st: st} }, nil
}

// timingTransport records one span per HTTP exchange (request sent to
// response headers received), named by route, on the client's lane.
type timingTransport struct {
	base http.RoundTripper
	tr   *tracer
	lane int
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	route := route(req.Method, req.URL.Path)
	t.tr.add(route, t.lane, -1, start, end)
	t.tr.sample("http "+route, float64(end.Sub(start).Nanoseconds())/1e6)
	if err == nil && route == "POST /api/v1/leases" {
		// Peek at the grant: an empty one means the worker polled for
		// nothing, which is fleet overhead worth counting.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var g server.LeaseGrant
		if rerr == nil && json.Unmarshal(body, &g) == nil && g.ID == "" {
			t.tr.sample("lease.empty", 1)
		} else {
			t.tr.sample("lease.empty", 0)
		}
	}
	return resp, err
}

// route names a request by method and path pattern, with IDs elided.
func route(method, path string) string {
	parts := strings.Split(path, "/")
	for i := 1; i < len(parts); i++ {
		if parts[i-1] == "campaigns" || parts[i-1] == "leases" {
			parts[i] = "{id}"
		}
	}
	return method + " " + strings.Join(parts, "/")
}
