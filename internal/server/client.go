package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
)

// ErrLeaseLost reports that the coordinator no longer recognises a lease:
// its deadline passed and the specs were reassigned, or the daemon is
// draining. The worker must abandon the batch (results it already
// computed may still be pushed — the coordinator dedupes).
var ErrLeaseLost = errors.New("server: lease expired or reassigned")

// Client speaks a bertid daemon's HTTP API. The thin client runs a whole
// batch as one campaign (Batch: Submit, WaitCampaign, Report), so a local
// harness keeps its memoization, its OnResult hooks (a local journal,
// metrics), and its reports while every actual simulation happens on the
// daemon. The same client carries the
// worker protocol (AcquireLease / Heartbeat / PushResults).
//
// Every request runs under Retry: transport errors and transient HTTP
// statuses (5xx except where noted, 408, 429) are re-sent with a
// deterministic exponential backoff, so a network blip never fails a run.
// These are the only retries in the system: a simulation is deterministic
// and executes once. Permanent statuses (4xx, including 410 lease-gone)
// surface immediately.
type Client struct {
	base string
	hc   *http.Client
	// PollInterval is the initial campaign-poll delay (default 250ms; each
	// poll backs off 1.5x up to pollMax).
	PollInterval time.Duration
	// Retry is the transient-error retry schedule.
	Retry RetryPolicy
}

// pollMax caps WaitCampaign's poll backoff.
const pollMax = 5 * time.Second

// RetryPolicy bounds how the client re-sends a request that failed in
// transit: up to MaxAttempts sends in all, sleeping before each re-send.
// The sleep doubles from BaseBackoff up to MaxBackoff, plus jitter of up
// to half the sleep. The jitter is a pure function of the request's method,
// path and attempt number, so identical runs sleep identically.
type RetryPolicy struct {
	// MaxAttempts is the total number of sends, the first included (1 or
	// less disables retries).
	MaxAttempts int
	// BaseBackoff is the sleep before the first re-send.
	BaseBackoff time.Duration
	// MaxBackoff caps the sleep before jitter.
	MaxBackoff time.Duration
}

// delay is the sleep before re-send number attempt (1-based) of the request
// identified by key.
func (p RetryPolicy) delay(key string, attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if half := uint64(d / 2); half > 0 {
		h := fnv.New64a()
		h.Write([]byte(key))
		d += time.Duration(splitmix64(h.Sum64()^uint64(attempt)) % (half + 1))
	}
	return d
}

// splitmix64 is the finalizer that decorrelates the jitter inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewClient targets a bertid daemon at base (e.g. "http://127.0.0.1:9090").
func NewClient(base string) *Client {
	return &Client{
		base:         strings.TrimRight(base, "/"),
		hc:           &http.Client{Timeout: 30 * time.Second},
		PollInterval: 250 * time.Millisecond,
		Retry: RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 100 * time.Millisecond,
			MaxBackoff:  2 * time.Second,
		},
	}
}

// Base returns the daemon base URL this client targets.
func (c *Client) Base() string { return c.base }

// SetTransport replaces the underlying HTTP transport — the seam the
// network-fault injector (fault.NetPlan.Transport) plugs into.
func (c *Client) SetTransport(rt http.RoundTripper) {
	c.hc.Transport = rt
}

// transientStatus reports whether an HTTP status is worth retrying: the
// server or an intermediary failed, not the request itself. 410 (lease
// gone) and other 4xx are permanent — retrying cannot change the answer.
func transientStatus(code int) bool {
	switch code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		http.StatusTooManyRequests, http.StatusRequestTimeout:
		return true
	}
	return false
}

// do is the shared transport core: issue method+path with body, retrying
// transport errors and transient statuses per c.Retry. Returns the final
// status code and (bounded) body. Context cancellation surfaces as
// *sim.CancelError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		code, data, err := c.roundTrip(ctx, method, path, body)
		if err == nil && !transientStatus(code) {
			return code, data, nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return 0, nil, &sim.CancelError{Cause: ctx.Err()}
			}
			lastErr = fmt.Errorf("server: daemon unreachable: %w", err)
		} else {
			lastErr = decodeAPIError(code, data)
		}
		if attempt >= c.Retry.MaxAttempts {
			return code, data, lastErr
		}
		t := time.NewTimer(c.Retry.delay(method+" "+path, attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return 0, nil, &sim.CancelError{Cause: ctx.Err()}
		}
	}
}

// roundTrip performs exactly one HTTP exchange.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return 0, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, data, nil
}

// Submit posts a full campaign spec set, returning the acknowledgement.
func (c *Client) Submit(ctx context.Context, name string, specs []harness.RunSpec) (*SubmitResponse, error) {
	body, err := json.Marshal(SubmitRequest{Name: name, Specs: specs})
	if err != nil {
		return nil, fmt.Errorf("server: encoding campaign: %w", err)
	}
	var ack SubmitResponse
	if err := c.doJSON(ctx, http.MethodPost, "/api/v1/campaigns", body, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// Status fetches one campaign's progress snapshot.
func (c *Client) Status(ctx context.Context, id string) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.doJSON(ctx, http.MethodGet, "/api/v1/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Report fetches a finished campaign's raw report bytes (kept as served,
// so client-side files stay byte-identical to the daemon's document).
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	code, data, err := c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, decodeAPIError(code, data)
	}
	return data, nil
}

// WaitCampaign polls a campaign until it leaves the running state. The
// returned status carries StoreError when the daemon failed to persist
// one of the campaign's results.
func (c *Client) WaitCampaign(ctx context.Context, id string) (*CampaignStatus, error) {
	delay := c.PollInterval
	if delay <= 0 {
		delay = 250 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State != StateRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, &sim.CancelError{Cause: ctx.Err()}
		case <-time.After(delay):
		}
		if delay = delay * 3 / 2; delay > pollMax {
			delay = pollMax
		}
	}
}

// ScaleMismatchError reports a daemon that ran a campaign at another scale
// than the client's: its results must not be reported under the client's
// scale.
type ScaleMismatchError struct {
	Client, Daemon string
}

// Error implements error.
func (e *ScaleMismatchError) Error() string {
	return fmt.Sprintf("server: daemon runs at scale %q but this client is at scale %q", e.Daemon, e.Client)
}

// Batch runs specs on the daemon as one campaign (Submit, WaitCampaign,
// Report) and lands every reported run in h as a local run would land:
// SeedResult memoizes it and OnResult fires, so a local journal, live
// metrics and provenance roll-ups see it. Each failed run is memoized with
// h.SeedFailure. Specs h already holds are not sent. A daemon at
// another scale yields a *ScaleMismatchError and lands nothing.
func (c *Client) Batch(ctx context.Context, h *harness.Harness, specs []harness.RunSpec) error {
	todo := map[string]harness.RunSpec{}
	var submit []harness.RunSpec
	for _, s := range specs {
		if _, ok := h.ResultFor(s.Key()); !ok {
			todo[s.Key()] = s
			submit = append(submit, s)
		}
	}
	if len(submit) == 0 {
		return nil
	}
	ack, err := c.Submit(ctx, "", submit)
	if err != nil {
		return err
	}
	if _, err := c.WaitCampaign(ctx, ack.ID); err != nil {
		return err
	}
	body, err := c.Report(ctx, ack.ID)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("server: decoding campaign report: %w", err)
	}
	if rep.Scale != h.Scale {
		return &ScaleMismatchError{Client: h.Scale.Name, Daemon: rep.Scale.Name}
	}
	for _, e := range rep.Runs {
		h.SeedResult(e.Key, e.Result)
		if h.OnResult != nil {
			h.OnResult(e.Key, todo[e.Key], e.Result)
		}
	}
	for _, f := range rep.Failed {
		h.SeedFailure(todo[f.Key], fmt.Errorf("server: daemon run failed: %s", f.Error))
	}
	return nil
}

// AcquireLease asks the coordinator for a batch of up to maxSpecs run
// specs. A grant with an empty ID means no work is pending right now.
func (c *Client) AcquireLease(ctx context.Context, worker string, maxSpecs int) (*LeaseGrant, error) {
	body, err := json.Marshal(LeaseRequest{Worker: worker, MaxSpecs: maxSpecs})
	if err != nil {
		return nil, fmt.Errorf("server: encoding lease request: %w", err)
	}
	var grant LeaseGrant
	if err := c.doJSON(ctx, http.MethodPost, "/api/v1/leases", body, &grant); err != nil {
		return nil, err
	}
	return &grant, nil
}

// Heartbeat extends a lease's deadline. Returns ErrLeaseLost (wrapped)
// when the coordinator no longer honours the lease — the deadline passed
// and the batch was reassigned, or the daemon is draining.
func (c *Client) Heartbeat(ctx context.Context, leaseID, worker string) (*HeartbeatResponse, error) {
	body, err := json.Marshal(HeartbeatRequest{Worker: worker})
	if err != nil {
		return nil, fmt.Errorf("server: encoding heartbeat: %w", err)
	}
	code, data, err := c.do(ctx, http.MethodPost, "/api/v1/leases/"+leaseID+"/heartbeat", body)
	if err != nil {
		return nil, err
	}
	if code == http.StatusGone {
		return nil, fmt.Errorf("server: heartbeat for lease %s: %w", leaseID, ErrLeaseLost)
	}
	if code < 200 || code > 299 {
		return nil, decodeAPIError(code, data)
	}
	var hb HeartbeatResponse
	if err := json.Unmarshal(data, &hb); err != nil {
		return nil, fmt.Errorf("server: decoding heartbeat response: %w", err)
	}
	return &hb, nil
}

// PushResults uploads completed entries (and failures) for a lease. The
// endpoint is idempotent: results for already-completed specs are
// accepted and counted as duplicates, and pushes against an expired or
// unknown lease still land (the work is real even if the lease died), so
// late workers never error out here.
func (c *Client) PushResults(ctx context.Context, leaseID, worker string, entries []campaign.Entry, failures []RunFailure) (*ResultsResponse, error) {
	body, err := json.Marshal(ResultsRequest{Worker: worker, Entries: entries, Failures: failures})
	if err != nil {
		return nil, fmt.Errorf("server: encoding results: %w", err)
	}
	code, data, err := c.do(ctx, http.MethodPost, "/api/v1/leases/"+leaseID+"/results", body)
	if err != nil {
		return nil, err
	}
	if code < 200 || code > 299 {
		return nil, decodeAPIError(code, data)
	}
	var rr ResultsResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, fmt.Errorf("server: decoding results response: %w", err)
	}
	return &rr, nil
}

// Workers fetches the coordinator's worker registry.
func (c *Client) Workers(ctx context.Context) ([]WorkerStatus, error) {
	var ws []WorkerStatus
	if err := c.doJSON(ctx, http.MethodGet, "/api/v1/workers", nil, &ws); err != nil {
		return nil, err
	}
	return ws, nil
}

// doJSON is the shared request/decode path for the campaign endpoints.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	code, data, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if code < 200 || code > 299 {
		return decodeAPIError(code, data)
	}
	return json.Unmarshal(data, out)
}

// decodeAPIError turns a non-2xx body back into a typed error:
// validation failures are rehydrated as *harness.SpecError so client-side
// callers see exactly what a local harness would have returned.
func decodeAPIError(code int, data []byte) error {
	var doc apiError
	if json.Unmarshal(data, &doc) == nil && doc.Error != "" {
		if doc.Field != "" {
			return &harness.SpecError{Field: doc.Field, Name: doc.Name, Err: errors.New(doc.Error)}
		}
		return fmt.Errorf("server: daemon returned %d: %s", code, doc.Error)
	}
	return fmt.Errorf("server: daemon returned %d", code)
}
