package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
)

// finalPushTimeout bounds the end-of-batch results push. It runs on a
// context detached from the worker's (a shutdown must not strand computed
// results), so it needs its own deadline.
const finalPushTimeout = 30 * time.Second

// Worker is the bertiworker execution loop: pull a lease from the
// coordinator, run its specs on the local harness pool, stream each
// result back as it lands, heartbeat in between, repeat. It survives the
// network: the client retries transient errors, a lost lease abandons the
// batch (the coordinator already reassigned it), and anything computed
// before the loss is still pushed — the coordinator dedupes.
type Worker struct {
	// ID is this worker's stable identity (registry key; required).
	ID string
	// Client targets the coordinator (required).
	Client *Client
	// Harness executes the specs (required). The worker owns its OnResult
	// hook.
	Harness *harness.Harness
	// MaxSpecs bounds each lease batch (DefaultLeaseSpecs if 0).
	MaxSpecs int
	// PollInterval is the idle wait when the coordinator has no work
	// (default 500ms).
	PollInterval time.Duration
	// Logf sinks operational log lines (log.Printf when nil).
	Logf func(format string, args ...any)
}

// Run executes leases until ctx is cancelled (clean shutdown, returns
// nil) or a permanent protocol error occurs (e.g. scale mismatch).
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" || w.Client == nil || w.Harness == nil {
		return errors.New("server: Worker needs ID, Client, and Harness")
	}
	logf := w.Logf
	if logf == nil {
		logf = log.Printf
	}
	poll := w.PollInterval
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	max := w.MaxSpecs
	if max <= 0 {
		max = DefaultLeaseSpecs
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, err := w.Client.AcquireLease(ctx, w.ID, max)
		if err != nil {
			if sim.IsCancel(err) || ctx.Err() != nil {
				return nil
			}
			// Residual error after the client's own retries: the
			// coordinator may be restarting or draining — keep polling.
			logf("worker %s: acquire lease: %v", w.ID, err)
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		if grant.Scale != "" && grant.Scale != w.Harness.Scale.Name {
			return fmt.Errorf("server: coordinator runs scale %q but this worker is built for %q",
				grant.Scale, w.Harness.Scale.Name)
		}
		if grant.ID == "" {
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		if err := w.runLease(ctx, grant, logf); err != nil {
			logf("worker %s: lease %s: %v", w.ID, grant.ID, err)
		}
	}
}

// runLease executes one granted batch. Results stream back as each spec
// finishes (so a worker killed mid-batch has already banked its completed
// work), heartbeats extend the lease in parallel, and a final sweep reads
// the harness memo for every granted spec and pushes each unacknowledged
// result and each failure — on a context that survives worker shutdown,
// because a computed result is worth landing even when the lease is
// already lost.
func (w *Worker) runLease(ctx context.Context, grant *LeaseGrant, logf func(string, ...any)) error {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	acked := map[string]bool{}

	w.Harness.OnResult = func(key string, _ harness.RunSpec, r *sim.Result) {
		if _, err := w.Client.PushResults(bctx, grant.ID, w.ID,
			[]campaign.Entry{{Key: key, Result: r}}, nil); err != nil {
			logf("worker %s: push %s: %v (will retry in final sweep)", w.ID, key, err)
			return
		}
		mu.Lock()
		acked[key] = true
		mu.Unlock()
	}
	defer func() { w.Harness.OnResult = nil }()

	hb := time.Duration(grant.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = time.Duration(grant.TTLMillis/4) * time.Millisecond
	}
	if hb <= 0 {
		hb = time.Second
	}
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-bctx.Done():
				return
			case <-t.C:
				if _, err := w.Client.Heartbeat(bctx, grant.ID, w.ID); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						logf("worker %s: lease %s lost; abandoning batch", w.ID, grant.ID)
						cancel()
						return
					}
					if bctx.Err() == nil {
						logf("worker %s: heartbeat %s: %v", w.ID, grant.ID, err)
					}
				}
			}
		}
	}()

	// Every outcome lands in the harness memo; a cancelled spec has none
	// and is left to the coordinator to reassign.
	_, _ = w.Harness.RunManyContext(bctx, grant.Specs)

	// Final sweep: everything completed but not yet acknowledged, plus the
	// failures. Detached from ctx so a shutting-down (or lease-lost)
	// worker still lands finished work; the coordinator accepts late
	// pushes and dedupes.
	pushCtx, pcancel := context.WithTimeout(context.WithoutCancel(ctx), finalPushTimeout)
	defer pcancel()
	var entries []campaign.Entry
	var failures []RunFailure
	mu.Lock()
	for _, spec := range grant.Specs {
		key := spec.Key()
		if acked[key] {
			continue
		}
		if r, ok := w.Harness.ResultFor(key); ok {
			entries = append(entries, campaign.Entry{Key: key, Result: r})
		} else if err := w.Harness.FailureFor(key); err != nil {
			failures = append(failures, RunFailure{Key: key, Error: err.Error()})
		}
	}
	mu.Unlock()
	if len(entries) > 0 || len(failures) > 0 {
		if _, err := w.Client.PushResults(pushCtx, grant.ID, w.ID, entries, failures); err != nil {
			return fmt.Errorf("final results push: %w", err)
		}
	}
	return nil
}

// sleepCtx waits d, returning false if ctx fired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
