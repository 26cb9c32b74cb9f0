package sim

import (
	"errors"
	"fmt"
	"time"

	"github.com/bertisim/berti/internal/cache"
)

// ConfigError reports an invalid system configuration.
type ConfigError struct {
	// Field names the offending parameter ("Cores", "Core.ROBSize", ...).
	Field string
	// Reason describes the constraint that failed.
	Reason string
	// Err is the underlying cause when the failure came from a nested
	// configuration (a *cache.ConfigError, a *vm.ConfigError); nil
	// otherwise.
	Err error
}

// Error implements error.
func (e *ConfigError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("sim: invalid config %s: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("sim: invalid config %s: %s", e.Field, e.Reason)
}

// Unwrap exposes the nested cause to errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Err }

// EngineSnapshot captures the machine's progress state at the moment a run
// failed — enough to see which queue or core wedged without re-running
// under a debugger.
type EngineSnapshot struct {
	// Cycle is the simulation cycle at capture.
	Cycle uint64 `json:"cycle"`
	// Retired holds each core's total retired-instruction count.
	Retired []uint64 `json:"retired"`
	// Finished holds each core's completion flag.
	Finished []bool `json:"finished"`
	// Queues holds every cache level's queue/MSHR occupancy, L1D.0 first,
	// LLC last.
	Queues []cache.QueueSnapshot `json:"queues"`
}

// String renders the snapshot compactly for error messages.
func (s EngineSnapshot) String() string {
	out := fmt.Sprintf("cycle=%d retired=%v", s.Cycle, s.Retired)
	for _, q := range s.Queues {
		out += fmt.Sprintf(" %s[mshr=%d rq=%d wq=%d pq=%d sendq=%d]",
			q.Name, q.MSHR, q.RQ, q.WQ, q.PQ, q.SendQ)
	}
	return out
}

// StallError reports that the engine made no retirement progress for
// StallCycles cycles — a hang (leaked fill, wedged queue) that previously
// crashed the process via panic.
type StallError struct {
	// StallCycles is the progress-free window that tripped the watchdog.
	StallCycles uint64
	// Snapshot is the engine state at detection.
	Snapshot EngineSnapshot
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("sim: no retirement progress for %d cycles (%s)", e.StallCycles, e.Snapshot)
}

// DeadlineError reports that a run exceeded its wall-clock budget.
type DeadlineError struct {
	// Limit is the configured budget.
	Limit time.Duration
	// Snapshot is the engine state when the deadline fired.
	Snapshot EngineSnapshot
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: run exceeded %v wall-clock deadline (%s)", e.Limit, e.Snapshot)
}

// CancelError reports that a run was stopped by context cancellation (a
// Ctrl-C draining a campaign, a caller-imposed context deadline). It is a
// distinct class from StallError/DeadlineError: the machine was healthy,
// the caller asked it to stop. Unwrap exposes the context's cause, so
// errors.Is(err, context.Canceled) works on the chain.
type CancelError struct {
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded, possibly wrapped by context.WithCancelCause).
	Cause error
	// Snapshot is the engine state at the cancellation poll (zero when the
	// run was cancelled before the first cycle executed).
	Snapshot EngineSnapshot
}

// Error implements error.
func (e *CancelError) Error() string {
	return fmt.Sprintf("sim: run cancelled: %v (%s)", e.Cause, e.Snapshot)
}

// Unwrap exposes the context cause to errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Cause }

// IsCancel reports whether err's chain contains a *CancelError — the test
// callers use to distinguish "the campaign is shutting down" from a genuine
// run failure (cancelled runs are neither memoized nor retried).
func IsCancel(err error) bool {
	var ce *CancelError
	return errors.As(err, &ce)
}

// TraceReadError reports a trace-reader failure surfaced through the core
// model mid-run (previously a panic inside dispatch).
type TraceReadError struct {
	// Core is the core whose reader failed.
	Core int
	// Err is the reader's error (often a *tracestore.FormatError).
	Err error
}

// Error implements error.
func (e *TraceReadError) Error() string {
	return fmt.Sprintf("sim: core %d trace read: %v", e.Core, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *TraceReadError) Unwrap() error { return e.Err }
