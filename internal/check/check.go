// Package check defines the simulator's runtime invariant checker.
//
// The paper's results depend on the simulator faithfully modelling limited
// MSHRs, bounded queues, and variable fill latency: a silent accounting bug
// (a leaked MSHR, an over-full prefetch queue, a duplicated cache tag)
// corrupts every downstream IPC/accuracy number without any visible
// failure. The checker makes those invariants explicit: each subsystem
// implements a CheckInvariants method that walks its own state and reports
// structured Violation values, and the engine drives those methods at a
// configurable cycle interval plus once at the end of each run.
//
// The checker is strictly an observer: it never mutates simulator state, so
// a checked run with no faults injected produces byte-identical results to
// an unchecked run. When disabled (the default) its cost is a single nil
// check per engine tick.
package check

import (
	"fmt"
	"strings"
)

// Rule names. Each subsystem reports violations under one of these; the
// fault-injection tests key on them to prove each fault class is caught.
const (
	// RuleMSHRStuck: an MSHR entry has been in flight implausibly long —
	// a leaked or dropped fill (nothing will ever complete it).
	RuleMSHRStuck = "mshr-stuck"
	// RuleMSHRDup: two valid MSHR entries track the same line address.
	RuleMSHRDup = "mshr-dup"
	// RuleMSHRIndex: the MSHR file's line index, valid/ready bitsets, or
	// occupancy counter disagree with its entries.
	RuleMSHRIndex = "mshr-index"
	// RuleQueueBound: a read/write/prefetch queue exceeds its configured
	// capacity.
	RuleQueueBound = "queue-bound"
	// RuleDupTag: two valid ways of one cache set hold the same tag.
	RuleDupTag = "dup-tag"
	// RuleSetMap: a valid line is stored in a set its address does not
	// map to.
	RuleSetMap = "set-map"
	// RuleROBAccounting: the core's reorder-buffer occupancy counters
	// disagree with the entries actually present in the ring.
	RuleROBAccounting = "rob-accounting"
	// RuleTLBDup: two valid ways of one TLB set hold the same virtual
	// page number.
	RuleTLBDup = "tlb-dup"
	// RuleTLBMap: a TLB entry's translation disagrees with the page
	// table (a stale or corrupted mapping).
	RuleTLBMap = "tlb-map"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Rule is one of the Rule* constants.
	Rule string
	// Component names the subsystem instance ("L1D.0", "core.1", "MMU.0").
	Component string
	// Cycle is the simulation cycle at which the check ran.
	Cycle uint64
	// Detail describes the specific breach (addresses, counts).
	Detail string
}

// String formats the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s at cycle %d: %s", v.Rule, v.Component, v.Cycle, v.Detail)
}

// DefaultMaxRecorded bounds the violations kept verbatim; further
// violations are counted but not stored (a corrupt run can trip thousands).
const DefaultMaxRecorded = 64

// Checker accumulates violations from all subsystems of one machine. It is
// not safe for concurrent use; each simulated machine owns one checker
// (matching the engine's single-threaded tick loop).
type Checker struct {
	// MaxRecorded bounds stored violations (DefaultMaxRecorded if 0).
	MaxRecorded int

	violations []Violation
	total      int
	byRule     map[string]int
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{byRule: map[string]int{}}
}

// Report records one violation.
func (c *Checker) Report(v Violation) {
	c.total++
	c.byRule[v.Rule]++
	limit := c.MaxRecorded
	if limit <= 0 {
		limit = DefaultMaxRecorded
	}
	if len(c.violations) < limit {
		c.violations = append(c.violations, v)
	}
}

// Reportf records one violation with a formatted detail string.
func (c *Checker) Reportf(rule, component string, cycle uint64, format string, args ...interface{}) {
	c.Report(Violation{Rule: rule, Component: component, Cycle: cycle,
		Detail: fmt.Sprintf(format, args...)})
}

// Violations returns the recorded violations (up to MaxRecorded).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the number of violations reported, including those beyond
// the recording limit.
func (c *Checker) Total() int { return c.total }

// CountByRule returns how many violations were reported under rule.
func (c *Checker) CountByRule(rule string) int { return c.byRule[rule] }

// Err returns nil when no violations were reported, and a *ViolationError
// summarizing them otherwise.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return &ViolationError{Violations: c.violations, Total: c.total}
}

// ViolationError is the structured error carrying a run's invariant
// violations.
type ViolationError struct {
	// Violations holds the recorded breaches (bounded; see Checker).
	Violations []Violation
	// Total counts every reported breach, recorded or not.
	Total int
}

// Error implements error.
func (e *ViolationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s)", e.Total)
	n := len(e.Violations)
	if n > 3 {
		n = 3
	}
	for i := 0; i < n; i++ {
		b.WriteString("; ")
		b.WriteString(e.Violations[i].String())
	}
	if e.Total > n {
		fmt.Fprintf(&b, "; ... (%d more)", e.Total-n)
	}
	return b.String()
}
