// Package fault implements a deterministic, seeded fault injector for the
// simulation pipeline. Its purpose is adversarial: inject precisely
// reproducible damage — corrupted or truncated trace bytes, dropped or
// delayed fills, duplicated cache tags, orphaned prefetch-queue entries —
// and prove that (a) the invariant checker (internal/check) detects the
// damage and (b) the harness degrades gracefully instead of taking down
// sibling experiments.
//
// All randomness derives from a splitmix64 stream seeded by Plan.Seed, so a
// given plan injects the same faults at the same points on every run.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind names one fault class. The CLI spelling (bertisim -fault-plan) is
// the constant's value.
type Kind string

// Fault kinds and the detection each one proves out:
//
//	corrupt-record  flip trace bytes      -> tracestore.FormatError
//	truncate        cut the trace short   -> tracestore.FormatError (offset)
//	drop-fill       swallow prefetch fill -> check mshr-stuck (leaked MSHR)
//	delay-fill      postpone fills        -> check mshr-stuck, or the
//	                                         engine watchdog when extreme
//	dup-line        duplicate a cache tag -> check dup-tag
//	pq-orphan       overfill the PQ       -> check queue-bound
const (
	CorruptRecord Kind = "corrupt-record"
	TruncateTrace Kind = "truncate"
	DropFill      Kind = "drop-fill"
	DelayFill     Kind = "delay-fill"
	DupLine       Kind = "dup-line"
	PQOrphan      Kind = "pq-orphan"
)

// Kinds lists every fault kind.
func Kinds() []Kind {
	return []Kind{CorruptRecord, TruncateTrace, DropFill, DelayFill, DupLine, PQOrphan}
}

// Plan describes one deterministic fault-injection campaign.
type Plan struct {
	// Kind selects the fault class.
	Kind Kind
	// Seed drives the deterministic stream (same seed = same faults).
	Seed int64
	// Rate is the per-opportunity injection probability in [0,1]
	// (corrupt-record, drop-fill, delay-fill). Defaults to 0.01.
	Rate float64
	// After skips the first N opportunities (lets warmup proceed clean;
	// for dup-line/pq-orphan it is the injection cycle).
	After uint64
	// Param is the kind-specific magnitude: delay cycles for delay-fill
	// (default 4096), bytes kept for truncate (default half the stream),
	// orphan entries for pq-orphan (default 4).
	Param uint64
}

// Parse builds a Plan from the CLI syntax
//
//	kind[:key=value[,key=value...]]
//
// e.g. "drop-fill:seed=7,rate=0.05,after=1000". Keys: seed, rate, after,
// param.
func Parse(s string) (*Plan, error) {
	if s == "" {
		return nil, &PlanError{Spec: s, Reason: "empty plan"}
	}
	kindStr, rest, _ := strings.Cut(s, ":")
	p := &Plan{Kind: Kind(kindStr), Rate: 0.01}
	valid := false
	for _, k := range Kinds() {
		if p.Kind == k {
			valid = true
			break
		}
	}
	if !valid {
		return nil, &PlanError{Spec: s, Reason: fmt.Sprintf("unknown kind %q (kinds: %s)", kindStr, kindList())}
	}
	if rest == "" {
		return p, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, &PlanError{Spec: s, Reason: fmt.Sprintf("malformed option %q (want key=value)", kv)}
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			p.Rate, err = strconv.ParseFloat(val, 64)
			if err == nil && (p.Rate < 0 || p.Rate > 1) {
				err = fmt.Errorf("rate %v outside [0,1]", p.Rate)
			}
		case "after":
			p.After, err = strconv.ParseUint(val, 10, 64)
		case "param":
			p.Param, err = strconv.ParseUint(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return nil, &PlanError{Spec: s, Reason: err.Error()}
		}
	}
	return p, nil
}

func kindList() string {
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, string(k))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// String renders the plan in the Parse syntax.
func (p *Plan) String() string {
	return fmt.Sprintf("%s:seed=%d,rate=%g,after=%d,param=%d", p.Kind, p.Seed, p.Rate, p.After, p.Param)
}

// PlanError reports an unparseable fault plan.
type PlanError struct {
	Spec   string
	Reason string
}

// Error implements error.
func (e *PlanError) Error() string {
	return fmt.Sprintf("fault: invalid plan %q: %s", e.Spec, e.Reason)
}

// TraceFault reports whether the plan mutates encoded trace bytes (and is
// therefore applied before decoding rather than during simulation).
func (p *Plan) TraceFault() bool {
	return p.Kind == CorruptRecord || p.Kind == TruncateTrace
}

// splitmix64 is the deterministic stream generator (Vigna, 2015): every
// injection decision hashes (seed, counter) so decisions are independent of
// call ordering elsewhere.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hit decides deterministically whether opportunity n (0-based, already
// past After) is injected, at probability Rate.
func (p *Plan) hit(n uint64) bool {
	if p.Rate <= 0 {
		return false
	}
	if p.Rate >= 1 {
		return true
	}
	h := splitmix64(uint64(p.Seed)*0x9E3779B97F4A7C15 + n)
	return float64(h>>11)/(1<<53) < p.Rate
}

// MutateTrace applies a trace-level fault (corrupt-record or truncate) to
// an encoded trace and returns the damaged copy. hdrLen bytes at the start
// are preserved so the fault lands in record data, not the magic header
// (corrupting the magic only ever exercises one error path). Other kinds
// return data unchanged.
func (p *Plan) MutateTrace(data []byte, hdrLen int) []byte {
	switch p.Kind {
	case CorruptRecord:
		out := append([]byte(nil), data...)
		n := uint64(0)
		for i := hdrLen; i < len(out); i++ {
			if n >= p.After && p.hit(n-p.After) {
				out[i] ^= byte(1 + splitmix64(uint64(p.Seed)+n)%255)
			}
			n++
		}
		return out
	case TruncateTrace:
		keep := int(p.Param)
		if keep == 0 {
			keep = hdrLen + (len(data)-hdrLen)/2
		}
		if keep > len(data) {
			keep = len(data)
		}
		return append([]byte(nil), data[:keep]...)
	default:
		return data
	}
}

// FillInjector injects drop-fill/delay-fill faults. It implements the
// cache package's FaultHook interface structurally (the cache consults it
// whenever a fill response arrives from the lower level) without this
// package importing the cache.
type FillInjector struct {
	plan Plan
	n    uint64

	// Dropped and Delayed count injections (test observability).
	Dropped uint64
	Delayed uint64
}

// NewFillInjector returns an injector for a drop-fill or delay-fill plan,
// or nil for other kinds.
func NewFillInjector(p *Plan) *FillInjector {
	if p == nil || (p.Kind != DropFill && p.Kind != DelayFill) {
		return nil
	}
	return &FillInjector{plan: *p}
}

// FillFault is consulted once per arriving fill. drop swallows the
// completion outright (the MSHR entry leaks — nothing will ever complete
// it); delay postpones data-ready by the returned number of cycles.
// Prefetch fills only are dropped (dropping a demand fill deadlocks the
// core, which the delay-fill + watchdog path covers instead).
func (f *FillInjector) FillFault(lineAddr uint64, isPrefetch bool, cycle uint64) (drop bool, delay uint64) {
	n := f.n
	f.n++
	if n < f.plan.After {
		return false, 0
	}
	if !f.plan.hit(n - f.plan.After) {
		return false, 0
	}
	switch f.plan.Kind {
	case DropFill:
		if !isPrefetch {
			return false, 0
		}
		f.Dropped++
		return true, 0
	case DelayFill:
		d := f.plan.Param
		if d == 0 {
			d = 4096
		}
		f.Delayed++
		return false, d
	}
	return false, 0
}
