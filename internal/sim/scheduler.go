package sim

import (
	"fmt"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/dram"
)

// Never is the horizon a quiescent component reports: no future cycle at
// which it can change state without external stimulus.
const Never = ^uint64(0)

// Clocked is a component driven by the engine's clock. Tick advances it one
// cycle; NextEventCycle reports the earliest future cycle (>= now) at which
// the component could change observable state on its own — or Never when it
// is quiescent and only external stimulus can wake it.
//
// The contract is a soundness obligation, not an exactness one: the reported
// horizon must be a lower bound on the component's next autonomous state
// change. Returning now is always correct (it just forfeits skipping);
// returning a cycle later than the true next event is a bug, because the
// engine will jump the clock past work the component should have done. The
// engine re-queries every component after every executed tick, so events
// caused by *other* components (a fill arriving from below, a request
// enqueued from above) never need to appear in a component's own horizon.
type Clocked interface {
	Tick(cycle uint64)
	NextEventCycle(now uint64) uint64
}

// Scheduler selects the engine's main-loop strategy.
type Scheduler int

const (
	// SchedHorizon is the event-horizon scheduler (default): after each
	// executed tick it computes the minimum NextEventCycle across all
	// components and jumps the clock there when that minimum lies beyond
	// the next cycle. Results are byte-identical to SchedTicked.
	SchedHorizon Scheduler = iota
	// SchedTicked is the exhaustive per-cycle reference loop: every
	// component is ticked at every cycle. Kept as the differential oracle
	// for the horizon scheduler.
	SchedTicked
)

// String implements fmt.Stringer (flag rendering).
func (s Scheduler) String() string {
	switch s {
	case SchedHorizon:
		return "horizon"
	case SchedTicked:
		return "ticked"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// ParseScheduler resolves a -sched flag value ("" selects the default).
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "", "horizon":
		return SchedHorizon, nil
	case "ticked":
		return SchedTicked, nil
	default:
		return 0, fmt.Errorf("sim: unknown scheduler %q (want ticked or horizon)", s)
	}
}

// SetScheduler selects the main-loop strategy. Must be called before Run.
func (m *Machine) SetScheduler(s Scheduler) { m.sched = s }

// Compile-time checks that every engine component satisfies Clocked.
var (
	_ Clocked = (*Core)(nil)
	_ Clocked = (*cache.Cache)(nil)
	_ Clocked = (*dram.Channel)(nil)
)

// horizon returns the minimum NextEventCycle across all components, early-
// exiting as soon as any component reports the next cycle (no skip possible).
// Components are queried through their concrete types — NextEventCycle is
// side-effect-free and min is order-independent, so devirtualizing the scan
// (it runs after every executed tick) changes nothing but its cost. Cheap
// likely-busy components are asked first to make the early exit pay.
func (m *Machine) horizon() uint64 {
	h := Never
	now := m.cycle
	for _, c := range m.l1ds {
		if e := c.NextEventCycle(now); e < h {
			if e <= now {
				return now
			}
			h = e
		}
	}
	for _, c := range m.l2s {
		if e := c.NextEventCycle(now); e < h {
			if e <= now {
				return now
			}
			h = e
		}
	}
	if e := m.llc.NextEventCycle(now); e < h {
		if e <= now {
			return now
		}
		h = e
	}
	if e := m.dramC.NextEventCycle(now); e < h {
		if e <= now {
			return now
		}
		h = e
	}
	for _, c := range m.cores {
		if e := c.NextEventCycle(now); e < h {
			if e <= now {
				return now
			}
			h = e
		}
	}
	return h
}

// skipTo advances the clock to cycle h without executing the intervening
// ticks, crediting each core's per-cycle stall accounting so the skipped
// no-op ticks leave the same statistics they would have under SchedTicked.
func (m *Machine) skipTo(h uint64) {
	n := h - m.cycle
	for _, c := range m.cores {
		c.creditSkip(n)
	}
	m.cycle = h
}
