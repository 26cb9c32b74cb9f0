// Package dram models a DRAM channel with banks, 4 KB row buffers, an open
// page policy, and FR-FCFS scheduling with read priority and a write-drain
// watermark, following Table II of the paper.
//
// The model produces variable access latency from three sources the paper
// calls out: row-buffer state (hit / closed / conflict), bank conflicts,
// and read/write queue contention — the variability Berti's latency
// measurement is designed to track.
package dram

import (
	"github.com/bertisim/berti/internal/ringbuf"
	"github.com/bertisim/berti/internal/stats"
)

// Config describes one DRAM channel feeding the LLC.
type Config struct {
	// Banks per channel.
	Banks int
	// RowBytes is the row-buffer size per bank (4 KB per Table II).
	RowBytes uint64
	// TRP, TRCD, TCAS in core cycles (12.5 ns at 4 GHz = 50 cycles each).
	TRP, TRCD, TCAS uint64
	// BurstCycles is the core-cycle occupancy of the data bus for one
	// 64-byte line (depends on MTPS: DDR5-6400 → 5, DDR4-3200 → 10,
	// DDR3-1600 → 20 at a 4 GHz core).
	BurstCycles uint64
	// ExtraLatency is the fixed controller/PHY/IO round-trip overhead
	// added to every access (core cycles).
	ExtraLatency uint64
	// RQSize and WQSize are the read/write queue capacities.
	RQSize, WQSize int
	// WriteWatermarkNum/Den: drain writes when WQ occupancy exceeds
	// Num/Den of capacity (7/8 per Table II).
	WriteWatermarkNum, WriteWatermarkDen int
}

// MTPS presets; one channel per four cores, 4 GHz core clock.

// ConfigDDR5_6400 is the paper's default channel.
func ConfigDDR5_6400() Config { return configWithBurst(5) }

// ConfigDDR4_3200 is the constrained-bandwidth midpoint of Section IV-F.
func ConfigDDR4_3200() Config { return configWithBurst(10) }

// ConfigDDR3_1600 is the most constrained channel of Section IV-F.
func ConfigDDR3_1600() Config { return configWithBurst(20) }

func configWithBurst(burst uint64) Config {
	return Config{
		Banks:             16,
		RowBytes:          4096,
		TRP:               50,
		TRCD:              50,
		TCAS:              50,
		ExtraLatency:      60,
		BurstCycles:       burst,
		RQSize:            64,
		WQSize:            64,
		WriteWatermarkNum: 7,
		WriteWatermarkDen: 8,
	}
}

// DoneSink receives read completions without a per-request closure; the
// requester demultiplexes by token. Structurally identical to
// cache.DoneSink so the layer above can hand its sink straight through.
type DoneSink interface {
	ReqDone(token, cycle uint64)
}

// Request is one line-sized DRAM transaction. Queues store Request by
// value; the struct a caller passes to Enqueue* is copied in.
type Request struct {
	LineAddr uint64 // physical line address (byte addr >> 6)
	Write    bool
	// IsPrefetch demotes the request below all demand reads in the
	// scheduler (real controllers prioritize demand traffic).
	IsPrefetch bool
	// OnComplete is invoked with the cycle at which the data transfer
	// finishes (nil for writes, which are posted).
	OnComplete func(doneCycle uint64)
	// Sink/Token are the allocation-free completion path used when
	// OnComplete is nil: the transfer finishing calls
	// Sink.ReqDone(Token, doneCycle).
	Sink         DoneSink
	Token        uint64
	enqueueCycle uint64
	// bank and row are LineAddr's coordinates, decoded once at enqueue so
	// the per-tick FR-FCFS scan does no division.
	bank int
	row  uint64
}

type bank struct {
	openRow  uint64
	rowValid bool
	ready    uint64 // cycle at which the bank can accept a new command
}

// transfer is a scheduled column access waiting for the data bus.
type transfer struct {
	lineAddr uint64
	eligible uint64 // cycle the bank has the data ready
	write    bool
	prefetch bool
	onDone   func(uint64)
	sink     DoneSink
	token    uint64
}

// Channel is one DRAM channel. Commands and data transfers are decoupled:
// banks activate and read in parallel, and only the burst occupies the
// shared data bus, so a row miss on one bank never stalls transfers from
// other banks. Queues are fixed-capacity value rings: the steady-state
// enqueue/issue/complete path allocates nothing.
type Channel struct {
	cfg       Config
	banks     []bank
	rq        ringbuf.Ring[Request]
	wq        ringbuf.Ring[Request]
	transfers ringbuf.Ring[transfer]
	busFree   uint64
	draining  bool
	Stats     stats.DRAMStats
}

// NewChannel builds a channel from cfg.
func NewChannel(cfg Config) *Channel {
	c := &Channel{
		cfg:   cfg,
		banks: make([]bank, cfg.Banks),
	}
	c.rq.Init(cfg.RQSize)
	c.wq.Init(cfg.WQSize)
	// Every queued request can be in flight as a transfer at once.
	c.transfers.Init(cfg.RQSize + cfg.WQSize)
	return c
}

// lineAddr is a 64-byte line address; map to bank and row.
func (c *Channel) decode(lineAddr uint64) (bankIdx int, row uint64) {
	linesPerRow := c.cfg.RowBytes / 64
	bankIdx = int((lineAddr / linesPerRow) % uint64(c.cfg.Banks))
	row = lineAddr / linesPerRow / uint64(c.cfg.Banks)
	return bankIdx, row
}

// complete fires a read's completion callback (closure or sink).
func complete(onDone func(uint64), sink DoneSink, token, cycle uint64) {
	if onDone != nil {
		onDone(cycle)
	} else if sink != nil {
		sink.ReqDone(token, cycle)
	}
}

// EnqueueRead attempts to add a read; returns false when the RQ is full.
// r is copied; the pointer is not retained.
func (c *Channel) EnqueueRead(r *Request, cycle uint64) bool {
	// Forward from the write queue: a read that matches a queued write
	// is serviced immediately from the WQ data.
	for i, n := 0, c.wq.Len(); i < n; i++ {
		if c.wq.At(i).LineAddr == r.LineAddr {
			complete(r.OnComplete, r.Sink, r.Token, cycle+1)
			return true
		}
	}
	if c.rq.Len() >= c.cfg.RQSize {
		c.Stats.RQFullStalls++
		return false
	}
	nr := *r
	nr.enqueueCycle = cycle
	nr.bank, nr.row = c.decode(r.LineAddr)
	c.rq.Push(nr)
	return true
}

// EnqueueWrite attempts to add a write; returns false when the WQ is full.
func (c *Channel) EnqueueWrite(r *Request, cycle uint64) bool {
	if c.wq.Len() >= c.cfg.WQSize {
		c.Stats.WQFullStalls++
		return false
	}
	nr := *r
	nr.enqueueCycle = cycle
	nr.bank, nr.row = c.decode(r.LineAddr)
	c.wq.Push(nr)
	return true
}

// RQOccupancy returns the current read-queue length.
func (c *Channel) RQOccupancy() int { return c.rq.Len() }

// Tick advances the channel one cycle: schedule the data bus, then issue
// bank commands.
func (c *Channel) Tick(cycle uint64) {
	c.serveBus(cycle)

	// Write-drain hysteresis: start draining above the watermark, stop
	// once the WQ is nearly empty or reads are waiting.
	if c.wq.Len()*c.cfg.WriteWatermarkDen >= c.cfg.WQSize*c.cfg.WriteWatermarkNum {
		c.draining = true
	}
	if c.wq.Len() == 0 || (c.draining && c.wq.Len() < c.cfg.WQSize/4) {
		c.draining = false
	}

	// Up to two bank commands per cycle (command bus is faster than one
	// data burst per command anyway).
	for n := 0; n < 2; n++ {
		serveWrites := c.draining || c.rq.Len() == 0
		if serveWrites && c.wq.Len() > 0 {
			c.issue(&c.wq, cycle, true)
			continue
		}
		if c.rq.Len() > 0 {
			c.issue(&c.rq, cycle, false)
		}
	}
}

// serveBus starts the oldest-eligible data burst when the bus is free.
// Demand reads get the bus first, then prefetch reads, then writes.
func (c *Channel) serveBus(cycle uint64) {
	for c.busFree <= cycle {
		best := -1
		bestClass := -1
		for i, n := 0, c.transfers.Len(); i < n; i++ {
			t := c.transfers.At(i)
			if t.eligible > cycle {
				continue
			}
			class := 0 // write
			if !t.write {
				class = 1 // prefetch read
				if !t.prefetch {
					class = 2 // demand read
				}
			}
			if class > bestClass ||
				(class == bestClass && t.eligible < c.transfers.At(best).eligible) {
				best, bestClass = i, class
			}
		}
		if best == -1 {
			return
		}
		t := *c.transfers.At(best)
		c.transfers.RemoveAt(best)
		start := cycle
		if c.busFree > start {
			start = c.busFree
		}
		done := start + c.cfg.BurstCycles
		c.busFree = done
		c.Stats.BusyCycles += c.cfg.BurstCycles
		complete(t.onDone, t.sink, t.token, done)
	}
}

// issue picks the FR-FCFS best request from q and schedules it.
func (c *Channel) issue(q *ringbuf.Ring[Request], cycle uint64, write bool) {
	// FR-FCFS: row hits first (open-page throughput), demand reads break
	// ties within a class so prefetch bursts do not inflate demand
	// latency, oldest first otherwise.
	best := -1
	bestScore := -1
	for i, n := 0, q.Len(); i < n; i++ {
		r := q.At(i)
		bk := &c.banks[r.bank]
		if bk.ready > cycle {
			continue
		}
		hit := bk.rowValid && bk.openRow == r.row
		score := 0
		if hit {
			score += 2
		}
		if !r.IsPrefetch {
			score++
		}
		if score > bestScore {
			best, bestScore = i, score
			if score == 3 {
				break // oldest demand row hit wins
			}
		}
	}
	if best == -1 {
		return
	}
	r := *q.At(best)
	q.RemoveAt(best)

	bk := &c.banks[r.bank]
	// lat is when this access's data is ready; bankBusy is how long the
	// bank is blocked for the NEXT command. Row hits pipeline at column-
	// command cadence (~ one burst), only activations serialize the bank.
	var lat, bankBusy uint64
	switch {
	case bk.rowValid && bk.openRow == r.row:
		lat = c.cfg.TCAS
		bankBusy = c.cfg.BurstCycles
		c.Stats.RowHits++
	case !bk.rowValid:
		lat = c.cfg.TRCD + c.cfg.TCAS
		bankBusy = c.cfg.TRCD + c.cfg.BurstCycles
		c.Stats.RowMisses++
	default:
		lat = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		bankBusy = c.cfg.TRP + c.cfg.TRCD + c.cfg.BurstCycles
		c.Stats.RowConflicts++
	}
	bk.openRow, bk.rowValid = r.row, true

	ready := cycle + lat + c.cfg.ExtraLatency
	bk.ready = cycle + bankBusy
	if write {
		c.Stats.Writes++
		// Posted write: occupies a future bus slot but needs no callback.
		c.transfers.Push(transfer{eligible: ready, write: true})
		return
	}
	c.Stats.Reads++
	c.transfers.Push(transfer{
		lineAddr: r.LineAddr,
		eligible: ready,
		prefetch: r.IsPrefetch,
		onDone:   r.OnComplete,
		sink:     r.Sink,
		token:    r.Token,
	})
}

// Promote upgrades queued prefetch reads for the line to demand priority.
func (c *Channel) Promote(lineAddr uint64) {
	for i, n := 0, c.rq.Len(); i < n; i++ {
		if r := c.rq.At(i); r.LineAddr == lineAddr {
			r.IsPrefetch = false
		}
	}
	for i, n := 0, c.transfers.Len(); i < n; i++ {
		if t := c.transfers.At(i); t.lineAddr == lineAddr {
			t.prefetch = false
		}
	}
}

// Pending reports whether any request is queued (used to drain simulations).
func (c *Channel) Pending() bool { return c.rq.Len() > 0 || c.wq.Len() > 0 }

// never is the quiescent horizon (sim.Never).
const never = ^uint64(0)

// NextEventCycle reports the earliest future cycle at which the channel can
// change state on its own: a transfer winning the data bus, or a queued
// request whose bank becomes ready for a command. An idle channel is fully
// quiescent — the write-drain flag is recomputed from queue occupancy at the
// start of every Tick, so its stale value is unobservable across a skip.
func (c *Channel) NextEventCycle(now uint64) uint64 {
	if c.rq.Len() == 0 && c.wq.Len() == 0 && c.transfers.Len() == 0 {
		return never
	}
	h := never
	for i, n := 0, c.transfers.Len(); i < n; i++ {
		e := c.transfers.At(i).eligible
		if e < c.busFree {
			e = c.busFree
		}
		if e <= now {
			return now
		}
		if e < h {
			h = e
		}
	}
	// Mirror Tick's hysteresis update to get the drain flag's value at the
	// next executed tick: it depends only on queue occupancy (stable across
	// a skip) and is idempotent after one application.
	draining := c.draining
	if c.wq.Len()*c.cfg.WriteWatermarkDen >= c.cfg.WQSize*c.cfg.WriteWatermarkNum {
		draining = true
	}
	if c.wq.Len() == 0 || (draining && c.wq.Len() < c.cfg.WQSize/4) {
		draining = false
	}
	// While draining (with writes queued), reads are not issued; otherwise
	// writes are only issued when no reads wait. A flip of either condition
	// requires a queue-occupancy change, which is itself an event.
	if !draining {
		for i, n := 0, c.rq.Len(); i < n; i++ {
			if e := c.banks[c.rq.At(i).bank].ready; e <= now {
				return now
			} else if e < h {
				h = e
			}
		}
	}
	if draining || c.rq.Len() == 0 {
		for i, n := 0, c.wq.Len(); i < n; i++ {
			if e := c.banks[c.wq.At(i).bank].ready; e <= now {
				return now
			} else if e < h {
				h = e
			}
		}
	}
	return h
}
