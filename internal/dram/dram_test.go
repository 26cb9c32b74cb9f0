package dram

import (
	"testing"
)

// doneFunc adapts a plain function to DoneSink, ignoring the token.
type doneFunc func(doneCycle uint64)

func (f doneFunc) ReqDone(_, doneCycle uint64) { f(doneCycle) }

// collect runs the channel until the request completes, returning the
// completion cycle.
func collect(t *testing.T, c *Channel, start uint64, line uint64, pf bool) uint64 {
	t.Helper()
	var done uint64
	ok := c.EnqueueRead(&Request{
		LineAddr:   line,
		IsPrefetch: pf,
		Sink:       doneFunc(func(cyc uint64) { done = cyc }),
	}, start)
	if !ok {
		t.Fatal("enqueue refused")
	}
	for cyc := start; done == 0 && cyc < start+100000; cyc++ {
		c.Tick(cyc)
	}
	if done == 0 {
		t.Fatal("request never completed")
	}
	return done
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := ConfigDDR5_6400()
	c := NewChannel(cfg)
	linesPerRow := cfg.RowBytes / 64

	first := collect(t, c, 0, 0, false) // opens row 0 of bank 0
	hitDone := collect(t, c, first+1, 1, false)
	hitLat := hitDone - (first + 1)
	// Conflict: same bank (stride banks*linesPerRow lines), different row.
	conflictLine := uint64(cfg.Banks) * linesPerRow
	confDone := collect(t, c, hitDone+1, conflictLine, false)
	confLat := confDone - (hitDone + 1)
	if hitLat >= confLat {
		t.Fatalf("row hit (%d) should be faster than conflict (%d)", hitLat, confLat)
	}
	if c.Stats.RowHits == 0 || c.Stats.RowConflicts == 0 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestReadLatencyIncludesOverhead(t *testing.T) {
	cfg := ConfigDDR5_6400()
	c := NewChannel(cfg)
	done := collect(t, c, 0, 0, false)
	min := cfg.TRCD + cfg.TCAS + cfg.ExtraLatency
	if done < min {
		t.Fatalf("cold read done at %d, expected >= %d", done, min)
	}
}

func TestRQFullRefuses(t *testing.T) {
	cfg := ConfigDDR5_6400()
	cfg.RQSize = 2
	c := NewChannel(cfg)
	ok1 := c.EnqueueRead(&Request{LineAddr: 1}, 0)
	ok2 := c.EnqueueRead(&Request{LineAddr: 2}, 0)
	ok3 := c.EnqueueRead(&Request{LineAddr: 3}, 0)
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("expected third enqueue refused: %v %v %v", ok1, ok2, ok3)
	}
	if c.Stats.RQFullStalls != 1 {
		t.Fatalf("RQFullStalls = %d", c.Stats.RQFullStalls)
	}
}

func TestWriteForwarding(t *testing.T) {
	c := NewChannel(ConfigDDR5_6400())
	if !c.EnqueueWrite(&Request{LineAddr: 42, Write: true}, 0) {
		t.Fatal("write refused")
	}
	var done uint64
	c.EnqueueRead(&Request{LineAddr: 42, Sink: doneFunc(func(cyc uint64) { done = cyc })}, 5)
	if done != 6 {
		t.Fatalf("read matching queued write should forward immediately, done=%d", done)
	}
}

func TestWritesArePosted(t *testing.T) {
	c := NewChannel(ConfigDDR5_6400())
	for i := uint64(0); i < 10; i++ {
		if !c.EnqueueWrite(&Request{LineAddr: i * 1000, Write: true}, 0) {
			t.Fatal("write refused")
		}
	}
	for cyc := uint64(0); cyc < 50000 && c.Pending(); cyc++ {
		c.Tick(cyc)
	}
	if c.Pending() {
		t.Fatal("writes never drained")
	}
	if c.Stats.Writes != 10 {
		t.Fatalf("writes = %d", c.Stats.Writes)
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	cfg := ConfigDDR5_6400()
	c := NewChannel(cfg)
	linesPerRow := cfg.RowBytes / 64
	// Enqueue a burst of prefetches to bank 0 and one demand behind them
	// to a different row of bank 0: the demand must not finish last.
	var pfDone, demDone uint64
	for i := uint64(0); i < 8; i++ {
		last := i == 7
		c.EnqueueRead(&Request{
			LineAddr:   i,
			IsPrefetch: true,
			Sink: doneFunc(func(cyc uint64) {
				if last {
					pfDone = cyc
				}
			}),
		}, 0)
	}
	c.EnqueueRead(&Request{
		LineAddr: uint64(cfg.Banks) * linesPerRow * 7,
		Sink:     doneFunc(func(cyc uint64) { demDone = cyc }),
	}, 0)
	for cyc := uint64(0); cyc < 100000 && (pfDone == 0 || demDone == 0); cyc++ {
		c.Tick(cyc)
	}
	if pfDone == 0 || demDone == 0 {
		t.Fatal("requests did not finish")
	}
	if demDone > pfDone {
		t.Fatalf("demand (%d) finished after the whole prefetch burst (%d)", demDone, pfDone)
	}
}

func TestPromoteUpgradesQueuedPrefetch(t *testing.T) {
	c := NewChannel(ConfigDDR5_6400())
	c.EnqueueRead(&Request{LineAddr: 7, IsPrefetch: true}, 0)
	c.Promote(7)
	if c.rq.At(0).IsPrefetch {
		t.Fatal("queued prefetch not promoted")
	}
}

func TestBandwidthConfigsDiffer(t *testing.T) {
	fast := ConfigDDR5_6400()
	slow := ConfigDDR3_1600()
	if slow.BurstCycles <= fast.BurstCycles {
		t.Fatal("DDR3-1600 must occupy the bus longer per line")
	}
}

func TestDecodeBanksCoverAll(t *testing.T) {
	cfg := ConfigDDR5_6400()
	c := NewChannel(cfg)
	seen := map[int]bool{}
	linesPerRow := cfg.RowBytes / 64
	for i := uint64(0); i < uint64(cfg.Banks)*linesPerRow; i += linesPerRow {
		b, _ := c.decode(i)
		seen[b] = true
	}
	if len(seen) != cfg.Banks {
		t.Fatalf("decode covered %d of %d banks", len(seen), cfg.Banks)
	}
}
