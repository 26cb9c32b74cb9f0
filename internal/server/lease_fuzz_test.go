package server

import (
	"testing"
	"time"
)

// FuzzLeasePool drives the lease state machine with an arbitrary
// byte-encoded op sequence and asserts the never-lose / never-double-count
// contract plus the structural invariants after every op. Each byte is one
// op: the high three bits select the kind, the low bits its operand, so
// any input the fuzzer invents maps to a legal interleaving of acquire
// (remote or in-process) / heartbeat / expire / finish / add.
func FuzzLeasePool(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc0, 0x13})
	f.Add([]byte{0x01, 0x02, 0x03, 0x80, 0x81, 0x82, 0x83, 0x84})
	f.Add([]byte{0x40, 0xc1, 0x40, 0xc1, 0x40, 0xc1})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x20, 0xa0})
	f.Add([]byte{0x21, 0x22, 0x60, 0x7f, 0x7f, 0x85, 0xa1, 0x21})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		p, clk := newFakePool(time.Second)
		specs := poolSpecs(12)
		added := 6
		p.add(specs[:added])
		keys := make([]string, len(specs))
		for i, s := range specs {
			keys[i] = s.Key()
		}
		workers := []string{"fa", "fb"}
		var leaseIDs []string
		freshCount := map[string]int{}

		finish := func(worker, key string) {
			fresh, known := p.finish(worker, key)
			if !known {
				t.Fatalf("pool forgot key %q", key)
			}
			if fresh {
				if freshCount[key]++; freshCount[key] > 1 {
					t.Fatalf("key %q first-completed twice", key)
				}
			}
		}

		for _, op := range ops {
			kind, arg := op>>5, int(op&0x1f)
			watch := watchPool(p, kind == 3 || kind == 5)
			switch kind {
			case 0, 1: // acquire; kind 1 takes a deadline-free in-process lease
				if l, _ := p.acquire(workers[arg%2], 1+arg%6, kind == 1); l != nil {
					leaseIDs = append(leaseIDs, l.id)
				}
			case 2: // heartbeat an arbitrary past lease (possibly dead)
				if len(leaseIDs) > 0 {
					p.heartbeat(leaseIDs[arg%len(leaseIDs)], workers[arg%2])
				}
			case 3: // advance time and expire
				clk.advance(time.Duration(arg) * 100 * time.Millisecond)
				p.expire()
			case 5: // add a prefix of the specs, new and known keys alike
				n := 1 + arg%len(specs)
				p.add(specs[:n])
				added = max(added, n)
			default: // finish (duplicates and late results included)
				finish(workers[arg%2], keys[arg%added])
			}
			checkPoolInvariants(t, p, watch)
		}
		// Re-adding the known specs must leave the finished ones done and
		// queue nothing.
		pending := p.pendingN
		p.add(specs[:added])
		if p.pendingN != pending {
			t.Fatalf("re-add moved pendingN from %d to %d", pending, p.pendingN)
		}
		for key := range freshCount {
			if p.state[key] != specDone {
				t.Fatalf("re-add resurrected finished key %q", key)
			}
		}
		p.add(specs[added:]) // the never-added rest, for the drain below
		// Drain to completion: every key ends done, first-completed once.
		for _, key := range keys {
			finish("fa", key)
		}
		for _, key := range keys {
			if freshCount[key] != 1 {
				t.Fatalf("key %q first-completed %d times, want exactly 1", key, freshCount[key])
			}
		}
		if g := p.gauges(); g.SpecsPending != 0 || g.LeasesOutstanding != 0 {
			t.Fatalf("after drain: %+v", g)
		}
	})
}
