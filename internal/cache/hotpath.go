// Hot-path support structures: the closure-free completion interface, the
// pooled waiter chains that replace per-request callback slices, and the
// open-addressed line table behind the PQ duplicate check and the MSHR
// file's line index. All of them exist so the steady-state per-access path
// allocates nothing and never scans a fixed structure.
package cache

// DoneSink receives request completions without a per-request closure: the
// requester registers itself once (an interface header, no allocation) and
// demultiplexes completions by token. Tokens are opaque to the cache — the
// core encodes ROB slots and store record indices, a cache level encodes
// the missing line address. Issuing a request therefore allocates
// nothing.
type DoneSink interface {
	// ReqDone delivers the completion for the request identified by token;
	// cycle is when the data is available to the requester.
	ReqDone(token, cycle uint64)
}

// waiterNode is one completion subscriber in an intrusive singly-linked
// chain (load combining on an RQ entry, merged misses on an MSHR). Nodes
// live in the cache's pool and are addressed by index+1 (0 = nil), so a
// zeroed mshr{} or Req{} naturally means "no waiters".
type waiterNode struct {
	sink  DoneSink
	token uint64
	next  int32 // index+1 of the next node; 0 terminates
}

// allocWaiter takes a node off the free list (growing the pool outside
// steady state) and returns its index+1 handle.
func (c *Cache) allocWaiter() int32 {
	if c.wfree != 0 {
		id := c.wfree
		c.wfree = c.wpool[id-1].next
		return id
	}
	c.wpool = append(c.wpool, waiterNode{})
	return int32(len(c.wpool))
}

// freeWaiter returns one node to the free list.
func (c *Cache) freeWaiter(id int32) {
	w := &c.wpool[id-1]
	w.sink = nil
	w.next = c.wfree
	c.wfree = id
}

// notifyWaiter fires one node's completion.
func (c *Cache) notifyWaiter(id int32, cycle uint64) {
	if w := &c.wpool[id-1]; w.sink != nil {
		w.sink.ReqDone(w.token, cycle)
	}
}

// chainWaiter appends a completion to the chain rooted at (*head, *tail).
func (c *Cache) chainWaiter(head, tail *int32, sink DoneSink, token uint64) {
	id := c.allocWaiter()
	w := &c.wpool[id-1]
	w.sink, w.token, w.next = sink, token, 0
	if *tail != 0 {
		c.wpool[*tail-1].next = id
	} else {
		*head = id
	}
	*tail = id
}

// spliceChain moves the chain (srcHead, srcTail) to the end of the chain
// rooted at (*head, *tail), leaving the source empty.
func (c *Cache) spliceChain(head, tail *int32, srcHead, srcTail int32) {
	if srcHead == 0 {
		return
	}
	if *tail != 0 {
		c.wpool[*tail-1].next = srcHead
	} else {
		*head = srcHead
	}
	*tail = srcTail
}

// fireChain notifies every waiter in FIFO order and frees the nodes.
func (c *Cache) fireChain(head int32, cycle uint64) {
	for id := head; id != 0; {
		next := c.wpool[id-1].next
		c.notifyWaiter(id, cycle)
		c.freeWaiter(id)
		id = next
	}
}

// lineTable is an open-addressed map from line address to a small nonzero
// value, the one hash table behind both hot-path indexes: the PQ presence
// set (value = copies queued) and the MSHR file's line index (value =
// slot+1). Linear probing over a power-of-two table sized at construction
// (4x the structure's bound, so the load factor stays low); deletion uses
// backward-shift compaction so no tombstones accumulate. A zero value marks
// an empty slot.
type lineTable struct {
	keys []uint64
	vals []uint32
	mask uint64
	used int
}

func (t *lineTable) init(bound int) {
	n := 8
	for n < 4*bound {
		n <<= 1
	}
	t.keys = make([]uint64, n)
	t.vals = make([]uint32, n)
	t.mask = uint64(n - 1)
	t.used = 0
}

// slot mixes the key (line addresses are strided, not uniform) into a
// table index.
func (t *lineTable) slot(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15
	k ^= k >> 29
	return k & t.mask
}

// find returns the slot holding k (ok=true), or the empty slot that ends
// k's probe chain (ok=false).
func (t *lineTable) find(k uint64) (i uint64, ok bool) {
	for i = t.slot(k); ; i = (i + 1) & t.mask {
		if t.vals[i] == 0 {
			return i, false
		}
		if t.keys[i] == k {
			return i, true
		}
	}
}

// get returns k's value, 0 when absent.
func (t *lineTable) get(k uint64) uint32 {
	if i, ok := t.find(k); ok {
		return t.vals[i]
	}
	return 0
}

// put sets k's value (v must be nonzero), inserting k when absent.
func (t *lineTable) put(k uint64, v uint32) {
	i, ok := t.find(k)
	t.vals[i] = v
	if ok {
		return
	}
	t.keys[i] = k
	t.used++
	if 2*t.used >= len(t.keys) {
		t.grow()
	}
}

// del removes k (a no-op when absent).
func (t *lineTable) del(k uint64) {
	if i, ok := t.find(k); ok {
		t.deleteAt(i)
	}
}

// deleteAt empties slot i with backward-shift deletion: displaced entries
// are pulled over the hole so probe chains stay contiguous.
func (t *lineTable) deleteAt(i uint64) {
	t.vals[i] = 0
	t.used--
	j := i
	for {
		j = (j + 1) & t.mask
		if t.vals[j] == 0 {
			return
		}
		home := t.slot(t.keys[j])
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			t.vals[j] = 0
			i = j
		}
	}
}

// grow doubles the table (reached only by deliberate overfill, e.g. the
// pq-orphan fault plan pushing far past the configured bound).
func (t *lineTable) grow() {
	oldK, oldV := t.keys, t.vals
	n := 2 * len(oldK)
	t.keys = make([]uint64, n)
	t.vals = make([]uint32, n)
	t.mask = uint64(n - 1)
	t.used = 0
	for i, v := range oldV {
		if v != 0 {
			t.put(oldK[i], v)
		}
	}
}

// lineSet is the PQ presence index: a counting set over lineTable.
// Duplicate keys are counted rather than stored twice, which keeps the
// orphan-corruption fault plan (many entries for line 0) from overflowing
// the table.
type lineSet struct{ lineTable }

func (s *lineSet) contains(k uint64) bool {
	_, ok := s.find(k)
	return ok
}

func (s *lineSet) add(k uint64) {
	if i, ok := s.find(k); ok {
		s.vals[i]++
		return
	}
	s.put(k, 1)
}

func (s *lineSet) remove(k uint64) {
	i, ok := s.find(k)
	if !ok {
		return // not present (never happens when add/remove are paired)
	}
	if s.vals[i] > 1 {
		s.vals[i]--
		return
	}
	s.deleteAt(i)
}
