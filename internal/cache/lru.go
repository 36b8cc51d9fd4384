package cache

import "strconv"

// lruCore is the slot-arena recency engine shared by LRU and WLRU: a
// flat []slot arena, a keyIndex resolving residency, and one intrusive
// recency list (front = MRU). The two policies differ only in victim
// choice, injected through the victim func (bound once at construction
// so the eviction path stays allocation-free), and in WLRU's clean
// cursor, which the list mutations keep current.
//
// Run-native hot loops: AccessRun resolves a whole run with ONE index
// probe when the run's entries already form a consecutive-key chain in
// the list (the layout a prior InsertRun or AccessRun of the same run
// leaves behind — the steady state of extent-granularity traffic), and
// splices the chain to the front in one list operation. InsertRun links
// each maximal segment of fresh, non-evicting newborns into a private
// chain and splices it once. Both degrade gracefully to the per-key
// loop, which is the property-tested reference semantics.
type lruCore struct {
	capacity int
	slots    []slot
	idx      keyIndex
	list     slotList
	free     int32 // freelist head, threaded through slot.next
	used     int32 // bump high-water into slots
	victim   func() int32

	// clean is WLRU's clean cursor, nil for LRU. Every list mutation goes
	// through moveFront/unlink/pushChain below, which report to it
	// behind one nil test.
	clean *cleanCursor
}

func (c *lruCore) initCore(capacity int) {
	if capacity < 1 {
		panic("cache: capacity must be positive")
	}
	c.capacity = capacity
	c.slots = make([]slot, capacity)
	c.idx = newKeyIndex(capacity)
	c.list.init()
	c.free = nilSlot
	c.used = 0
}

// alloc takes a slot from the freelist or the bump region. The arena
// never grows: live + free slots never exceed capacity.
func (c *lruCore) alloc(k Key) int32 { return arenaAlloc(c.slots, &c.free, &c.used, k) }

// release returns a detached slot to the freelist.
func (c *lruCore) release(s int32) { arenaRelease(c.slots, &c.free, s) }

// unlink detaches s from the list.
func (c *lruCore) unlink(s int32) {
	if c.clean != nil {
		c.clean.unlinking(c.slots, s)
	}
	c.list.remove(c.slots, s)
}

// pushChain links the pre-linked chain first..last (front-to-back, n
// slots; first == last for a single slot) at the front.
func (c *lruCore) pushChain(first, last int32, n int) {
	c.list.pushFrontChain(c.slots, first, last, n)
	if c.clean != nil && c.clean.cur == nilSlot {
		c.clean.cur = last
	}
}

// moveFront makes s the MRU entry.
func (c *lruCore) moveFront(s int32) {
	if c.list.head == s {
		return
	}
	c.unlink(s)
	c.pushChain(s, s, 1)
}

// Capacity implements Policy.
func (c *lruCore) Capacity() int { return c.capacity }

// Len implements Policy.
func (c *lruCore) Len() int { return c.list.size }

// Contains implements Policy.
func (c *lruCore) Contains(k Key) bool { return c.idx.get(k) != nilSlot }

// Access implements Policy.
func (c *lruCore) Access(k Key, _ int64) {
	if s := c.idx.get(k); s != nilSlot {
		c.moveFront(s)
	}
}

// Insert implements Policy.
func (c *lruCore) Insert(k Key, size int64) (Key, bool) {
	cell, s := c.idx.findCell(k)
	if s != nilSlot {
		c.moveFront(s)
		return 0, false
	}
	if c.list.size >= c.capacity {
		v := c.victim()
		vk := c.slots[v].key
		c.unlink(v)
		c.idx.del(vk)
		c.slots[v].key = k // reuse the victim's slot for the newcomer
		c.idx.put(k, v)    // re-probe: del may have shifted the cell
		c.pushChain(v, v, 1)
		return vk, true
	}
	s = c.alloc(k)
	c.idx.setCell(cell, k, s)
	c.pushChain(s, s, 1)
	return 0, false
}

// AccessRun implements Policy. The per-key loop's net effect on a fully
// resident consecutive run is "move the chain k+n-1 … k to the front";
// when the entries already sit in exactly that chain order, one index
// probe finds the head and one splice commits the whole run.
func (c *lruCore) AccessRun(k Key, n, size int64) {
	if n > 1 {
		if first := c.idx.get(k + n - 1); first != nilSlot {
			last, ok := first, true
			for i := int64(1); i < n; i++ {
				last = c.slots[last].next
				if last == nilSlot || c.slots[last].key != k+n-1-i {
					ok = false
					break
				}
			}
			if ok {
				if c.list.head != first { // already MRU: the loop is a no-op
					if c.clean != nil {
						c.clean.unlinkingChain(c.slots, first, last)
					}
					c.list.unlinkChain(c.slots, first, last, int(n))
					c.pushChain(first, last, int(n))
				}
				return
			}
		}
	}
	for i := int64(0); i < n; i++ {
		if s := c.idx.get(k + i); s != nilSlot {
			c.moveFront(s)
		}
	}
}

// InsertRun implements Policy: maximal segments of fresh, non-evicting
// newborns are linked into a private chain (front-to-back = descending
// key, the order a loop of Insert leaves at the list front) and spliced
// in one operation; resident keys and evicting inserts commit the
// pending segment first and then follow the per-key semantics exactly,
// so the victim sequence is identical to a loop of Insert.
func (c *lruCore) InsertRun(k Key, n, size int64, evicted func(Key)) {
	segFirst, segLast := nilSlot, nilSlot
	segN := 0
	for i := int64(0); i < n; i++ {
		key := k + i
		cell, s := c.idx.findCell(key)
		if s != nilSlot {
			// Resident → Access; the pending newborns were inserted
			// earlier in the loop, so they commit before this access.
			if segFirst != nilSlot {
				c.pushChain(segFirst, segLast, segN)
				segFirst, segLast, segN = nilSlot, nilSlot, 0
			}
			c.moveFront(s)
			continue
		}
		if c.list.size+segN >= c.capacity {
			// This insert evicts. Commit the pending segment first: the
			// victim choice must see the earlier newborns (it may even
			// choose one, exactly as the per-key loop can).
			if segFirst != nilSlot {
				c.pushChain(segFirst, segLast, segN)
				segFirst, segLast, segN = nilSlot, nilSlot, 0
			}
			v := c.victim()
			vk := c.slots[v].key
			c.unlink(v)
			c.idx.del(vk)
			c.slots[v].key = key
			c.idx.put(key, v)
			c.pushChain(v, v, 1)
			evicted(vk)
			continue
		}
		// Fresh, no eviction: chain the newborn ahead of its elders.
		s = c.alloc(key)
		c.idx.setCell(cell, key, s)
		if segFirst == nilSlot {
			segLast = s
		} else {
			c.slots[s].next = segFirst
			c.slots[segFirst].prev = s
		}
		segFirst = s
		segN++
	}
	if segFirst != nilSlot {
		c.pushChain(segFirst, segLast, segN)
	}
}

// Remove implements Policy.
func (c *lruCore) Remove(k Key) bool {
	s := c.idx.get(k)
	if s == nilSlot {
		return false
	}
	c.unlink(s)
	c.idx.del(k)
	c.release(s)
	return true
}

// Clear implements Policy.
func (c *lruCore) Clear() {
	c.idx.clear()
	c.list.init()
	c.free = nilSlot
	c.used = 0
	if c.clean != nil {
		c.clean.reset()
	}
}

// Keys implements Policy.
func (c *lruCore) Keys() []Key {
	out := make([]Key, 0, c.list.size)
	for s := c.list.head; s != nilSlot; s = c.slots[s].next {
		out = append(out, c.slots[s].key)
	}
	return out
}

// LRU evicts the least recently used entry.
type LRU struct{ lruCore }

// NewLRU returns an LRU policy holding at most capacity entries.
func NewLRU(capacity int) *LRU {
	l := &LRU{}
	l.initCore(capacity)
	l.victim = l.list.back
	return l
}

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// WLRU is the paper's Weighted LRU: LRU that prefers evicting a clean
// entry, taking the first clean one among the w·capacity least recent
// entries before falling back to the plain LRU victim (§4.1). Evicting
// clean entries saves CRAID the four parity I/Os a dirty write-back
// costs.
//
// The victim choice costs O(1) amortized instead of a w·capacity scan:
// a cleanCursor remembers how far previous evictions already found the
// LRU end dirty, which stays true under the DirtyFunc contract.
type WLRU struct {
	lruCore
	window float64
	limit  int // window·capacity: how many LRU-end entries may be skipped
	dirty  DirtyFunc
}

// NewWLRU returns a WLRU policy with scan window w (fraction of
// capacity, typically 0.5). dirty may be nil, meaning no entry is ever
// dirty (WLRU then degenerates to LRU); otherwise it must keep the
// DirtyFunc contract.
func NewWLRU(capacity int, w float64, dirty DirtyFunc) *WLRU {
	if w < 0 || w > 1 {
		panic("cache: WLRU window must be in [0,1]")
	}
	l := &WLRU{window: w, limit: int(w * float64(capacity)), dirty: dirty}
	l.initCore(capacity)
	l.victim = l.list.back
	if dirty != nil && l.limit > 0 {
		l.clean = newCleanCursor(capacity)
		l.victim = l.pickVictim
	}
	return l
}

// Name implements Policy; it includes the window, e.g. "WLRU0.5".
func (l *WLRU) Name() string {
	return "WLRU" + strconv.FormatFloat(l.window, 'g', -1, 64)
}

// pickVictim returns the first clean entry among the limit least
// recent ones, or the plain LRU entry if all of them are dirty. The
// cursor only moves past entries it finds dirty, so each resident entry
// is probed once per stay at the LRU end.
func (l *WLRU) pickVictim() int32 {
	t := l.clean
	for t.run < l.limit && t.cur != nilSlot && l.dirty(l.slots[t.cur].key) {
		t.mark(t.cur)
		t.run++
		t.cur = l.slots[t.cur].prev
	}
	if t.run < l.limit && t.cur != nilSlot {
		return t.cur
	}
	return l.list.back()
}

// cleanCursor is WLRU's incremental victim scan. The run is the suffix
// of the recency list (its run least recent entries) that earlier
// victim choices found dirty; cur is the least recent entry not in the
// run, nilSlot when the run is the whole list. A resident key never
// turns clean (the DirtyFunc contract), so the run stays all-dirty until
// its entries leave the list, and the next scan resumes at cur.
type cleanCursor struct {
	cur   int32
	run   int
	inRun []uint64 // bitset over arena slots: slot is in the run
}

func newCleanCursor(capacity int) *cleanCursor {
	return &cleanCursor{cur: nilSlot, inRun: make([]uint64, (capacity+63)/64)}
}

func (t *cleanCursor) marked(s int32) bool { return t.inRun[s>>6]&(1<<(s&63)) != 0 }
func (t *cleanCursor) mark(s int32)        { t.inRun[s>>6] |= 1 << (s & 63) }
func (t *cleanCursor) unmark(s int32)      { t.inRun[s>>6] &^= 1 << (s & 63) }

// unlinking is called just before s leaves the list: a run entry
// shrinks the run, and the cursor entry hands over to its newer
// neighbour (the run below it is unchanged).
func (t *cleanCursor) unlinking(slots []slot, s int32) {
	if t.marked(s) {
		t.unmark(s)
		t.run--
	} else if s == t.cur {
		t.cur = slots[s].prev
	}
}

// unlinkingChain is unlinking for the contiguous chain first..last
// (front-to-back) leaving in one splice. Entries older than a run entry
// are run entries and the entry just newer than the run is cur, so the
// chain touches the cursor state only if its oldest entry does, and the
// walk stops at the first non-run entry.
func (t *cleanCursor) unlinkingChain(slots []slot, first, last int32) {
	s := last
	for t.marked(s) {
		t.unmark(s)
		t.run--
		if s == first {
			return
		}
		s = slots[s].prev
	}
	if s == t.cur {
		t.cur = slots[first].prev
	}
}

// reset empties the run (Clear).
func (t *cleanCursor) reset() {
	t.cur, t.run = nilSlot, 0
	clear(t.inRun)
}
