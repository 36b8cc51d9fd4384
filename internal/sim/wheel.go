package sim

import (
	"math"
	"math/bits"
	"slices"
)

// Hierarchical timing wheel geometry. One tick is 1024 ns (~1 µs, the
// floor of the disk models' latency range: SSD page reads are tens of
// µs, HDD services hundreds of µs to ms). Three levels of 256 slots
// give a horizon of 2^(10+3·8) ns ≈ 17.2 simulated seconds — wider
// than any device latency or rebuild pacing interval — and events
// beyond it (fault-plan triggers hours out, RunUntil sentinels) go to
// a small overflow min-heap and are promoted once level 2's window
// reaches them.
const (
	wheelTickShift = 10 // 1 tick = 1024 ns
	wheelSlotBits  = 8
	wheelSlots     = 1 << wheelSlotBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 3
)

// wnode is an intrusive, freelist-recycled slot-list node. Slot lists
// are unordered (LIFO push): order among same-slot events is restored
// by sorting the drain buffer, so placement and cascading stay O(1).
type wnode struct {
	ev   event
	next *wnode
}

// wheelQ is the timing-wheel timed queue. Events leave in (at, seq)
// order, exactly as from a binary heap over (at, seq) —
// and is enforced in one place: every level-0 slot is drained into buf
// and sorted before any of its events is observed. Cascades and
// promotions move events between levels without comparing them at all.
//
// Invariants:
//   - every event in slots/overflow has tick(at) >= curTick;
//   - buf[bufHead:] holds the events of the most recently drained tick
//     (plus any later-scheduled events that belong before curTick),
//     sorted by (at, seq), and buf's ticks all precede every slot and
//     overflow tick — so buf[bufHead] is the global minimum.
type wheelQ struct {
	curTick  int64 // ticks below curTick live only in buf
	n        int   // events in slots + overflow + buf[bufHead:]
	slots    [wheelLevels][wheelSlots]*wnode
	occ      [wheelLevels][wheelSlots / 64]uint64 // occupied-slot bitmaps
	overflow []event                              // min-heap by (at, seq)
	buf      []event                              // sorted fire buffer
	bufHead  int
	free     *wnode
	stats    *SchedStats
}

// push inserts a future event (the engine guarantees ev.at > now).
func (w *wheelQ) push(ev event) {
	w.n++
	t := int64(ev.at) >> wheelTickShift
	if t < w.curTick {
		// The event belongs to an already-drained tick (possible when
		// RunUntil peeked ahead of the clock): insert directly into
		// the sorted fire buffer.
		w.bufInsert(ev)
		return
	}
	w.place(ev, t)
}

// place files an event with tick t >= curTick into the cheapest level
// whose window covers it, or the overflow heap beyond the horizon.
// Level l covers slot numbers (t >> l·8) within 256 of the clock's.
func (w *wheelQ) place(ev event, t int64) {
	c := w.curTick
	switch {
	case t-c < wheelSlots:
		w.add(0, t&wheelSlotMask, ev)
	case (t>>wheelSlotBits)-(c>>wheelSlotBits) < wheelSlots:
		w.add(1, (t>>wheelSlotBits)&wheelSlotMask, ev)
	case (t>>(2*wheelSlotBits))-(c>>(2*wheelSlotBits)) < wheelSlots:
		w.add(2, (t>>(2*wheelSlotBits))&wheelSlotMask, ev)
	default:
		w.stats.Deferred++
		heapPushEvent(&w.overflow, ev)
	}
}

// add prepends ev to the slot list and marks the occupancy bit.
func (w *wheelQ) add(level int, idx int64, ev event) {
	nd := w.free
	if nd != nil {
		w.free = nd.next
	} else {
		nd = &wnode{}
	}
	nd.ev = ev
	nd.next = w.slots[level][idx]
	w.slots[level][idx] = nd
	w.occ[level][idx>>6] |= 1 << (uint(idx) & 63)
	w.stats.Level[level]++
}

// bufInsert places ev at its sorted position within buf[bufHead:].
// Fired entries (below bufHead) all have at <= now < ev.at, so the
// insertion never crosses them.
func (w *wheelQ) bufInsert(ev event) {
	i := len(w.buf)
	w.buf = append(w.buf, event{})
	for i > w.bufHead && eventLess(ev, w.buf[i-1]) {
		w.buf[i] = w.buf[i-1]
		i--
	}
	w.buf[i] = ev
}

// min reports the earliest pending instant.
func (w *wheelQ) min() (Time, bool) {
	if !w.ensureBuf() {
		return 0, false
	}
	return w.buf[w.bufHead].at, true
}

// pop removes and returns the earliest pending event. Callers check
// emptiness via min()/n first.
func (w *wheelQ) pop() event {
	w.ensureBuf()
	ev := w.buf[w.bufHead]
	w.buf[w.bufHead] = event{} // release callback references
	w.bufHead++
	w.n--
	if w.bufHead == len(w.buf) {
		w.buf, w.bufHead = w.buf[:0], 0
	}
	return ev
}

func cmpEvent(a, b event) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// ensureBuf refills the sorted fire buffer if it is empty: repeatedly
// takes the minimal candidate among the earliest occupied slot of each
// level and the overflow heap — cascading higher-level slots down and
// promoting overflow events — until a level-0 slot wins and is drained,
// or a higher-level slot wins holding one event that drains directly.
func (w *wheelQ) ensureBuf() bool {
	if w.bufHead < len(w.buf) {
		return true
	}
	if w.n == 0 {
		return false
	}
	w.buf, w.bufHead = w.buf[:0], 0
	const inf = int64(math.MaxInt64)
	for {
		t0 := inf // absolute tick of the earliest occupied level-0 slot
		if t, ok := w.nextSlot(0); ok {
			t0 = t
		}
		s1 := inf // start tick of the earliest occupied level-1 slot
		if t, ok := w.nextSlot(1); ok {
			s1 = t
		}
		s2 := inf
		if t, ok := w.nextSlot(2); ok {
			s2 = t
		}
		to := inf
		if len(w.overflow) > 0 {
			to = int64(w.overflow[0].at) >> wheelTickShift
		}
		// Ties go to the coarser structure: a level-1 slot starting at
		// t0 may hold events with tick == t0, so it must cascade down
		// before that level-0 slot is drained. Likewise overflow first.
		switch {
		case to <= t0 && to <= s1 && to <= s2:
			if to > w.curTick {
				w.curTick = to
			}
			// Promote exactly what place accepts into the wheel: an
			// event beyond level 2's window would go straight back to
			// the overflow heap and be popped again forever.
			for len(w.overflow) > 0 {
				tt := int64(w.overflow[0].at) >> wheelTickShift
				if (tt>>(2*wheelSlotBits))-(w.curTick>>(2*wheelSlotBits)) >= wheelSlots {
					break
				}
				ev := heapPopEvent(&w.overflow)
				w.stats.Promoted++
				w.place(ev, tt)
			}
		case s2 <= t0 && s2 <= s1:
			if w.drainLone(2, s2, min(t0, s1, to)) {
				return true
			}
			w.cascade(2, s2)
		case s1 <= t0:
			if w.drainLone(1, s1, min(t0, s2, to)) {
				return true
			}
			w.cascade(1, s1)
		default:
			if t0 == inf {
				panic("sim: wheel event accounting out of sync")
			}
			idx := t0 & wheelSlotMask
			w.occ[0][idx>>6] &^= 1 << (uint(idx) & 63)
			nd := w.slots[0][idx]
			w.slots[0][idx] = nil
			for nd != nil {
				w.buf = append(w.buf, nd.ev)
				next := nd.next
				nd.ev, nd.next = event{}, w.free
				w.free = nd
				nd = next
			}
			w.curTick = t0 + 1
			slices.SortFunc(w.buf, cmpEvent)
			return true
		}
	}
}

// drainLone moves the level-l slot starting at tick start straight
// into the fire buffer, instead of cascading it, when the slot holds a
// single event whose tick is below bound, the earliest tick any other
// level or the overflow heap can hold (later slots of this level start
// past this slot's last tick). That event is then the unique
// minimum, alone at its tick, so the cascade would only carry it down
// level by level to the same end state: buf holding just it, curTick
// one past its tick. A tick equal to bound may be shared with an event
// elsewhere, which must be sorted in with it, so ties cascade.
func (w *wheelQ) drainLone(level int, start, bound int64) bool {
	idx := (start >> (uint(level) * wheelSlotBits)) & wheelSlotMask
	nd := w.slots[level][idx]
	if nd.next != nil {
		return false
	}
	t := int64(nd.ev.at) >> wheelTickShift
	if t >= bound {
		return false
	}
	w.occ[level][idx>>6] &^= 1 << (uint(idx) & 63)
	w.slots[level][idx] = nil
	w.buf = append(w.buf, nd.ev)
	nd.ev, nd.next = event{}, w.free
	w.free = nd
	w.curTick = t + 1
	return true
}

// cascade empties the level-l slot starting at tick start, re-placing
// each event one or two levels down (never the same level: after
// curTick advances to start, every event in the slot fits a finer
// window; never overflow: windows only shrink).
func (w *wheelQ) cascade(level int, start int64) {
	if start > w.curTick {
		w.curTick = start
	}
	idx := (start >> (uint(level) * wheelSlotBits)) & wheelSlotMask
	w.occ[level][idx>>6] &^= 1 << (uint(idx) & 63)
	nd := w.slots[level][idx]
	w.slots[level][idx] = nil
	for nd != nil {
		next := nd.next
		ev := nd.ev
		nd.ev, nd.next = event{}, w.free
		w.free = nd
		w.stats.Cascaded++
		w.place(ev, int64(ev.at)>>wheelTickShift)
		nd = next
	}
}

// nextSlot returns the absolute start tick of the earliest occupied
// slot at the given level, scanning the occupancy bitmap circularly
// from the clock's current slot. Slot numbers in the window are
// [cur, cur+256): a start below curTick is only ever the clock's own,
// partially elapsed slot.
func (w *wheelQ) nextSlot(level int) (int64, bool) {
	cur := w.curTick >> (uint(level) * wheelSlotBits)
	idx := cur & wheelSlotMask
	off, ok := w.scan(level, idx)
	if !ok {
		return 0, false
	}
	return (cur + off) << (uint(level) * wheelSlotBits), true
}

// scan finds the circular distance from bit idx to the first set bit
// in the level's occupancy bitmap.
func (w *wheelQ) scan(level int, idx int64) (int64, bool) {
	occ := &w.occ[level]
	word := idx >> 6
	bit := uint(idx) & 63
	if v := occ[word] >> bit; v != 0 {
		return int64(bits.TrailingZeros64(v)), true
	}
	words := int64(len(occ))
	for i := int64(1); i <= words; i++ {
		wd := (word + i) & (words - 1)
		if v := occ[wd]; v != 0 {
			return i*64 - int64(bit) + int64(bits.TrailingZeros64(v)), true
		}
	}
	return 0, false
}
