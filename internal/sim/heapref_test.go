package sim

import "fmt"

// heapEngine is the reference the timing wheel is checked against: one
// binary min-heap over every pending event, same-instant ones included,
// ordered by (instant, schedule order). It implements the Engine's
// scheduling contract in the most direct way, with no ring, levels,
// cascades or overflow promotion.
type heapEngine struct {
	now     Time
	seq     uint64
	queue   []event
	stopped bool
}

// clock is the API shared by Engine and heapEngine that the scheduler
// property tests drive.
type clock interface {
	Now() Time
	Schedule(at Time, fn func())
	After(delay Time, fn func())
	Run()
	RunUntil(deadline Time)
}

var (
	_ clock = (*Engine)(nil)
	_ clock = (*heapEngine)(nil)
)

func (h *heapEngine) Now() Time { return h.now }

func (h *heapEngine) Schedule(at Time, fn func()) {
	if at < h.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, h.now))
	}
	h.seq++
	heapPushEvent(&h.queue, event{at: at, seq: h.seq, fn: fn})
}

func (h *heapEngine) After(delay Time, fn func()) { h.Schedule(h.now+delay, fn) }

func (h *heapEngine) step() {
	ev := heapPopEvent(&h.queue)
	h.now = ev.at
	ev.fn()
}

func (h *heapEngine) Run() {
	h.stopped = false
	for !h.stopped && len(h.queue) > 0 {
		h.step()
	}
}

func (h *heapEngine) RunUntil(deadline Time) {
	h.stopped = false
	for !h.stopped && len(h.queue) > 0 && h.queue[0].at <= deadline {
		h.step()
	}
	if h.now < deadline {
		h.now = deadline
	}
}
