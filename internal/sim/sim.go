// Package sim implements a deterministic discrete-event simulation
// engine. It is the substrate under every timed experiment in this
// repository: disks, RAID controllers and the CRAID core all advance a
// shared simulated clock by scheduling callbacks on an Engine.
//
// The engine is intentionally single-threaded: determinism matters more
// than parallelism here because experiments assert on exact, repeatable
// results. Events scheduled for the same instant fire in FIFO order.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Time is a simulated instant, measured in integer nanoseconds from the
// start of the simulation. Integer time keeps event ordering exact; all
// latency math converts to nanoseconds at the edges.
type Time int64

// Common simulated durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Hour        Time = 3600 * Second
)

// MaxTime is the largest representable simulated instant.
const MaxTime Time = math.MaxInt64

// Duration converts a standard library duration to simulated time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the instant with millisecond precision, e.g. "12.345ms".
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Milliseconds()) }

// Event is a scheduled callback. Exactly one of fn/tfn is set; tfn
// receives the firing instant, letting completion callbacks schedule
// without a capturing closure.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
	tfn func(Time)
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPushEvent adds ev to the binary min-heap in *q.
func heapPushEvent(q *[]event, ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPopEvent removes and returns the earliest event in *q.
func heapPopEvent(q *[]event) event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release callback references
	*q = h[:n]
	h = *q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(h[l], h[min]) {
			min = l
		}
		if r < n && eventLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// SchedStats counts scheduler activity. Engine counters are cumulative
// per engine; GlobalSchedStats aggregates across all engines in the
// process (flushed at the end of each Run/RunUntil), which is what the
// craidbench per-table footer reports.
type SchedStats struct {
	Fired    int64              // events dispatched (timed queue + same-tick ring)
	Ring     int64              // of Fired, same-instant ring events
	Level    [wheelLevels]int64 // wheel placements per level (incl. cascade re-placements)
	Deferred int64              // placements into the far-future overflow heap
	Promoted int64              // overflow events promoted back into the wheel
	Cascaded int64              // events redistributed by slot cascades
}

var globalSched struct {
	fired    atomic.Int64
	ring     atomic.Int64
	level    [wheelLevels]atomic.Int64
	deferred atomic.Int64
	promoted atomic.Int64
	cascaded atomic.Int64
}

// GlobalSchedStats returns scheduler counters aggregated across every
// engine in the process. Engines flush when Run/RunUntil returns, so
// totals are exact between runs.
func GlobalSchedStats() SchedStats {
	s := SchedStats{
		Fired:    globalSched.fired.Load(),
		Ring:     globalSched.ring.Load(),
		Deferred: globalSched.deferred.Load(),
		Promoted: globalSched.promoted.Load(),
		Cascaded: globalSched.cascaded.Load(),
	}
	for i := range s.Level {
		s.Level[i] = globalSched.level[i].Load()
	}
	return s
}

// Engine is a discrete-event simulation loop. The zero value is not
// usable; create one with NewEngine.
//
// The timed queue is a hierarchical timing wheel (see wheel.go),
// allocation-free in steady state and firing events in exactly
// (instant, schedule order).
//
// Events scheduled for the *current* instant bypass the timed queue
// into a FIFO ring: zero-delay completions (instant devices, same-tick
// callback chains) dominate many workloads and need no ordering work
// beyond arrival order. Correctness of the split: once the clock
// reaches T, every new at=T event lands in the ring with a sequence
// number above all at=T events still in the timed queue (which were
// scheduled while now < T), so draining queue-at-T before the ring
// preserves global FIFO order among same-instant events.
type Engine struct {
	now      Time
	seq      uint64
	wheel    wheelQ  // timed queue
	ring     []event // FIFO of events due at the current instant
	ringHead int
	stopped  bool
	stats    SchedStats // cumulative for this engine
	flushed  SchedStats // portion already added to the global counters
}

// NewEngine returns an engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	e := &Engine{}
	e.wheel.stats = &e.stats
	return e
}

// SchedStats returns this engine's cumulative scheduler counters.
func (e *Engine) SchedStats() SchedStats { return e.stats }

// flushStats publishes counter deltas to the process-wide aggregate.
func (e *Engine) flushStats() {
	d, f := e.stats, e.flushed
	if d == f {
		return
	}
	globalSched.fired.Add(d.Fired - f.Fired)
	globalSched.ring.Add(d.Ring - f.Ring)
	globalSched.deferred.Add(d.Deferred - f.Deferred)
	globalSched.promoted.Add(d.Promoted - f.Promoted)
	globalSched.cascaded.Add(d.Cascaded - f.Cascaded)
	for i := range d.Level {
		globalSched.level[i].Add(d.Level[i] - f.Level[i])
	}
	e.flushed = d
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Seq is the engine's schedule counter. Every Schedule/ScheduleTimed
// (and After/AfterTimed) call increments it, and so does a RunUntil
// that moves the clock forward without firing an event. A caller that
// notes Seq right after scheduling an event at the current instant,
// and later finds it unchanged while that event is still pending,
// knows that the clock has not moved and nothing has been scheduled
// since: the event sits last in the same-instant FIFO, and an event
// scheduled at the current instant now would fire directly after it.
func (e *Engine) Seq() uint64 { return e.seq }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.wheel.n + len(e.ring) - e.ringHead }

// Schedule registers fn to run at the absolute simulated instant at.
// Scheduling in the past (at < Now) panics: it always indicates a
// modelling bug, and silently clamping would corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	if at == e.now {
		e.ring = append(e.ring, event{at: at, seq: e.seq, fn: fn})
		return
	}
	e.wheel.push(event{at: at, seq: e.seq, fn: fn})
}

// ScheduleTimed registers fn to run at the absolute instant at,
// receiving that instant as its argument. Completion callbacks of type
// func(Time) can be scheduled directly, without a capturing closure.
func (e *Engine) ScheduleTimed(at Time, fn func(Time)) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	if at == e.now {
		e.ring = append(e.ring, event{at: at, seq: e.seq, tfn: fn})
		return
	}
	e.wheel.push(event{at: at, seq: e.seq, tfn: fn})
}

// After registers fn to run delay nanoseconds after the current instant.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// AfterTimed registers fn to run delay nanoseconds after the current
// instant, receiving the firing instant.
func (e *Engine) AfterTimed(delay Time, fn func(Time)) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleTimed(e.now+delay, fn)
}

// Stop makes the currently running Run/RunUntil return after the event
// being processed completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event and returns true, or
// returns false if no events remain.
func (e *Engine) Step() bool {
	var ev event
	t, ok := e.wheel.min()
	switch {
	case ok && t == e.now:
		// Timed-queue events due now predate everything in the ring.
		ev = e.wheel.pop()
	case e.ringHead < len(e.ring):
		ev = e.ring[e.ringHead]
		e.ring[e.ringHead] = event{} // release callback references
		e.ringHead++
		if e.ringHead == len(e.ring) {
			e.ring, e.ringHead = e.ring[:0], 0
		}
		e.stats.Ring++
	case ok:
		ev = e.wheel.pop() // the ring is empty: safe to advance the clock
	default:
		return false
	}
	e.stats.Fired++
	e.now = ev.at
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.tfn(ev.at)
	}
	return true
}

// Run processes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	e.flushStats()
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to deadline (if it is in the future) and returns. Events
// scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if e.ringHead < len(e.ring) && e.now <= deadline {
			e.Step()
			continue
		}
		if t, ok := e.wheel.min(); ok && t <= deadline {
			e.Step()
			continue
		}
		break
	}
	if e.now < deadline {
		e.now = deadline
		e.seq++ // see Seq: the clock moved
	}
	e.flushStats()
}
