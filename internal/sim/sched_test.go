package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// firing is one observed event dispatch: the engine clock at dispatch
// plus the identity of the scheduled callback.
type firing struct {
	at Time
	id int
}

// script is a deterministic schedule-order torture script: a mix of
// immediate, near, far, overflow-distance and same-instant events,
// some scheduled from inside callbacks, replayed identically against
// two engines.
type scriptOp struct {
	delay Time // relative to the clock when the op executes
	nest  int  // how many chained events this callback schedules
}

func runScript(eng clock, ops []scriptOp) []firing {
	var log []firing
	id := 0
	var schedule func(op scriptOp)
	schedule = func(op scriptOp) {
		myID := id
		id++
		nest := op.nest
		delay := op.delay
		eng.After(op.delay, func() {
			log = append(log, firing{eng.Now(), myID})
			for i := 0; i < nest; i++ {
				schedule(scriptOp{delay: delay/2 + Time(i), nest: 0})
			}
		})
	}
	for _, op := range ops {
		schedule(op)
	}
	eng.Run()
	return log
}

// randomScript generates delays spanning every wheel level, the
// same-tick ring, and the overflow heap.
func randomScript(rng *rand.Rand, n int) []scriptOp {
	spans := []Time{
		0,                // same instant → ring
		100,              // sub-tick
		50 * Microsecond, // level 0
		5 * Millisecond,  // level 1
		2 * Second,       // level 2
		30 * Second,      // beyond the 17.2s horizon → overflow
	}
	ops := make([]scriptOp, n)
	for i := range ops {
		span := spans[rng.Intn(len(spans))]
		d := span
		if span > 0 {
			d = Time(rng.Int63n(int64(span))) + 1
		}
		nest := 0
		if rng.Intn(4) == 0 {
			nest = rng.Intn(3) + 1
		}
		ops[i] = scriptOp{delay: d, nest: nest}
	}
	return ops
}

// sameFirings fails t unless the wheel and the heap reference fired the
// same sequence — instant AND callback identity.
func sameFirings(t *testing.T, label string, wheel, heap []firing) {
	t.Helper()
	if len(wheel) != len(heap) {
		t.Fatalf("%s: wheel fired %d events, heap %d", label, len(wheel), len(heap))
	}
	for i := range wheel {
		if wheel[i] != heap[i] {
			t.Fatalf("%s: firing %d differs: wheel %+v heap %+v", label, i, wheel[i], heap[i])
		}
	}
}

// TestSchedulerTortureWheelVsHeap replays randomized schedule-order
// scripts against the engine and the heap reference and requires the
// full firing sequence to be identical.
func TestSchedulerTortureWheelVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomScript(rng, 400)
		wheel := runScript(NewEngine(), ops)
		heap := runScript(&heapEngine{}, ops)
		sameFirings(t, fmt.Sprintf("seed %d", seed), wheel, heap)
	}
}

// sparseTimer keeps exactly one timer pending, re-armed 10 ms–10 s
// ahead (log-uniform) each time it fires, and logs every firing.
func sparseTimer(eng clock, seed int64, n int) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	var arm func()
	arm = func() {
		id := len(log)
		delay := Time(float64(10*Millisecond) * math.Pow(1000, rng.Float64()))
		eng.After(delay, func() {
			log = append(log, firing{eng.Now(), id})
			if len(log) < n {
				arm()
			}
		})
	}
	arm()
	eng.Run()
	return log
}

// TestSchedulerSparseTimerNoCascade runs one far-future timer at a time
// against the heap reference. Each sits alone at level 1 or 2, below
// every other candidate, so the wheel drains it straight into the fire
// buffer: same firings, and not a single cascade.
func TestSchedulerSparseTimerNoCascade(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		eng := NewEngine()
		wheel := sparseTimer(eng, seed, 2000)
		sameFirings(t, fmt.Sprintf("seed %d", seed), wheel, sparseTimer(&heapEngine{}, seed, 2000))
		st := eng.SchedStats()
		if st.Cascaded != 0 {
			t.Fatalf("seed %d: %d cascades for a lone timer, want 0", seed, st.Cascaded)
		}
		if st.Level[1] == 0 || st.Level[2] == 0 {
			t.Fatalf("seed %d: placements per level %v: want both level 1 and level 2 exercised", seed, st.Level)
		}
	}
}

// TestSchedulerLoneSlotTie pins the strictness of the lone-event drain.
// A lone level-1 or level-2 event shares its tick with an event filed
// at a finer level later, once the clock has moved close; the later
// event has the earlier instant and must fire first. Draining the lone
// event straight into the fire buffer would fire it alone, ahead of
// its tick-mate.
func TestSchedulerLoneSlotTie(t *testing.T) {
	const slot1 = int64(1) << wheelSlotBits       // ticks per level-1 slot
	const slot2 = int64(1) << (2 * wheelSlotBits) // ticks per level-2 slot
	for _, tc := range []struct {
		name  string
		start int64 // first tick of the lone event's slot
	}{
		{"level 1", 100 * slot1},
		{"level 2", 3 * slot2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lone := tc.start + 5 // the lone event's tick
			hop := tc.start - 11 // fires first, alone in the slot below
			at := func(tick, ns int64) Time { return Time(tick<<wheelTickShift + ns) }
			script := func(eng clock) []firing {
				var log []firing
				eng.Schedule(at(lone, 700), func() { log = append(log, firing{eng.Now(), 1}) })
				eng.Schedule(at(hop, 0), func() {
					log = append(log, firing{eng.Now(), 0})
					// Within 256 ticks of the clock: level 0.
					eng.Schedule(at(lone, 100), func() { log = append(log, firing{eng.Now(), 2}) })
				})
				eng.Run()
				return log
			}
			eng := NewEngine()
			got := script(eng)
			sameFirings(t, tc.name, got, script(&heapEngine{}))
			if want := []int{0, 2, 1}; len(got) != 3 || got[1].id != want[1] || got[2].id != want[2] {
				t.Fatalf("firing order %+v, want ids %v", got, want)
			}
			if eng.SchedStats().Cascaded == 0 {
				t.Fatal("the tied lone event was not cascaded")
			}
		})
	}
}

// TestSchedulerOverflowPromotionWindow is the regression test for an
// overflow promotion that never terminated. Promotion used to take
// every overflow event within 2^24 ticks of the clock, but level 2
// only accepts ticks whose 2^16-tick slot number is within 256 of the
// clock's: with the clock late in its level-2 slot, an event just
// inside the tick horizon but past the slot window went straight back
// to the overflow heap and was popped again forever. Both events here
// start in the overflow heap; the first one's promotion moves the
// clock to the end of a level-2 slot, leaving the second in that gap.
func TestSchedulerOverflowPromotionWindow(t *testing.T) {
	const slot2 = int64(1) << (2 * wheelSlotBits) // ticks per level-2 slot
	first := 512*slot2 + slot2 - 1                // last tick of its level-2 slot
	second := first + wheelSlots*slot2 - 1        // 2^24-1 ticks later: one slot past the window
	ats := []Time{Time(first << wheelTickShift), Time(second << wheelTickShift)}
	script := func(eng clock) []firing {
		var log []firing
		for i, at := range ats {
			id := i
			eng.Schedule(at, func() { log = append(log, firing{eng.Now(), id}) })
		}
		eng.Run()
		return log
	}
	done := make(chan []firing, 1)
	go func() { done <- script(NewEngine()) }()
	select {
	case wheel := <-done:
		sameFirings(t, "overflow window", wheel, script(&heapEngine{}))
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not drain two overflow events within 10s")
	}
}

// TestSchedulerFIFOSameInstant pins the global FIFO contract directly:
// events scheduled for one future instant, interleaved with events at
// other instants and in shuffled submission order, fire in exactly
// submission order on the engine and the heap reference.
func TestSchedulerFIFOSameInstant(t *testing.T) {
	for _, eng := range []clock{NewEngine(), &heapEngine{}} {
		rng := rand.New(rand.NewSource(7))
		const target = 3 * Millisecond
		var got []int
		want := make([]int, 0, 500)
		for i := 0; i < 500; i++ {
			id := i
			got := &got
			eng.Schedule(target, func() { *got = append(*got, id) })
			want = append(want, id)
			// Noise at other instants must not perturb the order.
			if rng.Intn(3) == 0 {
				eng.Schedule(Time(rng.Int63n(int64(10*Millisecond)))+1, func() {})
			}
		}
		eng.Run()
		if len(got) != len(want) {
			t.Fatalf("%T: fired %d of %d same-instant events", eng, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T: same-instant event %d fired out of order (got id %d)", eng, i, got[i])
			}
		}
	}
}

// TestSchedulerRunUntilLateInsert pins a wheel-specific edge: RunUntil
// peeks (draining a future slot into the fire buffer) without firing
// it; events scheduled afterwards for earlier instants must still fire
// first.
func TestSchedulerRunUntilLateInsert(t *testing.T) {
	for _, eng := range []clock{NewEngine(), &heapEngine{}} {
		var log []firing
		eng.Schedule(5*Millisecond, func() { log = append(log, firing{eng.Now(), 1}) })
		eng.RunUntil(1 * Millisecond) // peeks at the 5ms event, fires nothing
		if len(log) != 0 {
			t.Fatalf("%T: RunUntil fired past its deadline", eng)
		}
		// Earlier than the already-peeked event, later than now.
		eng.Schedule(2*Millisecond, func() { log = append(log, firing{eng.Now(), 2}) })
		eng.Schedule(5*Millisecond-Time(1), func() { log = append(log, firing{eng.Now(), 3}) })
		eng.Run()
		want := []firing{{2 * Millisecond, 2}, {5*Millisecond - 1, 3}, {5 * Millisecond, 1}}
		if len(log) != len(want) {
			t.Fatalf("%T: fired %d events, want %d", eng, len(log), len(want))
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("%T: firing %d = %+v, want %+v", eng, i, log[i], want[i])
			}
		}
	}
}

// TestSchedulerOverflowPromotion drives events far beyond the wheel
// horizon and checks they fire at the right instants in the right
// order, with the overflow counters recording the trip.
func TestSchedulerOverflowPromotion(t *testing.T) {
	eng := NewEngine()
	var log []Time
	for _, at := range []Time{90 * Second, 30 * Second, 60 * Second, 30 * Second} {
		eng.Schedule(at, func() { log = append(log, eng.Now()) })
	}
	eng.Schedule(1*Millisecond, func() {})
	eng.Run()
	want := []Time{1 * Millisecond}
	_ = want
	wantFar := []Time{30 * Second, 30 * Second, 60 * Second, 90 * Second}
	if len(log) != len(wantFar) {
		t.Fatalf("fired %d far events, want %d", len(log), len(wantFar))
	}
	for i := range wantFar {
		if log[i] != wantFar[i] {
			t.Fatalf("far event %d fired at %v, want %v", i, log[i], wantFar[i])
		}
	}
	st := eng.SchedStats()
	if st.Deferred != 4 || st.Promoted != 4 {
		t.Fatalf("overflow stats = deferred %d promoted %d, want 4/4", st.Deferred, st.Promoted)
	}
}

// TestEngineScheduleAllocFree gates the steady-state event path at
// zero allocations per event: after warmup the wheel recycles nodes
// from its freelist and the ring reuses its backing array.
func TestEngineScheduleAllocFree(t *testing.T) {
	eng := NewEngine()
	var fn func(Time)
	n := 0
	fn = func(at Time) {
		if n++; n < 5000 {
			eng.AfterTimed(Time(n%4096)+1, fn)
		}
	}
	// Warm up: grow the ring/freelist and fault in all slots.
	eng.AfterTimed(1, fn)
	eng.Run()
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		eng.AfterTimed(1, fn)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 5000-event run, want 0", allocs)
	}
}

// TestGlobalSchedStats checks the process-wide aggregation: counters
// advance by at least the events a run fires.
func TestGlobalSchedStats(t *testing.T) {
	before := GlobalSchedStats()
	eng := NewEngine()
	for i := 1; i <= 100; i++ {
		eng.Schedule(Time(i)*Microsecond, func() {})
	}
	eng.Run()
	after := GlobalSchedStats()
	if d := after.Fired - before.Fired; d < 100 {
		t.Fatalf("global Fired advanced by %d, want >= 100", d)
	}
	if eng.SchedStats().Fired != 100 {
		t.Fatalf("engine Fired = %d, want 100", eng.SchedStats().Fired)
	}
}
