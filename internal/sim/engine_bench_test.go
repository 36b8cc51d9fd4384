package sim

import (
	"math"
	"math/rand"
	"testing"
)

// benchEngine drives a self-sustaining event population shaped like
// disk-model traffic: delays from ~30 µs (SSD page) to ~8 ms (HDD
// full seek), plus a same-tick completion hop, at a steady pending
// population of `width` events.
func benchEngine(b *testing.B, width int) {
	delays := make([]Time, 1024)
	rng := rand.New(rand.NewSource(42))
	for i := range delays {
		switch rng.Intn(3) {
		case 0:
			delays[i] = Time(rng.Int63n(int64(200*Microsecond))) + 30*Microsecond
		case 1:
			delays[i] = Time(rng.Int63n(int64(2*Millisecond))) + 100*Microsecond
		default:
			delays[i] = Time(rng.Int63n(int64(8*Millisecond))) + 1*Millisecond
		}
	}
	eng := NewEngine()
	remaining := b.N
	var fn func(Time)
	di := 0
	fn = func(at Time) {
		if remaining--; remaining <= 0 {
			return
		}
		di = (di + 1) & 1023
		eng.AfterTimed(delays[di], fn)
	}
	for i := 0; i < width && remaining > 0; i++ {
		di = (di + 1) & 1023
		eng.AfterTimed(delays[di], fn)
		remaining--
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

func BenchmarkEngineWheel(b *testing.B)     { benchEngine(b, 64) }
func BenchmarkEngineWheelWide(b *testing.B) { benchEngine(b, 4096) }

// BenchmarkEngineSameTickRing measures the zero-delay completion hop
// (instant devices): all events go through the FIFO ring.
func BenchmarkEngineSameTickRing(b *testing.B) {
	eng := NewEngine()
	remaining := b.N
	var fn func(Time)
	fn = func(at Time) {
		if remaining--; remaining > 0 {
			eng.AfterTimed(0, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.AfterTimed(0, fn)
	eng.Run()
}

// BenchmarkEngineSparseTimer measures one lone far-future timer,
// re-armed 10 ms–10 s ahead (log-uniform) each time it fires: the shape
// of a replay's single pending record arrival on a sparse trace. Each
// event drains straight from its level-1/2 slot; cascades/op reports
// any slot cascade that creeps back in.
func BenchmarkEngineSparseTimer(b *testing.B) {
	delays := make([]Time, 1024)
	rng := rand.New(rand.NewSource(42))
	for i := range delays {
		delays[i] = Time(float64(10*Millisecond) * math.Pow(1000, rng.Float64()))
	}
	eng := NewEngine()
	remaining := b.N
	di := 0
	var fn func(Time)
	fn = func(at Time) {
		if remaining--; remaining > 0 {
			di = (di + 1) & 1023
			eng.AfterTimed(delays[di], fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.AfterTimed(delays[0], fn)
	eng.Run()
	b.ReportMetric(float64(eng.SchedStats().Cascaded)/float64(b.N), "cascades/op")
}
