package sim

import (
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
