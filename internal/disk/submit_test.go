package disk

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"craid/internal/sim"
)

// cycleInjector fails every seventh request and slows every third, by
// call count, so two runs with the same submission order draw the same
// verdicts.
type cycleInjector struct{ n int }

func (c *cycleInjector) Verdict(op Op, block, count int64) (bool, float64) {
	c.n++
	lat := 0.0
	if c.n%3 == 0 {
		lat = 2.5
	}
	return c.n%7 == 3, lat
}

// completion is one observed Done or Fail call.
type completion struct {
	id     int
	at     sim.Time
	failed bool
}

// reuseRun submits a fixed random stream of requests to a fresh device
// in bursts of up to eight at one instant, so queues and the write
// cache fill. With reuse set, every Submit gets the same Request, which
// the caller overwrites with poison right after Submit returns; without
// it, each Submit gets a fresh Request. faults arms an injector and
// fails the device for part of the run.
func reuseRun(t *testing.T, mk func(*sim.Engine) Device, reuse, faults bool) ([]completion, Stats) {
	t.Helper()
	eng := sim.NewEngine()
	d := mk(eng)
	if faults {
		f := d.(Faultable)
		f.SetInjector(&cycleInjector{})
		eng.Schedule(200*sim.Millisecond, func() { f.SetFailed(true) })
		eng.Schedule(300*sim.Millisecond, func() { f.SetFailed(false) })
	}
	var log []completion
	poison := func(sim.Time) { t.Error("completion through an overwritten request") }
	var shared Request
	rng := rand.New(rand.NewSource(11))
	id := 0
	for burst := 0; burst < 120; burst++ {
		at := sim.Time(burst) * 5 * sim.Millisecond
		n := 1 + rng.Intn(8)
		reqs := make([]Request, n)
		for j := range reqs {
			i, op := id, OpRead
			id++
			if rng.Intn(2) == 0 {
				op = OpWrite
			}
			count := int64(1 + rng.Intn(48))
			reqs[j] = Request{
				Op: op, Block: rng.Int63n(d.CapacityBlocks() - count), Count: count,
				Done: func(at sim.Time) { log = append(log, completion{i, at, false}) },
				Fail: func(at sim.Time) { log = append(log, completion{i, at, true}) },
			}
		}
		eng.Schedule(at, func() {
			for _, r := range reqs {
				if !reuse {
					d.Submit(&r)
					continue
				}
				shared = r
				d.Submit(&shared)
				shared = Request{Op: OpWrite - r.Op, Block: 0, Count: 1, Done: poison, Fail: poison}
			}
		})
	}
	eng.Run()
	if len(log) != id {
		t.Fatalf("%d completions for %d requests", len(log), id)
	}
	return log, *d.Stats()
}

// TestSubmitReusedRequestMatchesFresh pins Device.Submit's contract that
// a device keeps no reference to the request: a caller overwriting one
// Request right after each Submit sees exactly the completions (order,
// time, Done or Fail) and Stats of a caller passing a fresh Request
// each time, on every model — the HDD under each scheduler with
// write-back on and off — with and without injected faults and a
// failed spell.
func TestSubmitReusedRequestMatchesFresh(t *testing.T) {
	type rig struct {
		name string
		mk   func(*sim.Engine) Device
	}
	var rigs []rig
	for _, sched := range []Scheduler{FCFS, SSTF, LOOK} {
		for _, wb := range []int{0, 64} {
			sched, wb := sched, wb
			rigs = append(rigs, rig{fmt.Sprintf("hdd/sched=%d/wb=%d", sched, wb), func(eng *sim.Engine) Device {
				cfg := smallHDDConfig("hdd")
				cfg.Sched, cfg.WriteCacheBlocks = sched, wb
				return NewHDD(eng, cfg)
			}})
		}
	}
	rigs = append(rigs,
		rig{"ssd", func(eng *sim.Engine) Device { return NewSSD(eng, MSRSSDConfig("ssd")) }},
		rig{"null", func(eng *sim.Engine) Device { return NewNullDevice(eng, "null", 1<<20) }},
	)
	for _, r := range rigs {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faults=%v", r.name, faults), func(t *testing.T) {
				wantLog, wantStats := reuseRun(t, r.mk, false, faults)
				gotLog, gotStats := reuseRun(t, r.mk, true, faults)
				if gotStats != wantStats {
					t.Fatalf("stats with a reused request:\n%+v\nwant (fresh requests):\n%+v", gotStats, wantStats)
				}
				for i := range wantLog {
					if gotLog[i] != wantLog[i] {
						t.Fatalf("completion %d with a reused request: %+v, want %+v", i, gotLog[i], wantLog[i])
					}
				}
				if faults && (wantStats.Errors == 0 || wantStats.Rejected == 0) {
					t.Fatalf("fault run drew no errors or rejections (%+v); the fault paths are untested", wantStats)
				}
			})
		}
	}
}

// TestHDDLocateMatchesSearch checks the zone scan against a binary
// search over the zone ends at every zone boundary, for full-size and
// tiny disks.
func TestHDDLocateMatchesSearch(t *testing.T) {
	for _, capacity := range []int64{CheetahConfig("").CapacityBlocks, 1 << 20, 1971, 10} {
		cfg := CheetahConfig("hdd")
		cfg.CapacityBlocks = capacity
		d := NewHDD(sim.NewEngine(), cfg)
		var probes []int64
		for _, z := range d.zones {
			probes = append(probes, z.firstBlock, z.firstBlock+1, z.endBlock-1)
		}
		probes = append(probes, capacity-1)
		for _, b := range probes {
			if b < 0 || b >= capacity {
				continue
			}
			i := sort.Search(len(d.zones), func(i int) bool { return b < d.zones[i].endBlock })
			z := &d.zones[i]
			zn, cyl, pos := d.locate(b)
			rel := b - z.firstBlock
			if zn != z || cyl != z.firstCyl+rel/z.blocksPCyl || pos != rel%z.blocksPT {
				t.Fatalf("capacity %d block %d: locate = zone %d cyl %d pos %d, want zone %d", capacity, b,
					zn.firstCyl, cyl, pos, z.firstCyl)
			}
		}
	}
}

// BenchmarkHDDSubmit drives a warm HDD (LOOK, write-back on) with
// bursts of 32 queued reads and writes submitted at one instant through
// one reused Request, then drained. Steady state allocates nothing:
// request copies and completions are pooled on the disk.
func BenchmarkHDDSubmit(b *testing.B) {
	cfg := smallHDDConfig("hdd0")
	cfg.WriteCacheBlocks = 256
	eng := sim.NewEngine()
	d := NewHDD(eng, cfg)
	rng := rand.New(rand.NewSource(1))
	type io struct {
		op           Op
		block, count int64
	}
	burst := make([]io, 32)
	for i := range burst {
		burst[i] = io{Op(i % 2), rng.Int63n(cfg.CapacityBlocks - 64), int64(1 + rng.Intn(64))}
	}
	done := 0
	r := Request{Done: func(sim.Time) { done++ }}
	run := func() {
		for _, x := range burst {
			r.Op, r.Block, r.Count = x.op, x.block, x.count
			d.Submit(&r)
		}
		eng.Run()
	}
	run() // warm the pools and queues
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if done != (b.N+1)*len(burst) {
		b.Fatalf("%d completions, want %d", done, (b.N+1)*len(burst))
	}
}

// TestHDDSegmentLRUMatchesClock checks the read cache's recency list
// against the stamp-and-scan LRU it replaced (a use clock per segment,
// the least stamped one, first by index, is the victim): over random
// installs and lookups both choose the same segment every time.
func TestHDDSegmentLRUMatchesClock(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16} {
		cfg := smallHDDConfig("hdd")
		cfg.CacheSegments = n
		d := NewHDD(sim.NewEngine(), cfg)
		ref := make([]segment, n)
		last := make([]int64, n)
		var clock int64
		rng := rand.New(rand.NewSource(int64(n)))
		for op := 0; op < 5000; op++ {
			start := rng.Int63n(64) * 8
			end := start + 1 + rng.Int63n(16)
			if rng.Intn(2) == 0 {
				lru := 0
				for i := range ref {
					if last[i] < last[lru] {
						lru = i
					}
				}
				clock++
				ref[lru].start, ref[lru].end, last[lru] = start, end, clock
				d.installSegment(start, end)
			} else {
				want := false
				for i := range ref {
					if start >= ref[i].start && end <= ref[i].end {
						clock++
						last[i] = clock
						want = true
						break
					}
				}
				if got := d.cacheCovers(start, end); got != want {
					t.Fatalf("%d segments, op %d: cacheCovers(%d, %d) = %v, want %v", n, op, start, end, got, want)
				}
			}
			for i := range ref {
				if s := d.segments[i]; s.start != ref[i].start || s.end != ref[i].end {
					t.Fatalf("%d segments, op %d: segment %d holds [%d,%d), want [%d,%d)",
						n, op, i, s.start, s.end, ref[i].start, ref[i].end)
				}
			}
		}
	}
}
