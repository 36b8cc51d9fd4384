package core

import (
	"fmt"
	"testing"

	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// warmCRAID builds a CRAID on instant devices and warms a working set
// that fits entirely in P_C, so subsequent Submits are pure hits. The
// working set is cut into shards equal address-range slices that are
// warmed round-robin, one 256-block extent from each slice in turn: one
// shard inserts the extents in address order, more shards insert them
// interleaved, which leaves the mapping tree and the policy's recency
// order shaped differently.
func warmCRAID(t *testing.T, policy string, shards int) (*sim.Engine, *CRAID) {
	t.Helper()
	eng := sim.NewEngine()
	arr := nullArray(eng, 10, 1<<30)
	disks := make([]int, 10)
	for i := range disks {
		disks[i] = i
	}
	paLayout := raid.NewRAID5(10, 10, 400_000, 32)
	c := mustCRAID(arr, Config{
		Policy:       policy,
		CachePerDisk: 8192,
		ParityGroup:  10,
		StripeUnit:   32,
	}, true, disks, 0, paLayout, disks, 8192)
	slice := int64(1<<16) / int64(shards)
	for off := int64(0); off < slice; off += 256 {
		for s := int64(0); s < int64(shards); s++ {
			b := s*slice + off
			c.Submit(trace.Record{Op: disk.OpWrite, Block: b, Count: 256}, nil)
			eng.Run()
			c.Submit(trace.Record{Op: disk.OpRead, Block: b, Count: 256}, nil)
			eng.Run()
		}
	}
	return eng, c
}

// replayAllocs measures the total allocations of one full replay of n
// random records through a fresh engine and controller.
func replayAllocs(t *testing.T, n int) float64 {
	t.Helper()
	recs := randomWorkload(5, n, 12000)
	return testing.AllocsPerRun(5, func() {
		eng := sim.NewEngine()
		c, _ := newReplayCRAID(eng, 64)
		if _, _, err := ReplayWith(eng, c, trace.NewSlice(recs), ReplayConfig{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReplayAllocsPerRecordZero pins the whole timed replay path —
// scheduling, pump, cache decisions, RMW fan-out, completion events —
// at zero allocations per record: tripling the trace must leave the
// total allocation count within a small constant (pipeline batch
// boundaries), i.e. every per-record control structure is pooled.
func TestReplayAllocsPerRecordZero(t *testing.T) {
	// The smaller run is already past pool warm-up: the freelists (joins,
	// RMW ops, device completions) and growable structures (histogram
	// buckets, device queues) reach their high-water marks within the
	// first few thousand records; after that every record must ride
	// recycled structures only.
	small := replayAllocs(t, 6000)
	large := replayAllocs(t, 18000)
	if large-small > 8 {
		t.Fatalf("replay allocations scale with the trace: %.1f for 6000 records, %.1f for 18000 (%.4f per record, want ~0)",
			small, large, (large-small)/12000)
	}
}

// TestSubmitWarmAllocFree is the monitor's steady-state allocation
// gate: on a warm cache, a whole Submit — classification, policy
// access, dirty-flip logging hooks, redirected I/O, latency recording,
// the event engine drain — performs zero allocations, for every policy
// and for a working set warmed in address order (shards=1) and
// interleaved across eight address-range slices (shards=8; see
// warmCRAID). This is what keeps GC entirely out of the hot loop at
// millions of simulated requests per second.
func TestSubmitWarmAllocFree(t *testing.T) {
	for _, policy := range []string{"LRU", "WLRU", "LFUDA", "GDSF", "ARC"} {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				eng, c := warmCRAID(t, policy, shards)
				b := int64(0)
				read := trace.Record{Op: disk.OpRead, Count: 256}
				write := trace.Record{Op: disk.OpWrite, Count: 256}
				if allocs := testing.AllocsPerRun(300, func() {
					read.Block = b
					c.Submit(read, nil)
					eng.Run()
					write.Block = b
					c.Submit(write, nil)
					eng.Run()
					b = (b + 256) % (1 << 16)
				}); allocs > 0 {
					t.Fatalf("warm Submit allocated %.1f per round (policy %s, %d shards), want 0",
						allocs, policy, shards)
				}
				if hits := c.Stats().ReadHits; hits == 0 {
					t.Fatal("warm workload produced no read hits; gate is not testing the hit path")
				}
			})
		}
	}
}
