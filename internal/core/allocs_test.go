package core

import (
	"fmt"
	"testing"

	"craid/internal/disk"
	"craid/internal/fault"
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

// allocRig builds the controller one allocation-gate replay runs on.
type allocRig func(eng *sim.Engine) (*CRAID, *Array)

// hddReplayCRAID is newReplayCRAID on Cheetah-model disks cut down to
// the null rig's capacity, so the HDD request, scheduling and write-back
// paths are the ones replayed. Its cache partition holds the random
// workload's whole span, so past warm-up the disks see mostly hits and
// keep up with the arrivals.
func hddReplayCRAID(eng *sim.Engine) (*CRAID, *Array) {
	devs := make([]disk.Device, 4)
	for i := range devs {
		cfg := disk.CheetahConfig(fmt.Sprintf("hdd%d", i))
		cfg.CapacityBlocks = 100000
		devs[i] = disk.NewHDD(eng, cfg)
	}
	arr := NewArray(eng, devs)
	disks := []int{0, 1, 2, 3}
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: 4096,
		ParityGroup:  4,
		StripeUnit:   64,
	}, true, disks, 0, raid.NewRAID5(4, 4, 4096, 64), disks, 4096)
	return c, arr
}

// replayAllocs measures the total allocations of one full replay of n
// random records, gap apart, through a fresh engine and rig, with spec
// (if any) armed.
func replayAllocs(t *testing.T, rig allocRig, spec string, n int, gap sim.Time) float64 {
	t.Helper()
	recs := randomWorkload(5, n, 12000)
	for i := range recs {
		recs[i].Time = sim.Time(i) * gap
	}
	var plan fault.Plan
	if spec != "" {
		var err error
		if plan, err = fault.ParsePlan(spec); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(5, func() {
		eng := sim.NewEngine()
		c, arr := rig(eng)
		var rt *FaultRuntime
		if spec != "" {
			var err error
			if rt, err = InstallFaults(arr, c, plan, testFaultOptions); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := ReplayWith(eng, c, trace.NewSlice(recs), ReplayConfig{}); err != nil {
			t.Fatal(err)
		}
		if rt != nil && rt.Stats().RebuildBlocks == 0 {
			t.Fatal("plan rebuilt nothing; gate is not testing the rebuild path")
		}
	})
}

// TestReplayAllocsPerRecordZero pins the whole timed replay path —
// scheduling, pump, cache decisions, RMW fan-out, completion events,
// device models — at zero allocations per record: tripling the trace
// must leave the total allocation count within a small constant
// (pipeline batch boundaries), i.e. every per-record control structure
// is pooled. It runs on instant devices, on HDDs, and on HDDs with a
// disk failure and a rate-limited rebuild under the load.
func TestReplayAllocsPerRecordZero(t *testing.T) {
	nullRig := func(eng *sim.Engine) (*CRAID, *Array) { return newReplayCRAID(eng, 64) }
	for _, tc := range []struct {
		name string
		rig  allocRig
		spec string
		gap  sim.Time
	}{
		{"null", nullRig, "", 10 * sim.Microsecond},
		// HDD arrivals are spaced so the disks keep up: queue depths
		// (and so the request pool) stop growing early in the run.
		{"hdd", hddReplayCRAID, "", 10 * sim.Millisecond},
		{"hdd-rebuild", hddReplayCRAID, "seed=3;fail:1@1s;rebuild:1@2s,rate=64", 10 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The smaller run is already past pool warm-up: the freelists
			// (joins, RMW ops, device requests and completions) and
			// growable structures (histogram buckets, device queues) reach
			// their high-water marks within the first few thousand
			// records; after that every record must ride recycled
			// structures only.
			small := replayAllocs(t, tc.rig, tc.spec, 6000, tc.gap)
			large := replayAllocs(t, tc.rig, tc.spec, 18000, tc.gap)
			if large-small > 8 {
				t.Fatalf("replay allocations scale with the trace: %.1f for 6000 records, %.1f for 18000 (%.4f per record, want ~0)",
					small, large, (large-small)/12000)
			}
		})
	}
}

// rebuildAllocs measures the allocations of failing and rebuilding one
// disk of a 4-disk null-device RAID-5 volume whose disks hold rows
// stripe rows, with no client traffic.
func rebuildAllocs(t *testing.T, rows int64) float64 {
	t.Helper()
	plan, err := fault.ParsePlan("fail:1@0s;rebuild:1@1ms,rate=64")
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		eng := sim.NewEngine()
		arr := nullArray(eng, 4, 100000)
		v := NewRAIDController(arr, raid.NewRAID5(4, 4, rows*4, 4), []int{0, 1, 2, 3}, 0)
		rt, err := InstallFaults(arr, v, plan, testFaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if got := rt.Stats().RebuildRows; got != rows {
			t.Fatalf("rebuilt %d rows, want %d", got, rows)
		}
	})
}

// TestRebuildAllocsPerBatchZero pins the rebuild walk at zero
// allocations per batch: tripling the rows (and so the 8-row batches)
// must leave the allocation count flat. Each batch's reads, decode
// delay and spare write ride the job's bound phases and pooled joins.
func TestRebuildAllocsPerBatchZero(t *testing.T) {
	small := rebuildAllocs(t, 1024)
	large := rebuildAllocs(t, 3072)
	if large-small > 2 {
		t.Fatalf("rebuild allocations scale with the rows: %.1f for 1024 rows, %.1f for 3072 (%.3f per batch, want 0)",
			small, large, (large-small)/256)
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
