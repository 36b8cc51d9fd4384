package core

import (
	"math/rand"
	"testing"

	"craid/internal/disk"
	"craid/internal/fault"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// mustCRAID is NewCRAID for tests whose configurations are valid by
// construction.
func mustCRAID(arr *Array, cfg Config, sharedPC bool, cacheDisks []int, cacheBase int64,
	archiveLayout raid.Layout, archiveDisks []int, archiveBase int64) *CRAID {
	c, err := NewCRAID(arr, cfg, sharedPC, cacheDisks, cacheBase, archiveLayout, archiveDisks, archiveBase)
	if err != nil {
		panic(err)
	}
	return c
}

// randomWorkload renders a deterministic random trace that hammers the
// monitor: mixed ops and skewed sizes over span blocks.
func randomWorkload(seed int64, n int, span int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		op := disk.OpRead
		if rng.Intn(3) == 0 {
			op = disk.OpWrite
		}
		count := int64(1 + rng.Intn(64))
		block := rng.Int63n(span - count)
		recs[i] = trace.Record{
			Time:  sim.Time(i) * 10 * sim.Microsecond,
			Op:    op,
			Block: block,
			Count: count,
		}
	}
	return recs
}

// newReplayCRAID is the replay rig: a 4-disk shared-cache WLRU CRAID
// on null devices, RAID-5 in both partitions.
func newReplayCRAID(eng *sim.Engine, cachePerDisk int64) (*CRAID, *Array) {
	arr := nullArray(eng, 4, 100000)
	disks := []int{0, 1, 2, 3}
	paLayout := raid.NewRAID5(4, 4, 4096, 4)
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: cachePerDisk,
		ParityGroup:  4,
		StripeUnit:   4,
	}, true, disks, 0, paLayout, disks, cachePerDisk)
	return c, arr
}

// newRAID6CRAID is the double-fault rig: a 6-disk shared-cache CRAID
// whose cache and archive partitions are both RAID-6, so two
// overlapping erasures stay within the parity budget.
func newRAID6CRAID(eng *sim.Engine, cachePerDisk int64) (*CRAID, *Array) {
	arr := nullArray(eng, 6, 100000)
	disks := []int{0, 1, 2, 3, 4, 5}
	paLayout := raid.NewRAID6(6, 6, 4096, 4)
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: cachePerDisk,
		ParityGroup:  6,
		StripeUnit:   4,
		Level:        PCRaid6,
	}, true, disks, 0, paLayout, disks, cachePerDisk)
	return c, arr
}

// runOutcome is what a replay golden pins: the full Stats struct,
// per-device I/O totals, the index population, and the response-time
// distributions (histogram fingerprints: count, mean, p50, p99, max).
type runOutcome struct {
	stats    Stats
	reads    int64
	writes   int64
	maps     int
	readLat  string
	writeLat string
}

func outcomeOf(c *CRAID, arr *Array) runOutcome {
	r, w := ioTotals(arr)
	return runOutcome{
		stats: *c.Stats(), reads: r, writes: w, maps: c.table.Len(),
		readLat:  c.ReadLatency().String(),
		writeLat: c.WriteLatency().String(),
	}
}

// replayPlain replays recs on a fresh replay rig and returns its
// outcome.
func replayPlain(t *testing.T, recs []trace.Record, cachePerDisk int64, cfg ReplayConfig) runOutcome {
	t.Helper()
	eng := sim.NewEngine()
	c, arr := newReplayCRAID(eng, cachePerDisk)
	n, _, err := ReplayWith(eng, c, trace.NewSlice(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("replayed %d of %d", n, len(recs))
	}
	return outcomeOf(c, arr)
}

// replayFault replays recs on a fresh rig with spec armed, returning
// the full outcome fingerprint: controller stats and histograms, fault
// counters, and every device's counter struct (including Errors and
// Rejected).
func replayFault(t *testing.T, rig func(*sim.Engine, int64) (*CRAID, *Array),
	recs []trace.Record, spec string) (runOutcome, FaultStats, []disk.Stats) {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	c, arr := rig(eng, 64)
	rt, err := InstallFaults(arr, c, plan, testFaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if plan.HasExpand() {
		rt.SetDeviceFactory(nullFactory(eng))
	}
	n, _, err := ReplayWith(eng, c, trace.NewSlice(recs), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("replayed %d of %d", n, len(recs))
	}
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	devs := make([]disk.Stats, arr.Devices())
	for i := range devs {
		devs[i] = *arr.Device(i).Stats()
	}
	return outcomeOf(c, arr), *rt.Stats(), devs
}
