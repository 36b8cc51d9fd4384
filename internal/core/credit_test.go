package core

import (
	"fmt"
	"testing"
	"unsafe"

	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// eventPerIO wraps a device and forwards everything the array looks for
// except SubmitNow, so an instant device behind it completes each I/O
// with a zero-delay event of its own instead of a join credit.
type eventPerIO struct{ disk.Device }

// queuedEventPerIO also forwards the queue-state view of devices that
// have one.
type queuedEventPerIO struct {
	eventPerIO
	q queuer
}

func (d queuedEventPerIO) QueueDepth() int { return d.q.QueueDepth() }
func (d queuedEventPerIO) Busy() bool      { return d.q.Busy() }

func hideSubmitNow(d disk.Device) disk.Device {
	if q, ok := d.(queuer); ok {
		return queuedEventPerIO{eventPerIO{d}, q}
	}
	return eventPerIO{d}
}

// creditRig is one device set, volume and arrival spacing the credit
// equivalence test replays.
type creditRig struct {
	name  string
	space int64    // records address [0, space)
	gap   sim.Time // inter-arrival time
	devs  func(eng *sim.Engine) []disk.Device
	build func(arr *Array) Volume
}

func nullDevs(n int) func(*sim.Engine) []disk.Device {
	return func(eng *sim.Engine) []disk.Device {
		devs := make([]disk.Device, n)
		for i := range devs {
			devs[i] = disk.NewNullDevice(eng, fmt.Sprintf("null%d", i), 100000)
		}
		return devs
	}
}

func craid5(policy string) func(*Array) Volume {
	return func(arr *Array) Volume {
		disks := []int{0, 1, 2, 3}
		return mustCRAID(arr, Config{Policy: policy, CachePerDisk: 64, ParityGroup: 4, StripeUnit: 4},
			true, disks, 0, raid.NewRAID5(4, 4, 4096, 4), disks, 64)
	}
}

// creditOutcome is what must not depend on how instant completions
// reach the engine.
type creditOutcome struct {
	stats                 Stats
	devs                  []disk.Stats
	readMean, writeMean   sim.Time
	readP99, writeP99     sim.Time
	readCount, writeCount int64
	queueMean, concMean   float64
	queueP99, concP99     int64
	queueMax, concMax     int64
	fired                 int64
}

func replayCreditRig(t *testing.T, rig creditRig, wrap bool) creditOutcome {
	t.Helper()
	eng := sim.NewEngine()
	devs := rig.devs(eng)
	if wrap {
		for i, d := range devs {
			devs[i] = hideSubmitNow(d)
		}
	}
	arr := NewArray(eng, devs)
	vol := rig.build(arr)
	recs := randomWorkload(3, 2000, rig.space)
	for i := range recs {
		recs[i].Time = sim.Time(i) * rig.gap
	}
	if _, _, err := ReplayWith(eng, vol, trace.NewSlice(recs), ReplayConfig{}); err != nil {
		t.Fatal(err)
	}
	var o creditOutcome
	if c, ok := vol.(*CRAID); ok {
		o.stats = *c.Stats()
	}
	for i := 0; i < arr.Devices(); i++ {
		o.devs = append(o.devs, *arr.Device(i).Stats())
	}
	rl, wl := vol.ReadLatency(), vol.WriteLatency()
	o.readMean, o.readP99, o.readCount = rl.Mean(), rl.Percentile(0.99), rl.Count()
	o.writeMean, o.writeP99, o.writeCount = wl.Mean(), wl.Percentile(0.99), wl.Count()
	o.queueMean, o.queueP99, o.queueMax = arr.QueueStats()
	o.concMean, o.concP99, o.concMax = arr.ConcurrencyStats()
	o.fired = eng.SchedStats().Fired
	return o
}

// TestInstantCreditsMatchEventPerIO replays the same trace on bare
// instant devices, whose completions become join credits coalesced into
// one engine event per run, and on the same devices behind a wrapper
// that hides SubmitNow, which forces one completion event per I/O. Both
// must produce identical controller, device, latency and queue
// statistics, and the bare run must fire strictly fewer events.
func TestInstantCreditsMatchEventPerIO(t *testing.T) {
	rigs := []creditRig{
		{name: "CRAID-5/LRU", space: 12000, gap: 10 * sim.Microsecond, devs: nullDevs(4), build: craid5("LRU")},
		{name: "CRAID-5/WLRU", space: 12000, gap: 10 * sim.Microsecond, devs: nullDevs(4), build: craid5("WLRU")},
		{name: "CRAID-5/ARC", space: 12000, gap: 10 * sim.Microsecond, devs: nullDevs(4), build: craid5("ARC")},
		{name: "RAID-5", space: 12000, gap: 10 * sim.Microsecond, devs: nullDevs(4),
			build: func(arr *Array) Volume {
				return NewRAIDController(arr, raid.NewRAID5(4, 4, 16384, 4), []int{0, 1, 2, 3}, 0)
			}},
		{
			// P_A on four HDDs, a dedicated P_C on three instant
			// devices: credits interleave with HDD events.
			name: "CRAID-5/hdd+null", space: 1 << 15, gap: 2 * sim.Millisecond,
			devs: func(eng *sim.Engine) []disk.Device {
				var devs []disk.Device
				for i := 0; i < 4; i++ {
					devs = append(devs, disk.NewHDD(eng, disk.CheetahConfig(fmt.Sprintf("hdd%d", i))))
				}
				return append(devs, nullDevs(3)(eng)...)
			},
			build: func(arr *Array) Volume {
				hdds := []int{0, 1, 2, 3}
				return mustCRAID(arr, Config{Policy: "WLRU", CachePerDisk: 256, ParityGroup: 3, StripeUnit: 4},
					false, []int{4, 5, 6}, 0, raid.NewRAID5(4, 4, 1<<16, 4), hdds, 0)
			},
		},
	}
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			bare := replayCreditRig(t, rig, false)
			ref := replayCreditRig(t, rig, true)
			if bare.fired >= ref.fired {
				t.Errorf("bare run fired %d events, one event per I/O %d: want strictly fewer", bare.fired, ref.fired)
			}
			bare.fired, ref.fired = 0, 0
			if fmt.Sprint(bare) != fmt.Sprint(ref) {
				t.Errorf("outcome differs from one event per I/O\n got %+v\nwant %+v", bare, ref)
			}
			if bare.readCount+bare.writeCount != 2000 {
				t.Errorf("%d requests completed, want 2000", bare.readCount+bare.writeCount)
			}
		})
	}
}

// TestJoinCreditOrder pins the coalescing rule against the reference of
// one zero-delay completion event per branch. Back-to-back credits
// become one event, and the join fires at the same position relative to
// an event scheduled after them. An unrelated zero-delay event scheduled
// between two credits breaks the run: two events, and the join still
// fires after the unrelated one.
func TestJoinCreditOrder(t *testing.T) {
	for _, tc := range []struct {
		name       string
		between    bool // schedule the unrelated event between the credits
		wantEvents int64
	}{
		{"back-to-back", false, 2},
		{"interleaved", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(credit bool) ([]string, int64) {
				eng := sim.NewEngine()
				var log []string
				j := newJoin(func(sim.Time) { log = append(log, "join") })
				other := func() { log = append(log, "other") }
				add := func() {
					if credit {
						j.credit(eng)
					} else {
						eng.AfterTimed(0, j.branch())
					}
				}
				add()
				if tc.between {
					eng.After(0, other)
				}
				add()
				j.seal(eng.Now())
				if !tc.between {
					eng.After(0, other)
				}
				eng.Run()
				return log, eng.SchedStats().Fired
			}
			got, fired := run(true)
			want, refFired := run(false)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("credits fired %v, one event per branch %v", got, want)
			}
			if fired != tc.wantEvents || refFired != 3 {
				t.Errorf("events = %d with credits, %d per branch; want %d and 3", fired, refFired, tc.wantEvents)
			}
		})
	}
}

// TestJoinCreditAfterFire pins that a credit never joins an event that
// has already fired: an unsealed join whose credit event ran takes a
// new credit with nothing scheduled in between (Seq unchanged), and
// must schedule a fresh event for it.
func TestJoinCreditAfterFire(t *testing.T) {
	eng := sim.NewEngine()
	fired := false
	j := newJoin(func(sim.Time) { fired = true })
	j.credit(eng)
	eng.Run()
	j.credit(eng)
	j.seal(eng.Now())
	eng.Run()
	if !fired || eng.SchedStats().Fired != 2 {
		t.Fatalf("join fired=%v after %d events, want fired after 2", fired, eng.SchedStats().Fired)
	}
}

// TestJoinSizeClass keeps the pooled join in the 64-byte size class.
func TestJoinSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(join{}); n > 64 {
		t.Fatalf("join is %d bytes, want at most 64", n)
	}
}
