package core

import (
	"testing"

	"craid/internal/disk"
	"craid/internal/metrics"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// busyCheck recounts an array's busy devices the direct way — polling
// every device's Busy() — at each device submit, requires the count the
// array maintains to agree, and records the polled samples that the
// array's Table 5 statistics must reproduce.
type busyCheck struct {
	t           *testing.T
	arr         *Array
	queue, conc *metrics.LatencyHist
	destaging   int // samples that saw an idle-queue HDD busy destaging
	ssdBusy     int // samples that saw an SSD busy
}

func (b *busyCheck) sample(q queuer) {
	polled := 0
	for i := 0; i < b.arr.Devices(); i++ {
		d := b.arr.Device(i).(queuer)
		if d.Busy() {
			polled++
			switch d.(type) {
			case checkedHDD:
				if d.QueueDepth() == 0 {
					b.destaging++
				}
			case checkedSSD:
				b.ssdBusy++
			}
		}
	}
	if got := b.arr.busyDevices(); got != polled {
		b.t.Fatalf("at %v: array counts %d busy devices, polling finds %d", b.arr.Eng.Now(), got, polled)
	}
	b.queue.Add(sim.Time(q.QueueDepth()))
	b.conc.Add(sim.Time(polled))
}

// checkedHDD and checkedSSD sample before forwarding each Submit. They
// embed the concrete models, so the array resolves the same optional
// interfaces (TrackBusy for the HDD) as on the bare devices.
type checkedHDD struct {
	*disk.HDD
	chk *busyCheck
}

func (d checkedHDD) Submit(r *disk.Request) { d.chk.sample(d.HDD); d.HDD.Submit(r) }

type checkedSSD struct {
	*disk.SSD
	chk *busyCheck
}

func (d checkedSSD) Submit(r *disk.Request) { d.chk.sample(d.SSD); d.SSD.Submit(r) }

// TestBusyCountMatchesPolling replays a write-heavy burst through CRAID
// on an HDD-only array with a small write-back cache (so destages keep
// disks busy with empty queues) and on a mixed array whose cache
// partition sits on SSDs (time-based busy state, still polled). At every
// submit the maintained busy count must equal a poll of all devices,
// and the array's QueueStats/ConcurrencyStats must equal the statistics
// of the polled samples.
func TestBusyCountMatchesPolling(t *testing.T) {
	for _, tc := range []struct {
		name string
		ssds int // dedicated cache-partition SSDs after the 4 HDDs
	}{{"hdd", 0}, {"hdd+ssd", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			chk := &busyCheck{t: t, queue: metrics.NewLatencyHist(), conc: metrics.NewLatencyHist()}
			var devs []disk.Device
			for i := 0; i < 4; i++ {
				cfg := disk.CheetahConfig("hdd")
				cfg.WriteCacheBlocks = 64
				devs = append(devs, checkedHDD{disk.NewHDD(eng, cfg), chk})
			}
			for i := 0; i < tc.ssds; i++ {
				devs = append(devs, checkedSSD{disk.NewSSD(eng, disk.MSRSSDConfig("ssd")), chk})
			}
			arr := NewArray(eng, devs)
			chk.arr = arr

			const cachePerDisk = 256
			hdds := []int{0, 1, 2, 3}
			cfg := Config{Policy: "WLRU", CachePerDisk: cachePerDisk, ParityGroup: 4, StripeUnit: 4}
			pa := raid.NewRAID5(4, 4, 1<<16, 4)
			var c *CRAID
			if tc.ssds == 0 {
				c = mustCRAID(arr, cfg, true, hdds, 0, pa, hdds, cachePerDisk)
			} else {
				cfg.ParityGroup = tc.ssds
				c = mustCRAID(arr, cfg, false, []int{4, 5, 6}, 0, pa, hdds, 0)
			}
			// Spaced so disks drain between bursts: destages start on
			// empty queues and overlap the next arrivals.
			recs := randomWorkload(5, 600, 1<<15)
			for i := range recs {
				recs[i].Time = sim.Time(i) * 2 * sim.Millisecond
			}
			if _, _, err := ReplayWith(eng, c, trace.NewSlice(recs), ReplayConfig{}); err != nil {
				t.Fatal(err)
			}

			if chk.conc.Count() == 0 || chk.conc.Max() == 0 {
				t.Fatalf("no busy samples (%d submits)", chk.conc.Count())
			}
			if tc.ssds == 0 && chk.destaging == 0 {
				t.Fatal("no submit saw a destaging disk: write-back destage never overlapped")
			}
			if tc.ssds > 0 && chk.ssdBusy == 0 {
				t.Fatal("no submit saw a busy SSD: the polled devices were never sampled busy")
			}
			wantMean, wantP99, wantMax := float64(chk.conc.Mean()), int64(chk.conc.Percentile(0.99)), int64(chk.conc.Max())
			if mean, p99, max := arr.ConcurrencyStats(); mean != wantMean || p99 != wantP99 || max != wantMax {
				t.Errorf("ConcurrencyStats = %v/%d/%d, polled samples give %v/%d/%d", mean, p99, max, wantMean, wantP99, wantMax)
			}
			wantMean, wantP99, wantMax = float64(chk.queue.Mean()), int64(chk.queue.Percentile(0.99)), int64(chk.queue.Max())
			if mean, p99, max := arr.QueueStats(); mean != wantMean || p99 != wantP99 || max != wantMax {
				t.Errorf("QueueStats = %v/%d/%d, polled samples give %v/%d/%d", mean, p99, max, wantMean, wantP99, wantMax)
			}
		})
	}
}
