package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/fault"
	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// volume is one assembled CRAID-5 volume, built from the public
// constructors exactly as experiments.Run builds a RunConfig with the
// CRAID-5 strategy: 50 devices, a RAID-5 archive spread over the
// dataset, P_C carved from every disk, and — for fault cells — the
// in-memory dirty-log mirror, the fault runtime and the expansion
// device factory.
type volume struct {
	eng     *sim.Engine
	arr     *core.Array
	craid   *core.CRAID
	archive raid.Layout
	ring    *mapcache.LogRing
	faults  *core.FaultRuntime
}

// wrapDev optionally wraps each device as it is built (the traced run's
// device spans); nil leaves devices bare.
type wrapDev func(disk.Device) disk.Device

// build assembles c's volume. log, when non-nil, sits under the dirty
// log ring in front of the in-memory mirror (the traced run's log
// writer spans).
func build(c *cell, wrap wrapDev, log func(io.Writer) io.Writer) (*volume, error) {
	const (
		disks  = experiments.TestbedDisks
		group  = experiments.TestbedParityGroup
		unit   = experiments.TestbedStripeUnit
		nullBl = 1 << 40
	)
	if wrap == nil {
		wrap = func(d disk.Device) disk.Device { return d }
	}
	var plan fault.Plan
	if c.spec != "" {
		var err error
		if plan, err = fault.ParsePlan(c.spec); err != nil {
			return nil, err
		}
	}
	hcfg := disk.CheetahConfig("hdd")
	diskCap := int64(float64(hcfg.CapacityBlocks) * c.scale)
	pcPerDisk := max(int64(c.pcPct/100*float64(diskCap)), unit)
	paPerDisk := diskCap - pcPerDisk

	v := &volume{eng: sim.NewEngine()}
	newDev := func(i int) disk.Device {
		if c.instant {
			return wrap(disk.NewNullDevice(v.eng, fmt.Sprintf("null%d", i), nullBl))
		}
		h := hcfg
		h.Name = fmt.Sprintf("hdd%d", i)
		h.CapacityBlocks = diskCap
		return wrap(disk.NewHDD(v.eng, h))
	}
	devs := make([]disk.Device, disks)
	hddIdx := make([]int, disks)
	for i := range devs {
		devs[i], hddIdx[i] = newDev(i), i
	}
	v.arr = core.NewArray(v.eng, devs)

	inner := raid.NewRAID5(disks, group, paPerDisk, unit)
	if inner.DataBlocks() < c.dataset {
		return nil, fmt.Errorf("dataset (%d blocks) exceeds archive capacity (%d)", c.dataset, inner.DataBlocks())
	}
	v.archive = raid.NewSpreadLayout(inner, c.dataset)

	cfg := core.Config{Policy: c.policy, CachePerDisk: pcPerDisk, ParityGroup: group, StripeUnit: unit}
	if c.instant {
		// Policy-quality cells size P_C directly in blocks.
		cfg.StripeUnit = 1
		cfg.CachePerDisk = max(c.pcBlocks/int64(disks-disks/group), 1)
	}
	var err error
	if v.craid, err = core.NewCRAID(v.arr, cfg, true, hddIdx, 0, v.archive, hddIdx, cfg.CachePerDisk); err != nil {
		return nil, err
	}

	var mirror *bytes.Buffer
	if plan.HasCrash() {
		// A crash recovers from the log image as of the crash instant:
		// the ring writes into an in-memory mirror, never fsynced.
		mirror = &bytes.Buffer{}
		var w io.Writer = mirror
		if log != nil {
			w = log(w)
		}
		v.ring = mapcache.NewLogRing(w, 0, 0)
		v.craid.SetMappingLog(v.ring)
	}
	if c.spec != "" {
		if v.faults, err = core.InstallFaults(v.arr, v.craid, plan, core.FaultOptions{}); err != nil {
			v.close()
			return nil, err
		}
		if plan.HasExpand() {
			next := v.arr.Devices()
			v.faults.SetDeviceFactory(func(n int) []disk.Device {
				out := make([]disk.Device, n)
				for i := range out {
					out[i] = newDev(next)
					next++
				}
				return out
			})
		}
		if plan.HasCrash() {
			ring := v.ring
			v.faults.SetCrashSource(func() (io.Reader, error) {
				if err := ring.Barrier(); err != nil {
					return nil, err
				}
				return bytes.NewReader(mirror.Bytes()), nil
			})
		}
	}
	return v, nil
}

// close stops the log ring's writer goroutine, reporting its first
// write error.
func (v *volume) close() error {
	if v.ring == nil {
		return nil
	}
	return v.ring.Close()
}

// replayOut is what one cell replay produced.
type replayOut struct {
	records    int64 // records the replay ran
	failed     int64 // records that failed or never ran
	setup      time.Duration
	replay     time.Duration
	allocBytes uint64           // TotalAlloc delta over setup + replay
	mallocs    uint64           // Mallocs delta over setup + replay
	gcs        uint32           // GC cycles during setup + replay
	liveHeap   uint64           // heap the live volume holds after a forced GC
	fp         string           // simulated-output fingerprint
	fault      *core.FaultStats // fault cells: the fault fabric's counters
	replayStat core.ReplayStats
}

// replayCell builds c's volume and replays its trace through
// core.ReplayWith. tr, when non-nil, wraps the layer boundaries in
// spans; the untraced path runs the bare volume.
func replayCell(c *cell, tr *tracer) (out replayOut, err error) {
	defer func() {
		// A panic in the program under test is a failed run like any
		// other wrong output: report it through the correctness gate.
		if p := recover(); p != nil {
			out.records, out.failed = 0, c.records
			err = fmt.Errorf("replay %s/%s panicked: %v\n%s", c.preset, c.policy, p, debug.Stack())
		}
	}()
	var wrap wrapDev
	var log func(io.Writer) io.Writer
	if tr != nil {
		wrap, log = tr.wrapDevice, tr.wrapLog
	}
	// Start every replay from a collected heap whose free pages are
	// returned to the OS, as in a fresh process: each repetition pays
	// for its own garbage and page faults only, setup time does not
	// depend on what the scavenger happened to release, and the
	// live-heap reading is the volume's resident state.
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	v, err := build(c, wrap, log)
	if err != nil {
		return out, err
	}
	defer v.close() // error paths only: the success path checks it below
	t1 := time.Now()
	out.setup = t1.Sub(t0)

	var rd trace.Reader = trace.NewNativeReader(bytes.NewReader(c.data))
	var vol core.Volume = v.craid
	if tr != nil {
		rd, vol = tr.wrapReader(rd), tr.wrapVolume(v.craid)
		tr.beginReplay()
	}
	n, rst, err := core.ReplayWith(v.eng, vol, trace.Clamp(rd, vol.DataBlocks()), core.ReplayConfig{})
	if tr != nil {
		tr.endReplay()
	}
	out.replay = time.Since(t1)
	runtime.ReadMemStats(&m1)
	out.records, out.replayStat = n, rst
	out.failed = c.records - n
	if err != nil {
		out.failed++ // the record whose Submit failed
		return out, fmt.Errorf("replay %s: %w", c.preset, err)
	}
	if v.faults != nil {
		if err := v.faults.Err(); err != nil {
			return out, fmt.Errorf("replay %s: fault runtime: %w", c.preset, err)
		}
	}
	if err := v.close(); err != nil {
		return out, fmt.Errorf("replay %s: mapping log: %w", c.preset, err)
	}
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.gcs = m1.NumGC - m0.NumGC

	runtime.GC()
	runtime.ReadMemStats(&m1)
	out.liveHeap = m1.HeapAlloc - min(m0.HeapAlloc, m1.HeapAlloc)
	rl, wl := v.craid.ReadLatency(), v.craid.WriteLatency()
	out.fp = fingerprint(n, *v.craid.Stats(), rl.Mean(), rl.Percentile(0.99), wl.Mean(), wl.Percentile(0.99), v.faultStats())
	if fs := v.faultStats(); fs != nil {
		f := *fs
		out.fault = &f
	}
	if tr != nil {
		tr.counts.collect(v, out)
	}
	runtime.KeepAlive(v)
	return out, nil
}

func (v *volume) faultStats() *core.FaultStats {
	if v.faults == nil {
		return nil
	}
	return v.faults.Stats()
}
