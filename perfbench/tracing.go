package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"slices"
	"time"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/metrics"
	"craid/internal/sim"
	"craid/internal/trace"
)

// spanKind names a layer boundary the traced run wraps from outside
// the program.
type spanKind uint8

const (
	kReplay spanKind = iota // core.ReplayWith: the simulation goroutine's root
	kSubmit                 // Volume.Submit
	kDisk                   // Device.Submit
	kDone                   // device Done/Fail callbacks into core
	kRead                   // NativeReader.Next, on the replay reader goroutine
	kLog                    // writes under the dirty-log ring, on its writer goroutine
	nKinds
)

var kindNames = [nKinds]string{"replay", "core.submit", "disk.submit", "core.completion", "trace.next", "mapcache.log_write"}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent indexes the same lane's sample (-1
// for a root); Rec is the trace record the work belongs to (-1 for
// background work no record caused).
type span struct {
	Kind   spanKind
	Parent int32
	Rec    int64
	Start  int64
	End    int64
}

type frame struct {
	kind  spanKind
	idx   int32 // sample index, -1 when past the sample bound
	start int64
	child int64 // summed durations of direct children
}

// lane collects the spans of one goroutine: every span feeds the busy
// and self-time totals, and the first sampleCap are kept for output.
// A lane is only ever touched by one goroutine at a time.
type lane struct {
	epoch     time.Time
	sampleCap int
	sample    []span
	stack     []frame
	busy      [nKinds]int64
	self      [nKinds]int64
	count     [nKinds]int64
}

func (l *lane) begin(k spanKind, rec int64) {
	now := int64(time.Since(l.epoch))
	idx := int32(-1)
	if len(l.sample) < l.sampleCap {
		parent := int32(-1)
		if n := len(l.stack); n > 0 {
			parent = l.stack[n-1].idx
		}
		idx = int32(len(l.sample))
		l.sample = append(l.sample, span{Kind: k, Parent: parent, Rec: rec, Start: now})
	}
	l.stack = append(l.stack, frame{kind: k, idx: idx, start: now})
}

// end closes the innermost open span and returns its duration.
func (l *lane) end() int64 {
	now := int64(time.Since(l.epoch))
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := now - f.start
	l.busy[f.kind] += d
	l.self[f.kind] += d - f.child
	l.count[f.kind]++
	if n > 0 {
		l.stack[n-1].child += d
	}
	if f.idx >= 0 {
		l.sample[f.idx].End = now
	}
	return d
}

// tracer wraps the calls at each layer boundary of one traced
// repetition. The simulation goroutine's spans nest (a completion
// callback inside an engine event submits device I/O, and so on);
// the replay reader and the log writer run on goroutines of their own
// and get lanes of their own.
type tracer struct {
	sim, reader, log lane

	cur     int64   // record whose work is running on the sim goroutine
	nextRec int64   // index of the next record submitted
	readRec int64   // index of the next record parsed
	submits []int64 // every Volume.Submit duration, ns
	free    *doneOp
	counts  layerCounts
}

// Span sample bounds per lane: enough to follow thousands of records
// end to end while keeping the output a few megabytes.
const (
	simSampleCap   = 60000
	otherSampleCap = 20000
)

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{
		sim:    lane{epoch: epoch, sampleCap: simSampleCap},
		reader: lane{epoch: epoch, sampleCap: otherSampleCap},
		log:    lane{epoch: epoch, sampleCap: otherSampleCap},
		cur:    -1,
	}
}

func (t *tracer) beginReplay() { t.sim.begin(kReplay, -1) }
func (t *tracer) endReplay()   { t.sim.end() }

// tracedVolume wraps Volume.Submit. ReplayWith sees a plain Volume and
// submits through Submit, which is the path the shipping default
// (a sequential monitor) takes anyway.
type tracedVolume struct {
	inner core.Volume
	t     *tracer
}

func (t *tracer) wrapVolume(v core.Volume) core.Volume { return &tracedVolume{inner: v, t: t} }

func (v *tracedVolume) Submit(rec trace.Record, done func(sim.Time)) error {
	t := v.t
	idx := t.nextRec
	t.nextRec++
	prev := t.cur
	t.cur = idx
	t.sim.begin(kSubmit, idx)
	err := v.inner.Submit(rec, done)
	t.submits = append(t.submits, t.sim.end())
	t.cur = prev
	return err
}

func (v *tracedVolume) DataBlocks() int64                  { return v.inner.DataBlocks() }
func (v *tracedVolume) ReadLatency() *metrics.LatencyHist  { return v.inner.ReadLatency() }
func (v *tracedVolume) WriteLatency() *metrics.LatencyHist { return v.inner.WriteLatency() }

// tracedReader wraps the native parser's Next.
type tracedReader struct {
	inner trace.Reader
	t     *tracer
}

func (t *tracer) wrapReader(r trace.Reader) trace.Reader { return &tracedReader{inner: r, t: t} }

func (r *tracedReader) Next() (trace.Record, error) {
	r.t.reader.begin(kRead, r.t.readRec)
	rec, err := r.inner.Next()
	r.t.reader.end()
	if err == nil {
		r.t.readRec++
	}
	return rec, err
}

// tracedLog wraps the writer under the dirty-log ring.
type tracedLog struct {
	w io.Writer
	l *lane
}

func (t *tracer) wrapLog(w io.Writer) io.Writer { return &tracedLog{w: w, l: &t.log} }

func (w *tracedLog) Write(p []byte) (int, error) {
	w.l.begin(kLog, -1)
	n, err := w.w.Write(p)
	w.l.end()
	return n, err
}

// doneOp re-routes one device request's completion through a
// core.completion span tagged with the record that issued it. Ops are
// pooled, with their callbacks bound once, so tracing adds no
// allocation per I/O in steady state. Exactly one of Done and Fail
// fires per request, which returns the op to the pool.
type doneOp struct {
	t              *tracer
	done, fail     func(sim.Time)
	rec            int64
	next           *doneOp
	doneFn, failFn func(sim.Time)
}

func (t *tracer) newDoneOp() *doneOp {
	o := t.free
	if o == nil {
		o = &doneOp{t: t}
		o.doneFn, o.failFn = o.onDone, o.onFail
	} else {
		t.free = o.next
	}
	return o
}

func (o *doneOp) onDone(at sim.Time) { o.fire(at, o.done) }
func (o *doneOp) onFail(at sim.Time) { o.fire(at, o.fail) }

func (o *doneOp) fire(at sim.Time, fn func(sim.Time)) {
	t, rec := o.t, o.rec
	o.done, o.fail, o.next = nil, nil, t.free
	t.free = o
	prev := t.cur
	t.cur = rec
	t.sim.begin(kDone, rec)
	fn(at)
	t.sim.end()
	t.cur = prev
}

// tracedDevice wraps Device.Submit and forwards the optional
// interfaces core.Array and the fault runtime look for, so the traced
// volume takes the same paths as the bare one.
type tracedDevice struct {
	inner disk.Device
	t     *tracer
}

// queuedDevice adds the queue-state interface, only for devices that
// have it: the array samples queue depth just for those.
type queuedDevice struct {
	*tracedDevice
	q interface {
		QueueDepth() int
		Busy() bool
	}
}

func (t *tracer) wrapDevice(d disk.Device) disk.Device {
	td := &tracedDevice{inner: d, t: t}
	if q, ok := d.(interface {
		QueueDepth() int
		Busy() bool
	}); ok {
		return queuedDevice{td, q}
	}
	return td
}

func (q queuedDevice) QueueDepth() int { return q.q.QueueDepth() }
func (q queuedDevice) Busy() bool      { return q.q.Busy() }

func (d *tracedDevice) Submit(r *disk.Request) {
	t := d.t
	t.sim.begin(kDisk, t.cur)
	if r.Done != nil || r.Fail != nil {
		o := t.newDoneOp()
		o.done, o.fail, o.rec = r.Done, r.Fail, t.cur
		if r.Done != nil {
			r.Done = o.doneFn
		}
		if r.Fail != nil {
			r.Fail = o.failFn
		}
	}
	d.inner.Submit(r)
	t.sim.end()
}

func (d *tracedDevice) CapacityBlocks() int64 { return d.inner.CapacityBlocks() }
func (d *tracedDevice) Name() string          { return d.inner.Name() }
func (d *tracedDevice) Stats() *disk.Stats    { return d.inner.Stats() }

// RetainsRequests reports the inner device's answer; devices without
// the method retain requests, as core.Array assumes.
func (d *tracedDevice) RetainsRequests() bool {
	if nr, ok := d.inner.(interface{ RetainsRequests() bool }); ok {
		return nr.RetainsRequests()
	}
	return true
}

func (d *tracedDevice) SetInjector(inj disk.Injector) {
	if f, ok := d.inner.(disk.Faultable); ok {
		f.SetInjector(inj)
	}
}

func (d *tracedDevice) SetFailed(failed bool) {
	if f, ok := d.inner.(disk.Faultable); ok {
		f.SetFailed(failed)
	}
}

func (d *tracedDevice) Failed() bool {
	f, ok := d.inner.(disk.Faultable)
	return ok && f.Failed()
}

// layerCounts sums the program's own counters over a repetition's
// cells, read from each volume while it is still live.
type layerCounts struct {
	records int64

	userBlocks, hitBlocks, evictions int64
	dirtyEvictions, copyIns, wbacks  int64
	mappingBytes                     int64 // max over cells

	logRecords, logFlushes, logStalls int64

	ios, blocksRead, blocksWrite int64
	busy, devTime                sim.Time // summed device busy time, devices × makespan

	events                     int64
	replayStalls, readerStalls int64

	rebuildBlocks, peerReads, retries, recovered, expandWB int64
	rebuildSim, upgradeSim                                 sim.Time
}

// collect adds one replayed volume's counters.
func (c *layerCounts) collect(v *volume, out replayOut) {
	c.records += out.records
	c.replayStalls += out.replayStat.ReplayStalls
	c.readerStalls += out.replayStat.ReaderStalls
	st := v.craid.Stats()
	c.userBlocks += st.ReadBlocks + st.WriteBlocks
	c.hitBlocks += st.ReadHits + st.WriteHits
	c.evictions += st.Evictions
	c.dirtyEvictions += st.DirtyEvictions
	c.copyIns += st.CopyIns
	c.wbacks += st.Writebacks
	c.mappingBytes = max(c.mappingBytes, v.craid.MappingBytes())
	if v.ring != nil {
		ls := v.ring.Stats()
		c.logRecords += ls.Records
		c.logFlushes += ls.Flushes
		c.logStalls += ls.Stalls
	}
	span := v.eng.Now()
	for i := 0; i < v.arr.Devices(); i++ {
		ds := v.arr.Device(i).Stats()
		c.ios += ds.IOs()
		c.blocksRead += ds.BlocksRead
		c.blocksWrite += ds.BlocksWrite
		c.busy += ds.BusyTime
		c.devTime += span
	}
	c.events += v.eng.SchedStats().Fired
	if fs := v.faultStats(); fs != nil {
		c.rebuildBlocks += fs.RebuildBlocks
		c.peerReads += fs.PeerReads
		c.retries += fs.Retries
		c.recovered += fs.RecoveredMappings
		c.expandWB += fs.ExpandWriteback
		c.rebuildSim += fs.RebuildDuration()
		c.upgradeSim += fs.UpgradeLatency()
	}
}

// layerMetrics turns a traced repetition into its per-layer metrics.
func (t *tracer) layerMetrics() map[string]float64 {
	c := &t.counts
	recs := float64(max(c.records, 1))
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	simSelf := t.sim.self[kReplay]
	m := map[string]float64{
		"trace.ns_per_record": float64(t.reader.busy[kRead]) / recs,
		"trace.replay_stalls": float64(c.replayStalls),
		"trace.reader_stalls": float64(c.readerStalls),

		"core.submit_self_s":     sec(t.sim.self[kSubmit]),
		"core.submit_samples":    float64(len(t.submits)),
		"core.completion_self_s": sec(t.sim.self[kDone]),
		"core.hit_ratio":         ratio(c.hitBlocks, c.userBlocks),
		"core.replacement_ratio": ratio(c.evictions, c.userBlocks),
		"core.dirty_evictions":   float64(c.dirtyEvictions),
		"core.copyin_blocks":     float64(c.copyIns),
		"core.writeback_blocks":  float64(c.wbacks),

		"mapcache.mapping_bytes": float64(c.mappingBytes),
		"mapcache.log_records":   float64(c.logRecords),
		"mapcache.log_flushes":   float64(c.logFlushes),
		"mapcache.log_stalls":    float64(c.logStalls),
		"mapcache.log_write_s":   sec(t.log.busy[kLog]),

		"disk.submit_s":                    sec(t.sim.self[kDisk]),
		"disk.ios_per_record":              float64(c.ios) / recs,
		"disk.read_blocks_per_user_block":  ratio(c.blocksRead, c.userBlocks),
		"disk.write_blocks_per_user_block": ratio(c.blocksWrite, c.userBlocks),
		"disk.busy_frac":                   ratio(int64(c.busy), int64(c.devTime)),

		"sim.events":            float64(c.events),
		"sim.events_per_record": float64(c.events) / recs,
		"sim.self_s":            sec(simSelf),
		"sim.ns_per_event":      float64(simSelf) / float64(max(c.events, 1)),

		"fault.rebuild_blocks":     float64(c.rebuildBlocks),
		"fault.peer_reads":         float64(c.peerReads),
		"fault.retries":            float64(c.retries),
		"fault.recovered_mappings": float64(c.recovered),
		"fault.expand_writeback":   float64(c.expandWB),
		"fault.rebuild_sim_s":      c.rebuildSim.Seconds(),
		"fault.upgrade_sim_ms":     c.upgradeSim.Milliseconds(),
	}
	p50, p99 := percentiles(t.submits)
	m["core.submit_ns_p50"], m["core.submit_ns_p99"] = p50, p99
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// percentiles returns the median and 99th percentile (nearest rank),
// sorting d in place.
func percentiles(d []int64) (p50, p99 float64) {
	if len(d) == 0 {
		return 0, 0
	}
	slices.Sort(d)
	rank := func(q float64) float64 { return float64(d[min(int(q*float64(len(d))), len(d)-1)]) }
	return rank(0.50), rank(0.99)
}

// writeSpans writes the traced repetition's span sample as JSON lines,
// one span per line, lanes in turn.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type out struct {
		Lane   string `json:"lane"`
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Rec    int64  `json:"rec"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, l := range []struct {
		name string
		l    *lane
	}{{"sim", &t.sim}, {"reader", &t.reader}, {"log", &t.log}} {
		for i, s := range l.l.sample {
			if err := enc.Encode(out{l.name, i, kindNames[s.Kind], s.Parent, s.Rec, s.Start, s.End}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
