package disk

import (
	"fmt"
	"math"

	"craid/internal/sim"
)

// Scheduler selects which queued request an HDD services next.
type Scheduler uint8

// Queue scheduling disciplines.
const (
	// FCFS services requests in arrival order.
	FCFS Scheduler = iota
	// SSTF services the request with the shortest seek from the
	// current head position.
	SSTF
	// LOOK sweeps the head across the platter servicing requests in
	// cylinder order, reversing at the last request in each direction.
	LOOK
)

// HDDConfig describes a hard-disk model. The zero value is not valid;
// start from CheetahConfig (or NewHDDConfig) and adjust.
type HDDConfig struct {
	Name string

	// Geometry.
	CapacityBlocks int64 // total logical blocks
	Heads          int   // surfaces (blocks per cylinder = Heads * blocks per track)
	Zones          int   // number of recording zones
	OuterBlocksPT  int   // blocks per track in the outermost zone
	InnerBlocksPT  int   // blocks per track in the innermost zone

	// Mechanics.
	RPM            int      // spindle speed
	TrackToTrack   sim.Time // minimum (single-cylinder) seek
	AvgSeek        sim.Time // average seek (uniform random pairs)
	FullSeek       sim.Time // full-stroke seek
	HeadSwitch     sim.Time // surface switch during sequential transfer
	ControllerOver sim.Time // per-request controller/bus overhead

	// Cache.
	CacheSegments    int // read segments
	SegmentBlocks    int // blocks per read segment (read-ahead unit)
	WriteCacheBlocks int // write-back buffer capacity, 0 disables write-back

	Sched Scheduler
}

// CheetahConfig returns parameters approximating the Seagate Cheetah
// 15K.5 (146 GB, 15 000 RPM, 16 MiB cache) that the paper's DiskSim
// testbed uses. Values come from the drive datasheet the paper cites.
func CheetahConfig(name string) HDDConfig {
	return HDDConfig{
		Name:             name,
		CapacityBlocks:   146 * 1000 * 1000 * 1000 / BlockSize, // 146 GB
		Heads:            4,
		Zones:            16,
		OuterBlocksPT:    122, // ~125 MB/s outer sustained rate at 15 kRPM
		InnerBlocksPT:    71,  // ~73 MB/s inner
		RPM:              15000,
		TrackToTrack:     200 * sim.Microsecond,
		AvgSeek:          3500 * sim.Microsecond,
		FullSeek:         7400 * sim.Microsecond,
		HeadSwitch:       300 * sim.Microsecond,
		ControllerOver:   100 * sim.Microsecond,
		CacheSegments:    16,
		SegmentBlocks:    256,  // 16 segments * 256 blocks * 4 KiB = 16 MiB
		WriteCacheBlocks: 1024, // 4 MiB of the cache dedicated to writes
		Sched:            LOOK,
	}
}

// zone is a contiguous run of cylinders with a common track density.
type zone struct {
	firstBlock int64 // first logical block of the zone
	endBlock   int64 // first block past the zone's last cylinder
	firstCyl   int64
	cylinders  int64
	blocksPT   int64 // blocks per track
	blocksPCyl int64 // blocks per cylinder (= blocksPT * heads)
}

// HDD is an event-driven hard-disk model: a single mechanical arm, a
// rotating platter stack with zoned density, a segmented read cache
// with read-ahead, an optional write-back buffer, and a queue scheduler.
type HDD struct {
	eng   *sim.Engine
	cfg   HDDConfig
	stats Stats

	zones     []zone
	revTime   sim.Time // one platter revolution
	seekB     float64  // sqrt coefficient of the seek curve (ns)
	seekC     float64  // linear coefficient of the seek curve (ns)
	totalCyls int64

	queue   []*hddReq
	busy    bool
	curCyl  int64
	sweepUp bool // LOOK sweep direction

	// reqFree is the freelist of request copies: Submit takes one, and
	// it goes back as soon as its fields are copied out (service start
	// or write-cache absorption).
	reqFree *hddReq

	// Read cache: fixed number of segments, each holding one
	// contiguous block range; LRU replacement through a recency list
	// threaded through the segments, least recent at segLRU.
	segments []segment
	segLRU   int

	// Write-back state.
	dirty       int64 // blocks waiting for destage
	dirtyRanges []blockRange
	destaging   bool
	stalled     []*hddReq // writes waiting for write-cache space

	// In-service completion, parked in fields rather than a closure:
	// the busy flag admits exactly one request to the media at a time,
	// so finish() stamps the pending completion here and schedules the
	// one cached finishFn method value — no per-I/O allocation.
	finDone  func(at sim.Time)
	finFail  bool
	finOp    Op
	finCount int64
	finishFn func()

	// Destage completion, same single-flight argument via destaging.
	destageN  int64
	destageFn func()

	// Freelist of write-absorb completions: unlike media service these
	// overlap freely (the write cache admits back to back), so they pool.
	absorbFree *absorbOp

	// busyCount, set by TrackBusy, is a count of busy devices owned by
	// the array this disk belongs to; the disk keeps it current at each
	// change of Busy().
	busyCount *int

	faultState
}

// hddReq is the HDD's own copy of a submitted request, pooled on its
// HDD, with the request's cylinder resolved once at Submit so the
// schedulers compare stored ints.
type hddReq struct {
	Request
	cyl  int64
	next *hddReq // freelist link
}

// newReq copies r into a pooled slot.
func (d *HDD) newReq(r *Request) *hddReq {
	q := d.reqFree
	if q == nil {
		q = &hddReq{}
	} else {
		d.reqFree = q.next
		q.next = nil
	}
	q.Request = *r
	return q
}

// freeReq returns q to the pool; its fields must be copied out first.
func (d *HDD) freeReq(q *hddReq) {
	q.Done, q.Fail = nil, nil
	q.next = d.reqFree
	d.reqFree = q
}

// absorbOp is one write-back cache absorption waiting out the
// controller overhead before completing; pooled on its HDD.
type absorbOp struct {
	d     *HDD
	count int64
	done  func(at sim.Time)
	fn    func()
	next  *absorbOp
}

func (d *HDD) newAbsorb(count int64, done func(at sim.Time)) *absorbOp {
	a := d.absorbFree
	if a == nil {
		a = &absorbOp{d: d}
		a.fn = a.fire
	} else {
		d.absorbFree = a.next
		a.next = nil
	}
	a.count, a.done = count, done
	return a
}

// fire completes the absorbed write: recycle first (done may submit
// more writes and reclaim the op), then count and call back.
func (a *absorbOp) fire() {
	d, count, done := a.d, a.count, a.done
	a.done = nil
	a.next = d.absorbFree
	d.absorbFree = a
	d.stats.Writes++
	d.stats.BlocksWrite += count
	if done != nil {
		done(d.eng.Now())
	}
}

type segment struct {
	start, end int64 // [start, end) block range; start==end means empty
	prev, next int   // recency list neighbours (circular)
}

type blockRange struct{ start, end int64 }

// NewHDD builds an HDD from cfg, attached to eng.
func NewHDD(eng *sim.Engine, cfg HDDConfig) *HDD {
	if cfg.CapacityBlocks <= 0 || cfg.Heads <= 0 || cfg.Zones <= 0 || cfg.RPM <= 0 {
		panic("disk: invalid HDD config")
	}
	d := &HDD{
		eng:     eng,
		cfg:     cfg,
		revTime: sim.Time(int64(60) * int64(sim.Second) / int64(cfg.RPM)),
	}
	d.buildZones()
	d.calibrateSeek()
	// Never-used segments fill in index order: the list starts 0..n-1
	// from least to most recent.
	d.segments = make([]segment, cfg.CacheSegments)
	for i := range d.segments {
		n := len(d.segments)
		d.segments[i].prev, d.segments[i].next = (i+n-1)%n, (i+1)%n
	}
	d.finishFn = d.finished
	d.destageFn = d.destaged
	return d
}

// buildZones lays out up to cfg.Zones zones whose per-track density
// falls linearly from OuterBlocksPT to InnerBlocksPT and whose total
// capacity is exactly cfg.CapacityBlocks. The zone that reaches the
// capacity is the last one: it keeps just the cylinders the remaining
// blocks occupy (the last of all zones absorbs rounding this way), and
// a disk too small for one cylinder per zone has fewer zones. So every
// zone has at least one cylinder, and the cylinder count is the stroke
// the blocks occupy.
func (d *HDD) buildZones() {
	cfg := &d.cfg
	// First pass: provisional equal-cylinder zones to estimate how many
	// cylinders realize the target capacity at the mean density.
	meanPT := float64(cfg.OuterBlocksPT+cfg.InnerBlocksPT) / 2
	cyls := int64(math.Ceil(float64(cfg.CapacityBlocks) / (meanPT * float64(cfg.Heads))))
	perZone := cyls / int64(cfg.Zones)
	if perZone == 0 {
		perZone = 1
	}
	var block, cyl int64
	for z := 0; z < cfg.Zones && block < cfg.CapacityBlocks; z++ {
		frac := float64(z) / float64(cfg.Zones-1)
		if cfg.Zones == 1 {
			frac = 0
		}
		pt := int64(math.Round(float64(cfg.OuterBlocksPT) - frac*float64(cfg.OuterBlocksPT-cfg.InnerBlocksPT)))
		zn := zone{
			firstBlock: block,
			firstCyl:   cyl,
			cylinders:  perZone,
			blocksPT:   pt,
			blocksPCyl: pt * int64(cfg.Heads),
		}
		remaining := cfg.CapacityBlocks - block
		if z == cfg.Zones-1 || zn.cylinders*zn.blocksPCyl >= remaining {
			zn.cylinders = (remaining + zn.blocksPCyl - 1) / zn.blocksPCyl
		}
		block += zn.cylinders * zn.blocksPCyl
		zn.endBlock = block
		d.zones = append(d.zones, zn)
		cyl += zn.cylinders
	}
	d.totalCyls = cyl
}

// calibrateSeek solves seek(d) = TrackToTrack + b*sqrt(d) + c*d for b, c
// such that seek(totalCyls/3) = AvgSeek (mean seek distance of uniform
// random pairs is N/3) and seek(totalCyls-1) = FullSeek. A one-cylinder
// disk never seeks and makes the system singular, so b = c = 0 there.
func (d *HDD) calibrateSeek() {
	if d.totalCyls < 2 {
		d.seekB, d.seekC = 0, 0
		return
	}
	cfg := &d.cfg
	n := float64(d.totalCyls)
	x1, y1 := n/3, float64(cfg.AvgSeek-cfg.TrackToTrack)
	x2, y2 := n-1, float64(cfg.FullSeek-cfg.TrackToTrack)
	// Solve [sqrt(x1) x1; sqrt(x2) x2] * [b c]' = [y1 y2]'.
	a11, a12 := math.Sqrt(x1), x1
	a21, a22 := math.Sqrt(x2), x2
	det := a11*a22 - a12*a21
	d.seekB = (y1*a22 - a12*y2) / det
	d.seekC = (a11*y2 - y1*a21) / det
}

// seekTime returns the arm movement time across dist cylinders.
func (d *HDD) seekTime(dist int64) sim.Time {
	if dist <= 0 {
		return 0
	}
	t := float64(d.cfg.TrackToTrack) + d.seekB*math.Sqrt(float64(dist)) + d.seekC*float64(dist)
	if t < float64(d.cfg.TrackToTrack) {
		t = float64(d.cfg.TrackToTrack)
	}
	return sim.Time(t)
}

// locate maps a block to its zone, cylinder and position on track. A
// linear scan beats a binary search over at most Zones (16) entries.
func (d *HDD) locate(block int64) (zn *zone, cyl, posOnTrack int64) {
	i := 0
	for block >= d.zones[i].endBlock {
		i++
	}
	z := &d.zones[i]
	rel := block - z.firstBlock
	cyl = z.firstCyl + rel/z.blocksPCyl
	posOnTrack = rel % z.blocksPT
	return z, cyl, posOnTrack
}

// CapacityBlocks implements Device.
func (d *HDD) CapacityBlocks() int64 { return d.cfg.CapacityBlocks }

// Name implements Device.
func (d *HDD) Name() string { return d.cfg.Name }

// Stats implements Device.
func (d *HDD) Stats() *Stats { return &d.stats }

// QueueDepth reports requests pending or in service (used by the
// array-level concurrency metrics).
func (d *HDD) QueueDepth() int {
	n := len(d.queue) + len(d.stalled)
	if d.busy {
		n++
	}
	return n
}

// Busy reports whether the device is currently servicing a request or
// destaging its write cache.
func (d *HDD) Busy() bool { return d.busy || d.destaging }

// TrackBusy makes count a tally of busy devices this disk contributes
// to: it adds itself now if busy and keeps the tally current whenever
// Busy() changes, so an array can sample how many of its disks are busy
// without polling them. A disk reports to one tally at a time.
func (d *HDD) TrackBusy(count *int) {
	d.busyCount = count
	if d.Busy() {
		*count++
	}
}

// setBusy and setDestaging are the only writers of the two flags Busy()
// reads, so the tracked tally follows every change.
func (d *HDD) setBusy(on bool)      { was := d.Busy(); d.busy = on; d.noteBusy(was) }
func (d *HDD) setDestaging(on bool) { was := d.Busy(); d.destaging = on; d.noteBusy(was) }

func (d *HDD) noteBusy(was bool) {
	if c := d.busyCount; c != nil && was != d.Busy() {
		if was {
			*c--
		} else {
			*c++
		}
	}
}

// Submit implements Device. The request is copied into a pooled slot,
// so the caller may reuse r once Submit returns.
func (d *HDD) Submit(r *Request) {
	checkRange(d, r.Block, r.Count)
	d.stats.observeQueue(d.QueueDepth())

	if d.failed {
		// A dead disk rejects at the controller: bus overhead, then an
		// error completion. Requests queued before the failure still
		// drain normally.
		d.stats.Rejected++
		completeFault(d.eng, d.cfg.ControllerOver, r)
		return
	}
	q := d.newReq(r)
	d.draw(&q.Request)

	if q.Op == OpWrite && d.cfg.WriteCacheBlocks > 0 {
		// Write-back path: absorb into the cache if space allows.
		if d.dirty+q.Count <= int64(d.cfg.WriteCacheBlocks) {
			d.absorbWrite(q)
			return
		}
		// No space: the write stalls until destaging frees room.
		d.stalled = append(d.stalled, q)
		d.kick()
		return
	}

	_, q.cyl, _ = d.locate(q.Block)
	d.queue = append(d.queue, q)
	d.kick()
}

// absorbWrite completes a write from the write-back cache after the
// controller overhead and records its blocks for later destage. The
// slot returns to the pool here.
func (d *HDD) absorbWrite(q *hddReq) {
	r := &q.Request
	if r.fail {
		// The write dies in the controller: no dirty data, no readable
		// segment, just overhead and an error completion.
		d.stats.BusyTime += d.scaled(d.cfg.ControllerOver, r)
		d.stats.Errors++
		completeFault(d.eng, d.scaled(d.cfg.ControllerOver, r), r)
		d.freeReq(q)
		d.kick()
		return
	}
	d.dirty += r.Count
	d.addDirtyRange(r.Block, r.Block+r.Count)
	// Freshly written data is also readable from the cache.
	d.installSegment(r.Block, r.Block+r.Count)
	a := d.newAbsorb(r.Count, r.Done)
	d.freeReq(q)
	d.eng.After(d.cfg.ControllerOver, a.fn)
	d.kick()
}

// addDirtyRange records [start,end) for destaging, merging adjacent
// ranges so sequential writes destage as one arm operation.
func (d *HDD) addDirtyRange(start, end int64) {
	for i := range d.dirtyRanges {
		r := &d.dirtyRanges[i]
		if start <= r.end && end >= r.start { // overlap or adjacency
			if start < r.start {
				r.start = start
			}
			if end > r.end {
				r.end = end
			}
			return
		}
	}
	d.dirtyRanges = append(d.dirtyRanges, blockRange{start, end})
}

// kick starts servicing if the device is idle.
func (d *HDD) kick() {
	if d.busy || d.destaging {
		return
	}
	if len(d.queue) > 0 {
		d.startNext()
		return
	}
	if d.dirty > 0 && (len(d.stalled) > 0 || len(d.queue) == 0) {
		d.startDestage()
	}
}

// pickNext removes and returns the next request per the scheduler.
func (d *HDD) pickNext() *hddReq {
	best := 0
	switch d.cfg.Sched {
	case FCFS:
	case SSTF:
		bestDist := int64(math.MaxInt64)
		for i, q := range d.queue {
			dist := q.cyl - d.curCyl
			if dist < 0 {
				dist = -dist
			}
			if dist < bestDist {
				best, bestDist = i, dist
			}
		}
	default: // LOOK
		best = -1
		var bestCyl int64
		for pass := 0; pass < 2; pass++ {
			for i, q := range d.queue {
				cyl := q.cyl
				if d.sweepUp && cyl < d.curCyl || !d.sweepUp && cyl > d.curCyl {
					continue
				}
				if best == -1 ||
					(d.sweepUp && cyl < bestCyl) || (!d.sweepUp && cyl > bestCyl) {
					best, bestCyl = i, cyl
				}
			}
			if best != -1 {
				break
			}
			d.sweepUp = !d.sweepUp // reverse at the end of the sweep
		}
	}
	// Remove in place: the backing array keeps its head, so the queue
	// refills without reallocating.
	q := d.queue[best]
	n := len(d.queue) - 1
	copy(d.queue[best:], d.queue[best+1:])
	d.queue[n] = nil
	d.queue = d.queue[:n]
	return q
}

// startNext begins servicing one queued request.
func (d *HDD) startNext() {
	q := d.pickNext()
	r := &q.Request
	d.setBusy(true)

	if r.fail {
		// Injected media error: the head still travels (seek, rotation,
		// transfer happen before the error is detected), but no data
		// moves — the cache is neither consulted nor filled.
		service := d.mediaTime(r.Block, r.Count, r.Op == OpWrite)
		d.finish(q, d.scaled(d.cfg.ControllerOver+service, r))
		return
	}
	if r.Op == OpRead && d.cacheCovers(r.Block, r.Block+r.Count) {
		// Full cache hit: controller overhead only.
		d.stats.CacheHits++
		d.finish(q, d.scaled(d.cfg.ControllerOver, r))
		return
	}
	if r.Op == OpRead {
		d.stats.CacheMisses++
	}

	service := d.mediaTime(r.Block, r.Count, r.Op == OpWrite)
	if r.Op == OpRead {
		// Read-ahead: the segment fills with the request plus trailing
		// blocks (time cost of read-ahead is hidden in idle rotation).
		end := r.Block + int64(d.cfg.SegmentBlocks)
		if end > d.cfg.CapacityBlocks {
			end = d.cfg.CapacityBlocks
		}
		d.installSegment(r.Block, end)
	}
	d.finish(q, d.scaled(d.cfg.ControllerOver+service, r))
}

// scaled applies the request's injected latency multiplier to a
// service time.
func (d *HDD) scaled(t sim.Time, r *Request) sim.Time {
	if r.latX > 1 {
		t = sim.Time(float64(t) * r.latX)
	}
	return t
}

// finish completes q after service time, updates stats and continues
// with the next queued operation. The pending completion lives in the
// fin* fields (single-flight under the busy flag) and fires through the
// cached finishFn, so the media path schedules no closures; the slot
// returns to the pool.
func (d *HDD) finish(q *hddReq, service sim.Time) {
	d.stats.BusyTime += service
	done := q.Done
	if q.fail && q.Fail != nil {
		done = q.Fail
	}
	d.finDone, d.finFail, d.finOp, d.finCount = done, q.fail, q.Op, q.Count
	d.freeReq(q)
	d.eng.After(service, d.finishFn)
}

// finished is the media-service completion event. The fields are copied
// out before the callback runs: done may submit more I/O, which (with
// busy already cleared) can start the next service and restamp them.
func (d *HDD) finished() {
	done, fail, op, count := d.finDone, d.finFail, d.finOp, d.finCount
	d.finDone = nil
	d.setBusy(false)
	if fail {
		d.stats.Errors++
	} else if op == OpRead {
		d.stats.Reads++
		d.stats.BlocksRead += count
	} else {
		d.stats.Writes++
		d.stats.BlocksWrite += count
	}
	if done != nil {
		done(d.eng.Now())
	}
	d.kick()
}

// mediaTime computes seek + rotational + transfer time for a contiguous
// media access starting at block, and updates the head position.
func (d *HDD) mediaTime(block, count int64, isWrite bool) sim.Time {
	zn, cyl, pos := d.locate(block)
	dist := cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	seek := d.seekTime(dist)
	if isWrite && seek > 0 {
		// Writes settle slightly longer than reads (datasheet: ~0.4 ms
		// extra on average); approximate with +12%.
		seek += seek / 8
	}

	// Rotational delay: where is the target sector when the seek ends?
	arrival := d.eng.Now() + seek
	angleNow := float64(int64(arrival)%int64(d.revTime)) / float64(d.revTime)
	angleTarget := float64(pos) / float64(zn.blocksPT)
	wait := angleTarget - angleNow
	if wait < 0 {
		wait++
	}
	rot := sim.Time(wait * float64(d.revTime))

	// Transfer: a full track per revolution within the zone; crossing
	// tracks adds head/cylinder switch time.
	perBlock := sim.Time(float64(d.revTime) / float64(zn.blocksPT))
	transfer := sim.Time(count) * perBlock
	tracksCrossed := (pos + count - 1) / zn.blocksPT
	transfer += sim.Time(tracksCrossed) * d.cfg.HeadSwitch

	// Head ends at the cylinder holding the last block, nearly always in
	// the same zone.
	if last := block + count - 1; last < zn.endBlock {
		d.curCyl = zn.firstCyl + (last-zn.firstBlock)/zn.blocksPCyl
	} else {
		_, d.curCyl, _ = d.locate(last)
	}
	return seek + rot + transfer
}

// startDestage flushes the largest dirty range to media in background.
func (d *HDD) startDestage() {
	if len(d.dirtyRanges) == 0 {
		d.dirty = 0
		return
	}
	// Destage the largest range first: frees the most space per seek.
	best := 0
	for i, r := range d.dirtyRanges {
		if r.end-r.start > d.dirtyRanges[best].end-d.dirtyRanges[best].start {
			best = i
		}
	}
	r := d.dirtyRanges[best]
	d.dirtyRanges = append(d.dirtyRanges[:best], d.dirtyRanges[best+1:]...)
	d.setDestaging(true)
	service := d.mediaTime(r.start, r.end-r.start, true)
	d.stats.BusyTime += service
	d.destageN = r.end - r.start
	d.eng.After(service, d.destageFn)
}

// destaged is the destage completion event (single-flight under the
// destaging flag, fired through the cached destageFn).
func (d *HDD) destaged() {
	d.setDestaging(false)
	d.dirty -= d.destageN
	if d.dirty < 0 {
		d.dirty = 0
	}
	d.admitStalled()
	d.kick()
}

// admitStalled moves stalled writes whose blocks now fit into the
// write cache, then compacts the rest to the head of the slice.
func (d *HDD) admitStalled() {
	i := 0
	for ; i < len(d.stalled); i++ {
		q := d.stalled[i]
		if d.dirty+q.Count > int64(d.cfg.WriteCacheBlocks) {
			break
		}
		d.absorbWrite(q)
	}
	n := copy(d.stalled, d.stalled[i:])
	clear(d.stalled[n:])
	d.stalled = d.stalled[:n]
}

// cacheCovers reports whether [start,end) is entirely inside one read
// segment.
func (d *HDD) cacheCovers(start, end int64) bool {
	for i := range d.segments {
		s := &d.segments[i]
		if start >= s.start && end <= s.end {
			d.touchSegment(i)
			return true
		}
	}
	return false
}

// installSegment loads [start,end) into the least recently used
// segment.
func (d *HDD) installSegment(start, end int64) {
	if len(d.segments) == 0 {
		return
	}
	s := &d.segments[d.segLRU]
	s.start, s.end = start, end
	// The least recent segment becomes the most recent one: in a
	// circular list that is just advancing the head.
	d.segLRU = s.next
}

// touchSegment makes segment i the most recently used.
func (d *HDD) touchSegment(i int) {
	if i == d.segLRU {
		d.segLRU = d.segments[i].next
		return
	}
	// Unlink i, then splice it in just before the head (the most
	// recent position of the circular list).
	s := &d.segments[i]
	d.segments[s.prev].next = s.next
	d.segments[s.next].prev = s.prev
	head := &d.segments[d.segLRU]
	s.prev, s.next = head.prev, d.segLRU
	d.segments[head.prev].next = i
	head.prev = i
}

// String summarizes the drive geometry, for debugging.
func (d *HDD) String() string {
	return fmt.Sprintf("%s: %d blocks, %d cyls, %d zones, rev %v",
		d.cfg.Name, d.cfg.CapacityBlocks, d.totalCyls, len(d.zones), d.revTime)
}
