package main

import (
	"bytes"
	"time"

	"craid/internal/cache"
	"craid/internal/disk"
	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/trace"
)

// The layer-alone drives time the public functions of the three layers
// only core calls — the archive layout, the replacement policy and the
// mapping table — fed each workload's own record stream. They
// approximate the monitor; they do not replay it: residency comes from
// the drive's own bookkeeping instead of the mapping table, reads and
// writes are treated alike apart from dirtiness, and no copy-in,
// write-back or parity I/O is issued. They show how a layer's cost per
// record moves, not what share of a replay it takes.

// stream is one rendered trace parsed and clamped exactly as the
// replay feeds it to the volume, with the volume's archive layout and
// P_C capacity.
type stream struct {
	recs     []trace.Record
	archive  raid.Layout
	capacity int
	blocks   int64
}

func loadStream(c *cell) (*stream, error) {
	v, err := build(c, nil, nil)
	if err != nil {
		return nil, err
	}
	defer v.close()
	s := &stream{archive: v.archive, capacity: int(v.craid.CacheDataBlocks()), blocks: v.craid.DataBlocks()}
	s.recs, err = trace.ReadAll(trace.Clamp(trace.NewNativeReader(bytes.NewReader(c.data)), s.blocks))
	return s, err
}

// raidDrive walks every record's archive extents, as a miss would.
func raidDrive(s *stream) time.Duration {
	fn := func(raid.Extent) {}
	t0 := time.Now()
	for _, r := range s.recs {
		s.archive.ForEachExtent(r.Block, r.Count, fn)
	}
	return time.Since(t0)
}

// Per-block drive state: resident in the policy, and dirty.
const (
	resident uint8 = 1 << iota
	dirty
)

// tableOp is one mapping-table call the monitor would make for the
// policy's decisions, recorded so the table can be timed alone.
type tableOp struct {
	kind  uint8
	dirty bool
	orig  int64
	n     int64
	slot  int64
}

const (
	opLookup uint8 = iota
	opInsert
	opRemove
	opSetDirty
)

// drivePolicy runs the stream through a fresh policy: AccessRun over
// resident runs, InsertRun over the rest. WLRU's victim scan sees the
// drive's dirty bits. With ops non-nil it also records the mapping
// table calls that mirror the policy (lookups per run, inserts,
// evictions, dirty flips); recording runs untimed.
func drivePolicy(name string, s *stream, ops *[]tableOp) (time.Duration, error) {
	st := make([]uint8, s.blocks)
	p, err := cache.New(name, s.capacity, cache.Config{Dirty: func(k cache.Key) bool { return st[k]&dirty != 0 }})
	if err != nil {
		return 0, err
	}
	evicted := func(k cache.Key) { st[k] = 0 }
	if ops != nil {
		evicted = func(k cache.Key) {
			st[k] = 0
			*ops = append(*ops, tableOp{kind: opRemove, orig: k, n: 1})
		}
	}
	var slot int64
	t0 := time.Now()
	for _, r := range s.recs {
		write := r.Op == disk.OpWrite
		end := r.Block + r.Count
		for b := r.Block; b < end; {
			res := st[b] & resident
			e := b + 1
			for e < end && st[e]&resident == res {
				e++
			}
			n := e - b
			if ops != nil {
				*ops = append(*ops, tableOp{kind: opLookup, orig: b, n: end - b})
			}
			if res != 0 {
				p.AccessRun(b, n, r.Count)
				if write {
					for k := b; k < e; k++ {
						st[k] |= dirty
					}
					if ops != nil {
						*ops = append(*ops, tableOp{kind: opSetDirty, orig: b, n: n, dirty: true})
					}
				}
			} else {
				// Mark first: an insert longer than the policy can
				// evict keys of its own run, and the callback clears
				// them.
				mark := resident
				if write {
					mark |= dirty
				}
				for k := b; k < e; k++ {
					st[k] = mark
				}
				if ops != nil {
					*ops = append(*ops, tableOp{kind: opInsert, orig: b, n: n, slot: slot, dirty: write})
					slot += n
				}
				p.InsertRun(b, n, r.Count, evicted)
			}
			b = e
		}
	}
	return time.Since(t0), nil
}

// driveTable replays recorded mapping-table calls against a fresh
// table (the monitor's default single index).
func driveTable(ops []tableOp) time.Duration {
	t := mapcache.New()
	t0 := time.Now()
	for _, op := range ops {
		switch op.kind {
		case opLookup:
			t.LookupRun(op.orig, op.n)
		case opInsert:
			t.InsertRun(op.orig, op.slot, op.n, op.dirty)
		case opRemove:
			t.RemoveRun(op.orig, op.n)
		case opSetDirty:
			t.SetDirtyRun(op.orig, op.n, op.dirty)
		}
	}
	return time.Since(t0)
}

// layerDrives times every drive over the workload's cells and returns
// nanoseconds per record for each layer: raid and each cache policy
// once per distinct stream, the mapping table once per cell (its op
// stream depends on the cell's policy).
func layerDrives(cells []cell) (map[string]float64, error) {
	var raidNS, tableNS, streamRecs, cellRecs int64
	policyNS := map[string]int64{}
	streams := map[renderKey]*stream{}
	for i := range cells {
		c := &cells[i]
		k := renderKey{c.preset, c.scale}
		s, seen := streams[k]
		if !seen {
			var err error
			if s, err = loadStream(c); err != nil {
				return nil, err
			}
			streams[k] = s
			streamRecs += int64(len(s.recs))
			raidNS += int64(raidDrive(s))
			for _, pol := range cache.Names() {
				d, err := drivePolicy(pol, s, nil)
				if err != nil {
					return nil, err
				}
				policyNS[pol] += int64(d)
			}
		}
		var ops []tableOp
		if _, err := drivePolicy(c.policy, s, &ops); err != nil {
			return nil, err
		}
		tableNS += int64(driveTable(ops))
		cellRecs += int64(len(s.recs))
	}
	m := map[string]float64{
		"raid.ns_per_record":     float64(raidNS) / float64(max(streamRecs, 1)),
		"mapcache.ns_per_record": float64(tableNS) / float64(max(cellRecs, 1)),
	}
	for pol, ns := range policyNS {
		m["cache."+pol+".ns_per_record"] = float64(ns) / float64(max(streamRecs, 1))
	}
	return m, nil
}
