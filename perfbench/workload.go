package main

import (
	"bytes"
	"fmt"
	"io"

	"craid/internal/experiments"
	"craid/internal/trace"
	"craid/internal/workload"
)

// cell is one simulation: a rendered trace replayed through one volume
// configuration. Every field maps onto an experiments.RunConfig field,
// so the reference check can replay the same cell through
// experiments.Run.
type cell struct {
	preset  string  // workload preset the trace was rendered from
	scale   float64 // volume scale: trace volumes and disk capacities
	policy  string  // monitor replacement policy
	instant bool    // null (instant-service) devices instead of HDDs
	pcPct   float64 // P_C, % of each HDD (HDD cells)
	pcDiv   int64   // instant cells: P_C is the dataset over pcDiv
	fault   string  // fault plan template; %d takes the seed

	// Filled by render.
	data     []byte // native-format trace bytes
	records  int64  // records rendered
	dataset  int64  // dataset blocks the generator addressed
	pcBlocks int64  // instant cells: P_C capacity in blocks
	spec     string // fault plan with the seed substituted
}

// workloadDef names a set of cells. BENCHMARK.json and design.json
// record why the benchmark carries each.
type workloadDef struct {
	name  string
	cells func() []cell
}

// Volume scales. They size one repetition of a workload to 0.5-3
// seconds on a 2-vCPU Xeon (go1.24), so a measured run holds several;
// the tests shrink them.
var (
	hotHitsScale      = 0.015
	paperHDDScale     = 0.008
	faultUpgradeScale = 0.25
	policyTableGB     = 0.6 // per preset, via experiments.ScaleFor
)

// faultUpgradePlan is the fault-upgrade workload's compound plan over
// the preset's one-week trace: a transient-error window on disk 3, the
// death of disk 2 and its rebuild at 64 MB/s, a controller crash
// recovered from the dirty-log mirror, and an online upgrade adding
// five disks (the paper's invalidate-and-regrow expansion).
const faultUpgradePlan = "seed=%d;transient:3@12h-36h,rate=0.01,lat=4;" +
	"fail:2@24h;rebuild:2@30h,rate=64;crash@60h;expand@96h,disks=5"

var workloads = []workloadDef{
	{
		// The monitor hit path: read-mostly, P_C ~5% of the dataset,
		// hit ratio ~0.98. LRU because WLRU's clean-victim scan grows
		// with P_C and would dominate instead.
		name: "hot-hits",
		cells: func() []cell {
			return []cell{{preset: "deasna", scale: hotHitsScale, policy: "LRU", instant: true, pcDiv: 20}}
		},
	},
	{
		// Disk models, the event engine, RMW parity and the WLRU
		// dirty-victim scan, at the paper's default policy and the
		// middle of its P_C sweep.
		name: "paper-hdd",
		cells: func() []cell {
			pcs := experiments.PCSizes("cello99")
			return []cell{{preset: "cello99", scale: paperHDDScale, policy: "WLRU", pcPct: pcs[len(pcs)/2]}}
		},
	},
	{
		// Degraded I/O, rebuild, retries, crash recovery and online
		// expansion: the only workload where the fault fabric works.
		name: "fault-upgrade",
		cells: func() []cell {
			pcs := experiments.PCSizes("webusers")
			return []cell{{preset: "webusers", scale: faultUpgradeScale, policy: "WLRU", pcPct: pcs[len(pcs)/2], fault: faultUpgradePlan}}
		},
	},
	{
		// Tables 2/3: the working set far exceeds P_C, so policy
		// inserts and evictions dominate; the only workload for
		// LFUDA, GDSF and ARC.
		name: "policy-table",
		cells: func() []cell {
			var out []cell
			for _, p := range workload.PresetNames() {
				for _, pol := range experiments.PolicyNamesPaper() {
					out = append(out, cell{preset: p, scale: experiments.ScaleFor(p, policyTableGB), policy: pol, instant: true, pcDiv: 1000})
				}
			}
			return out
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// renderKey identifies one rendered trace; cells sharing a preset and
// scale share its bytes.
type renderKey struct {
	preset string
	scale  float64
}

// render generates every cell's trace from seed with the preset
// generator and encodes it in the native text format. The program under
// test only ever sees these bytes.
func render(cells []cell, seed int64) error {
	type rendered struct {
		data             []byte
		records, dataset int64
	}
	done := map[renderKey]rendered{}
	for i := range cells {
		c := &cells[i]
		k := renderKey{c.preset, c.scale}
		r, ok := done[k]
		if !ok {
			p, err := workload.Preset(c.preset)
			if err != nil {
				return err
			}
			p = p.Scaled(c.scale)
			p.Seed = seed
			gen := workload.New(p)
			var buf bytes.Buffer
			tw := trace.NewWriter(&buf)
			for {
				rec, err := gen.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return fmt.Errorf("render %s: %w", c.preset, err)
				}
				if err := tw.Write(rec); err != nil {
					return err
				}
				r.records++
			}
			if err := tw.Flush(); err != nil {
				return err
			}
			r.data, r.dataset = buf.Bytes(), gen.DatasetBlocks()
			done[k] = r
		}
		c.data, c.records, c.dataset = r.data, r.records, r.dataset
		if c.instant {
			// Tables 2/3 floor P_C at 50 blocks.
			c.pcBlocks = max(c.dataset/c.pcDiv, 50)
		}
		if c.fault != "" {
			// The plan seed is unsigned; any workload seed maps to one.
			c.spec = fmt.Sprintf(c.fault, uint64(seed))
		}
	}
	return nil
}

// runConfig is the experiments.RunConfig describing c, for the
// reference replay. It names the volume only by the public fields a
// user would set: no shard, worker, lookahead or replay-ring knob.
func (c *cell) runConfig() experiments.RunConfig {
	return experiments.RunConfig{
		TraceFile:     c.preset + ".trace",
		TraceFormat:   "native",
		TraceAt:       bytes.NewReader(c.data),
		TraceAtSize:   int64(len(c.data)),
		DatasetBlocks: c.dataset,
		Scale:         c.scale,
		Strategy:      experiments.CRAID5,
		PCPct:         c.pcPct,
		Policy:        c.policy,
		Instant:       c.instant,
		PCBlocks:      c.pcBlocks,
		FaultSpec:     c.spec,
	}
}
