// Command perfbench is the repository's replay benchmark. One run
// renders a workload's traces from a seed, replays them through the
// shipping CRAID-5 controller with core.ReplayWith, checks the
// simulated outputs, and prints every metric by name with its unit.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run repeats untraced replays for --seconds and
// reports the end-to-end metrics as medians over the repetitions. With
// --trace 1 it alternates untraced and traced replays — the traced ones
// wrap the calls at each layer boundary in spans — and reports the
// per-layer metrics, the layer-alone drives (layers.go) and the tracing
// overhead. Either way the last line of standard output is one JSON
// object; the run exits 1 when a correctness check fails.
//
// Correctness: every replay must run every rendered record with no
// Submit error and no fault-runtime error, its simulated-output
// fingerprint must match every other repetition's, the traced
// replay's, and experiments.Run's on the same bytes; fault-upgrade must
// show its compound plan's outcome (check.go). A replay that panics, or
// a run where no replay finishes for a minute, fails too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and layerUnits list the reported metrics with their
// units, in BENCHMARK.json's order.
var endToEndUnits = []struct{ name, unit string }{
	{"records_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

var layerUnits = []struct{ name, unit string }{
	{"trace.ns_per_record", "ns"},
	{"trace.replay_stalls", "count"},
	{"trace.reader_stalls", "count"},
	{"core.submit_ns_p50", "ns"},
	{"core.submit_ns_p99", "ns"},
	{"core.submit_samples", "count"},
	{"core.submit_self_s", "s"},
	{"core.completion_self_s", "s"},
	{"core.hit_ratio", "ratio"},
	{"core.replacement_ratio", "ratio"},
	{"core.dirty_evictions", "count"},
	{"core.copyin_blocks", "blocks"},
	{"core.writeback_blocks", "blocks"},
	{"mapcache.mapping_bytes", "bytes"},
	{"mapcache.log_records", "count"},
	{"mapcache.log_flushes", "count"},
	{"mapcache.log_stalls", "count"},
	{"mapcache.log_write_s", "s"},
	{"disk.submit_s", "s"},
	{"disk.ios_per_record", "count"},
	{"disk.read_blocks_per_user_block", "ratio"},
	{"disk.write_blocks_per_user_block", "ratio"},
	{"disk.busy_frac", "ratio"},
	{"sim.events", "count"},
	{"sim.events_per_record", "count"},
	{"sim.self_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"fault.rebuild_blocks", "blocks"},
	{"fault.peer_reads", "count"},
	{"fault.retries", "count"},
	{"fault.recovered_mappings", "count"},
	{"fault.expand_writeback", "blocks"},
	{"fault.rebuild_sim_s", "sim_s"},
	{"fault.upgrade_sim_ms", "sim_ms"},
	{"raid.ns_per_record", "ns"},
	{"cache.LRU.ns_per_record", "ns"},
	{"cache.LFUDA.ns_per_record", "ns"},
	{"cache.GDSF.ns_per_record", "ns"},
	{"cache.ARC.ns_per_record", "ns"},
	{"cache.WLRU.ns_per_record", "ns"},
	{"mapcache.ns_per_record", "ns"},
	{"go.mallocs_per_record", "count"},
	{"go.gc_cycles", "count"},
	{"tracing.overhead_frac", "ratio"},
}

// Minimum repetitions per run, whatever --seconds says: medians need
// several samples.
const (
	minReps       = 3
	minTracedReps = 2
)

// stallLimit bounds the wall time between two finished replays. A
// healthy repetition takes seconds; a simulation that stops advancing
// never returns, and the watchdog turns that into a failed run instead
// of a hung one.
const stallLimit = 60 * time.Second

// watchdog fails the run, printing a result line with every record
// failed, unless it is reset at least every stallLimit.
func watchdog(stdout io.Writer, rendered int64) *time.Timer {
	return time.AfterFunc(stallLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no replay finished within %v: the simulation stopped advancing\n", stallLimit)
		line, _ := json.Marshal(result{Attempted: rendered, Failed: rendered, Metrics: map[string]metric{}})
		fmt.Fprintln(stdout, string(line))
		os.Exit(1)
	})
}

func main() {
	wl := flag.String("workload", "", "workload name: hot-hits, paper-hdd, fault-upgrade, policy-table")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the result file and span sample")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := findWorkload(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(os.Stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *outDir)
	if err != nil && res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", err)
		os.Exit(1)
	}
}

// rep sums one repetition over the workload's cells.
type rep struct {
	records, failed int64
	setup, replay   time.Duration
	alloc, mallocs  uint64
	gcs             uint32
	live            uint64 // max over cells
	fps             []string
}

// endToEnd is the repetition's value of each end-to-end metric.
func (r rep) endToEnd() map[string]float64 {
	return map[string]float64{
		"records_per_s": float64(r.records) / r.replay.Seconds(),
		"setup_s":       r.setup.Seconds(),
		"alloc_mb":      float64(r.alloc) / 1e6,
		"live_heap_mb":  float64(r.live) / 1e6,
	}
}

// runRep replays every cell once, traced when tr is non-nil. An error
// is a failed correctness check; the record counts stay valid.
func runRep(cells []cell, tr *tracer) (rep, error) {
	var r rep
	for i := range cells {
		c := &cells[i]
		o, err := replayCell(c, tr)
		r.records += o.records
		r.failed += o.failed
		if err == nil && c.fault != "" {
			err = checkFaultUpgrade(o.fault)
		}
		if err != nil {
			for _, rest := range cells[i+1:] {
				r.failed += rest.records // never ran
			}
			return r, err
		}
		r.setup += o.setup
		r.replay += o.replay
		r.alloc += o.allocBytes
		r.mallocs += o.mallocs
		r.gcs += o.gcs
		r.live = max(r.live, o.liveHeap)
		r.fps = append(r.fps, o.fp)
	}
	return r, nil
}

// run measures workload w for dur and returns the result line. A
// non-nil error with a non-nil result is a failed correctness check;
// with a nil result the run could not be made at all.
func run(stdout io.Writer, w workloadDef, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	cells := w.cells()
	t0 := time.Now()
	if err := render(cells, seed); err != nil {
		return nil, err
	}
	var rendered int64
	for i := range cells {
		rendered += cells[i].records
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d cells=%d records=%d render_s=%.3f\n",
		w.name, seed, len(cells), rendered, time.Since(t0).Seconds())
	fmt.Fprintf(stdout, "host %s\n", host())

	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) (*result, error) {
		res.Correct = false
		if res.Attempted == 0 {
			// The reference replay failed: nothing was measured.
			res.Attempted, res.Failed = rendered, rendered
		}
		return res, err
	}

	wd := watchdog(stdout, rendered)
	defer wd.Stop()

	// The reference replay through experiments.Run doubles as warm-up.
	ref := make([]string, len(cells))
	for i := range cells {
		fp, err := referenceFingerprint(&cells[i])
		if err != nil {
			return fail(err)
		}
		ref[i] = fp
		wd.Reset(stallLimit)
	}
	check := func(r rep, what string) error {
		if r.failed != 0 || r.records != rendered {
			return fmt.Errorf("%s replay ran %d of %d records, %d failed", what, r.records, rendered, r.failed)
		}
		for i, fp := range r.fps {
			if fp != ref[i] {
				return fmt.Errorf("%s replay of %s/%s differs from experiments.Run:\n got  %s\n want %s",
					what, cells[i].preset, cells[i].policy, fp, ref[i])
			}
		}
		return nil
	}
	repOnce := func(tr *tracer, what string) (rep, error) {
		r, err := runRep(cells, tr)
		wd.Reset(stallLimit)
		res.Attempted += rendered
		res.Failed += r.failed
		if err == nil {
			err = check(r, what)
		}
		return r, err
	}

	var plain, tracedReps []rep
	var layers []map[string]float64
	var last *tracer
	need := minReps
	if traced {
		need = minTracedReps
	}
	start := time.Now()
	for time.Since(start) < dur || len(plain) < need {
		r, err := repOnce(nil, "untraced")
		if err != nil {
			return fail(err)
		}
		plain = append(plain, r)
		if !traced {
			continue
		}
		last = newTracer()
		r, err = repOnce(last, "traced")
		if err != nil {
			return fail(err)
		}
		tracedReps = append(tracedReps, r)
		layers = append(layers, last.layerMetrics())
	}

	perRep := make([]map[string]float64, len(plain))
	for i, r := range plain {
		perRep[i] = r.endToEnd()
	}
	e2e := map[string]float64{}
	for _, m := range endToEndUnits {
		e2e[m.name] = medianOf(perRep, func(v map[string]float64) float64 { return v[m.name] })
	}
	fmt.Fprintf(stdout, "end-to-end (median of %d untraced repetitions, %d records each)\n", len(plain), rendered)
	for _, m := range endToEndUnits {
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")

	report := map[string]any{
		"workload": w.name, "seed": seed, "records": rendered, "cells": len(cells),
		"host": host(), "end_to_end": e2e, "untraced_repetitions": perRep,
		"attempted": res.Attempted, "failed": res.Failed,
	}
	if !traced {
		for _, m := range endToEndUnits {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		per := map[string]float64{}
		for k := range layers[0] {
			per[k] = medianOf(layers, func(m map[string]float64) float64 { return m[k] })
		}
		per["go.mallocs_per_record"] = medianOf(plain, func(r rep) float64 { return float64(r.mallocs) / float64(r.records) })
		per["go.gc_cycles"] = medianOf(plain, func(r rep) float64 { return float64(r.gcs) })
		replay := func(r rep) float64 { return r.replay.Seconds() }
		per["tracing.overhead_frac"] = medianOf(tracedReps, replay)/medianOf(plain, replay) - 1
		drives, err := layerDrives(cells)
		if err != nil {
			return nil, err
		}
		for k, v := range drives {
			per[k] = v
		}
		fmt.Fprintf(stdout, "per-layer (median of %d traced repetitions; go.* from untraced ones)\n", len(tracedReps))
		for _, m := range layerUnits {
			v, ok := per[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", m.name, v, m.unit)
		}
		report["per_layer"] = per
		report["traced_repetitions"] = len(tracedReps)
	}
	if err := writeReport(outDir, w.name, seed, traced, report, last); err != nil {
		return nil, err
	}
	return res, nil
}

// writeReport saves the run's full report, and the last traced
// repetition's span sample, under dir.
func writeReport(dir, name string, seed int64, traced bool, report map[string]any, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "trace0"
	if traced {
		mode = "trace1"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", name, seed, mode))
	if tr != nil {
		if err := tr.writeSpans(base + "-spans.jsonl"); err != nil {
			return err
		}
		report["spans"] = base + "-spans.jsonl"
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(b, '\n'), 0o644)
}

// host fingerprints the machine a run measured.
func host() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
