package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// tiny shrinks every workload to a few thousand records per cell for
// the duration of a test.
func tiny(t *testing.T) {
	saved := []float64{hotHitsScale, paperHDDScale, faultUpgradeScale, policyTableGB}
	hotHitsScale, paperHDDScale, faultUpgradeScale, policyTableGB = 0.0005, 0.0005, 0.01, 0.01
	t.Cleanup(func() {
		hotHitsScale, paperHDDScale, faultUpgradeScale, policyTableGB = saved[0], saved[1], saved[2], saved[3]
	})
}

// TestWorkloadsPassGate runs every workload at a tiny size, untraced
// and traced, and requires the full correctness gate to pass and every
// metric to be reported.
func TestWorkloadsPassGate(t *testing.T) {
	tiny(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(io.Discard, w, 7, 0, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndUnits
			if traced {
				want = layerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
		}
	}
}

// fingerprints renders w from seed and replays each cell once.
func fingerprints(t *testing.T, w workloadDef, seed int64) []string {
	cells := w.cells()
	if err := render(cells, seed); err != nil {
		t.Fatal(err)
	}
	r, err := runRep(cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.fps
}

// TestSeedDeterminesFingerprint checks that two runs with one seed give
// one fingerprint, and that the seed really changes the inputs; a
// negative seed must work too.
func TestSeedDeterminesFingerprint(t *testing.T) {
	tiny(t)
	for _, name := range []string{"hot-hits", "fault-upgrade"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := fingerprints(t, w, 11), fingerprints(t, w, 11), fingerprints(t, w, -11)
		if a[0] != b[0] {
			t.Errorf("%s: seed 11 gave two fingerprints:\n%s\n%s", name, a[0], b[0])
		}
		if a[0] == c[0] {
			t.Errorf("%s: seeds 11 and -11 gave the same fingerprint", name)
		}
	}
}

// TestTracedMatchesUntraced replays one cell bare and wrapped: the
// wrappers must change no simulated output.
func TestTracedMatchesUntraced(t *testing.T) {
	tiny(t)
	for _, name := range []string{"paper-hdd", "fault-upgrade"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		cells := w.cells()
		if err := render(cells, 3); err != nil {
			t.Fatal(err)
		}
		bare, err := replayCell(&cells[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := replayCell(&cells[0], tr)
		if err != nil {
			t.Fatal(err)
		}
		if bare.fp != traced.fp {
			t.Errorf("%s: traced fingerprint differs:\n%s\n%s", name, bare.fp, traced.fp)
		}
		if tr.sim.count[kSubmit] != cells[0].records || tr.sim.count[kDisk] == 0 || tr.reader.count[kRead] == 0 {
			t.Errorf("%s: span counts submit=%d disk=%d read=%d for %d records",
				name, tr.sim.count[kSubmit], tr.sim.count[kDisk], tr.reader.count[kRead], cells[0].records)
		}
	}
}

// TestSelfTimeExcludesChildren pins the self-time arithmetic on a
// hand-built span tree.
func TestSelfTimeExcludesChildren(t *testing.T) {
	l := lane{sampleCap: 8}
	l.begin(kReplay, -1)
	l.begin(kSubmit, 0)
	l.begin(kDisk, 0)
	l.end()
	l.end()
	l.begin(kDone, 0)
	l.end()
	l.end()
	if len(l.stack) != 0 || len(l.sample) != 4 {
		t.Fatalf("stack %d, sample %d", len(l.stack), len(l.sample))
	}
	if p := l.sample[2].Parent; p != 1 {
		t.Errorf("disk span parent = %d, want the submit span", p)
	}
	for k := kReplay; k <= kDone; k++ {
		if l.self[k] > l.busy[k] || l.self[k] < 0 {
			t.Errorf("%s: self %d busy %d", kindNames[k], l.self[k], l.busy[k])
		}
	}
	children := l.busy[kSubmit] + l.busy[kDone]
	if got := l.self[kReplay]; got != l.busy[kReplay]-children {
		t.Errorf("replay self = %d, want busy %d minus children %d", got, l.busy[kReplay], children)
	}
	if got := l.self[kSubmit]; got != l.busy[kSubmit]-l.busy[kDisk] {
		t.Errorf("submit self = %d, want busy minus disk", got)
	}
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json's metric lists
// and the names and units the benchmark prints in step.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndUnits)
	same("per_layer", b.PerLayer, layerUnits)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
