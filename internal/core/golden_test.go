package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"craid/internal/disk"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// writeFields appends one "prefix.Field=value" line per field of the
// struct v. Integer-kinded fields print their raw value, so a sim.Time
// pins nanoseconds rather than its millisecond String form.
func writeFields(b *strings.Builder, prefix string, v any) {
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(b, "%s.%s=%d\n", prefix, rt.Field(i).Name, f.Int())
		default:
			fmt.Fprintf(b, "%s.%s=%v\n", prefix, rt.Field(i).Name, f.Interface())
		}
	}
}

// formatOutcome renders a replay's outcome as golden text: controller
// Stats, I/O totals, index population and latency histograms, then the
// fault counters and per-device counters when given.
func formatOutcome(o runOutcome, faults *FaultStats, devs []disk.Stats) string {
	var b strings.Builder
	writeFields(&b, "stats", o.stats)
	fmt.Fprintf(&b, "io.reads=%d\nio.writes=%d\nmappings=%d\n", o.reads, o.writes, o.maps)
	fmt.Fprintf(&b, "latency.read=%s\nlatency.write=%s\n", o.readLat, o.writeLat)
	if faults != nil {
		writeFields(&b, "faults", *faults)
	}
	for i, d := range devs {
		writeFields(&b, fmt.Sprintf("dev%d", i), d)
	}
	return b.String()
}

// checkGolden compares got with testdata/name.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("outcome differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestReplayStatsGolden pins Stats, I/O totals, index population and
// latency histograms of the monitor on random workloads that mix hits,
// misses, evictions and long extents, against a golden per seed.
func TestReplayStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{1, 7, 23} {
		recs := randomWorkload(seed, 4000, 12000)
		got := replayPlain(t, recs, 64, ReplayConfig{})
		fmt.Fprintf(&b, "# seed %d\n%s", seed, formatOutcome(got, nil, nil))
	}
	checkGolden(t, "replay_stats", b.String())
}

// TestReplayBatchSizeInvariant pins that the replay outcome is
// insensitive to how the reader ring batches the stream: any batch size
// and ring depth produce the same outcome.
func TestReplayBatchSizeInvariant(t *testing.T) {
	recs := randomWorkload(11, 3000, 12000)
	ref := replayPlain(t, recs, 64, ReplayConfig{})
	for _, cfg := range []ReplayConfig{
		{BatchSize: 16, RingDepth: 1},
		{BatchSize: 100, RingDepth: 2},
		{BatchSize: 1024, RingDepth: 4},
	} {
		if got := replayPlain(t, recs, 64, cfg); got != ref {
			t.Errorf("cfg %+v: outcome diverged\n got %+v\nwant %+v", cfg, got, ref)
		}
	}
}
