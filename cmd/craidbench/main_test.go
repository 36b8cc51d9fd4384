package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenBudget keeps every golden table and figure to a fraction of a
// second of simulation.
const goldenBudget = "0.05"

// goldenCases lists every table and figure pinned by a golden file.
var goldenCases = []struct{ flag, which string }{
	{"-table", "1"},
	{"-table", "2"},
	{"-table", "3"},
	{"-table", "4"},
	{"-table", "5"},
	{"-table", "6"},
	{"-table", "migration"},
	{"-table", "pclevel"},
	{"-table", "rebalance"},
	{"-table", "fault"},
	{"-figure", "1"},
	{"-figure", "4"},
	{"-figure", "5"},
	{"-figure", "6"},
	{"-figure", "7"},
}

// stripFooters drops the `--` wall-clock footer lines: they report this
// run's timing and vary run to run.
func stripFooters(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.HasPrefix(line, "--") {
			b.WriteString(line)
		}
	}
	return b.Bytes()
}

// TestGoldenOutput pins craidbench's printed tables and figures at a
// small budget byte for byte. Regenerate with `go test -run Golden
// -update` only for an intended change of output.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range goldenCases {
		name := strings.TrimPrefix(tc.flag, "-") + "-" + tc.which
		t.Run(name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run([]string{tc.flag, tc.which, "-budget", goldenBudget}, &out, &errw); code != 0 {
				t.Fatalf("exit %d: %s", code, errw.String())
			}
			got := stripFooters(out.Bytes())
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
