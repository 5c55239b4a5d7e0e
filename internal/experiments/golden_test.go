package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/all_quick.golden from this build")

// Timing columns, the only part of the report that changes run to run:
// a learning curve's "Time in s (σ)" and "Breed/eval in s" columns, and
// the blocking ablation's trailing "ms" column.
var (
	curveTimes    = regexp.MustCompile(`(?m)^(\d+ +)\d+\.\d \(\d+\.\d\)( +\d\.\d{3} \(\d\.\d{3}\) +\d\.\d{3} \(\d\.\d{3}\)) +\d+\.\d{2} / \d+\.\d{2} +`)
	blockingTimes = regexp.MustCompile(`(?m)^(.*%.*?) +\d+\.\d$`)
)

// stripTimings replaces the report's timing columns by "-".
func stripTimings(report string) string {
	report = curveTimes.ReplaceAllString(report, "$1-$2  -  ")
	return blockingTimes.ReplaceAllString(report, "$1 -")
}

// TestAllTablesGolden regenerates the quick-scale report of every table,
// seed 1 — what `go run ./cmd/experiments -all` prints — and holds it,
// timing columns stripped, to testdata/all_quick.golden: learning,
// scoring, blocking and every derived figure must reproduce exactly.
// -update rewrites the golden, for a change meant to move the figures.
func TestAllTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating every table takes about 30 s")
	}
	var b bytes.Buffer
	for _, table := range AllTables {
		if err := Report(&b, table, Quick(), ""); err != nil {
			t.Fatal(err)
		}
	}
	got := stripTimings(b.String())
	path := filepath.Join("testdata", "all_quick.golden")
	if *updateGolden {
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
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, g, w)
		}
	}
}

// TestStripTimings pins what the golden ignores: the timing columns and
// nothing else.
func TestStripTimings(t *testing.T) {
	in := "0         1.5 (0.2)     0.788 (0.015)      0.817 (0.029)       0.03 / 12.50    80 / 80\n" +
		"Cora             token                                        172724       4.9%  0.988    0.993  0.835      86.3\n" +
		"Cora                  0.869    0.788    0.904    0.978\n"
	want := "0         -     0.788 (0.015)      0.817 (0.029)  -  80 / 80\n" +
		"Cora             token                                        172724       4.9%  0.988    0.993  0.835 -\n" +
		"Cora                  0.869    0.788    0.904    0.978\n"
	if got := stripTimings(in); got != want {
		t.Fatalf("stripTimings:\n got: %q\nwant: %q", got, want)
	}
}
