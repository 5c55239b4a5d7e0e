// Command benchmark is the one rig every performance and simplicity
// claim about this repository is measured with: it builds the real
// genlinkd, generates its inputs from a seed, drives the binary over
// HTTP (and the paper's learner in-process), checks that the answers are
// correct, and prints every metric by name. See README.md.
//
//	go run ./benchmark -workload <learn|match-read|ingest-durable|mixed-routed|all> -seed N
//	go run ./benchmark -workload <name> -seed N -trace 1   # per-layer pass
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir receives result records, traces and the logs of failed runs.
const outDir = "benchmark/out"

var workloads = map[string]func(*run) (*result, error){
	"learn":          runLearn,
	"match-read":     runMatchRead,
	"ingest-durable": runIngestDurable,
	"mixed-routed":   runMixedRouted,
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"learn", "match-read", "ingest-durable", "mixed-routed"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+" or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 0, "how long a run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
		out      = flag.String("out", filepath.Join(outDir, "results.jsonl"), "file result records are appended to")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fatal(fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadOrder, ", ")))
		}
	}

	h, build, err := newHarness()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: built genlinkd in %.1fs (not part of setup_s)\n", build.Seconds())
	rl, err := loadRule(h.rule)
	if err != nil {
		h.close("")
		fatal(err)
	}
	host := hostInfo()
	failed := false
	for _, name := range names {
		r := &run{h: h, c: newHTTPClient(), seed: *seed, seconds: *seconds, rule: rl}
		var res *result
		refBefore := hostRef()
		steal0, total0 := cpuTicks()
		if *trace != 0 {
			res, err = runTrace(r, name)
		} else {
			res, err = workloads[name](r)
		}
		r.c.CloseIdleConnections()
		if err != nil {
			h.close(filepath.Join(outDir, fmt.Sprintf("failed-%s-seed%d", name, *seed)))
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if steal1, total1 := cpuTicks(); total1 > total0 {
			res.extras["host_steal_pct"] = 100 * (steal1 - steal0) / (total1 - total0)
		}
		res.extras["host_ref_ms"] = (refBefore + hostRef()) / 2
		rec := newRecord(spec, host, name, *seed, *seconds, *trace != 0, res)
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		}
		printHuman(os.Stderr, spec, rec)
		if !rec.Correct {
			failed = true
		}
		// The contract line: the last line of standard output.
		line, err := json.Marshal(contractLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		h.close(filepath.Join(outDir, fmt.Sprintf("failed-%s-seed%d", *workload, *seed)))
		os.Exit(1)
	}
	h.close("")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

// ---------------------------------------------------------------------------
// BENCHMARK.json

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// ---------------------------------------------------------------------------
// Result records

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one JSON object a run prints last.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host records where a number was measured; a result is only comparable
// with results from the same host shape.
type host struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
			h.Commit += "+dirty"
		}
	}
	return h
}

// record is one run, appended to the result file and keyed by
// {commit, nproc, workload, seed}.
type record struct {
	host
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Time      string                 `json:"time"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extras    map[string]float64     `json:"extras,omitempty"`
	Samples   map[string]int         `json:"samples,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
}

func newRecord(spec *benchSpec, h host, workload string, seed int64, seconds float64, traced bool, res *result) record {
	rec := record{
		host: h, Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		Time:    time.Now().UTC().Format(time.RFC3339),
		Correct: len(res.problems) == 0 && res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]metricValue{}, Extras: res.extras, Samples: res.samples, Problems: res.problems,
	}
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v, ok := res.metrics[m.Name]
		if !ok {
			rec.Correct = false
			rec.Problems = append(rec.Problems, "metric "+m.Name+" was not measured")
			continue
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range res.metrics {
		if _, ok := rec.Metrics[name]; !ok {
			rec.Correct = false
			rec.Problems = append(rec.Problems, "metric "+name+" is not declared in BENCHMARK.json")
		}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printHuman prints every metric by name with its unit, direction and
// bound, and the failed checks.
func printHuman(w *os.File, spec *benchSpec, rec record) {
	fmt.Fprintf(w, "\n%s  seed=%d seconds=%g trace=%v  commit=%s nproc=%d GOMAXPROCS=%d %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Commit, rec.NProc, rec.GOMAXPROCS, rec.Go)
	declared := spec.EndToEnd
	if rec.Trace {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v, ok := rec.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-44s %14.4f %-8s %s is better", m.Name, v.Value, m.Unit, m.Better)
		if m.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", m.Bound*100)
		}
		if n, ok := rec.Samples[m.Name]; ok {
			line += fmt.Sprintf(", n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	extras := make([]string, 0, len(rec.Extras))
	for name := range rec.Extras {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Fprintf(w, "  (%s = %.4f)\n", name, rec.Extras[name])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}
