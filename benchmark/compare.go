package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readRecords reads a result file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict compares the runs of one metric on one workload. worse is the
// share of a's median by which b's median is worse (negative when b is
// better); spread is the wider of the two sides' interquartile ranges as
// a share of their medians.
//
//   - regressed: b's median is worse than a's by more than the bound.
//   - unresolved: the run-to-run spread exceeds the bound, so "no worse
//     than the bound" cannot be told from noise. It is not "unchanged".
//   - ok: otherwise.
func verdict(m metricSpec, a, b []float64) (v string, worse, spread float64) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	worse = (bmed - amed) / amed
	if m.Better == "higher" {
		worse = -worse
	}
	spread = max((aq3-aq1)/amed, (bq3-bq1)/bmed)
	switch {
	case worse > m.Bound:
		return "regressed", worse, spread
	case spread > m.Bound:
		return "unresolved", worse, spread
	}
	return "ok", worse, spread
}

// maxStealPct voids a run for comparisons: while the hypervisor took more
// than this share of the CPU away (host_steal_pct in the record), the
// run measured the neighbours, not the commit.
const maxStealPct = 2.0

// usable reports whether a run may enter a comparison.
func usable(r record) bool {
	return !r.Trace && r.Correct && r.Extras["host_steal_pct"] <= maxStealPct
}

// compareFiles prints, per workload and end-to-end metric, the medians
// and quartiles of the runs in files a and b and the verdict against the
// metric's bound. It reports false when any pairing regressed or is
// unresolved, or when an incorrect run was found.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(rs []record, workload, metric string) []float64 {
		var vs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && usable(r) {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta: q1 / median / q3 (n)\tb: q1 / median / q3 (n)\tb worse by\tspread\tbound\tverdict")
	ok := true
	for _, wl := range workloadOrder {
		for _, m := range spec.EndToEnd {
			a, b := values(ra, wl, m.Name), values(rb, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse, spread := verdict(m, a, b)
			if v != "ok" {
				ok = false
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g / %.4g / %.4g (%d)\t%.4g / %.4g / %.4g (%d)\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, aq1, amed, aq3, len(a), bq1, bmed, bq3, len(b), worse*100, spread*100, m.Bound*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, rs := range [][]record{ra, rb} {
		for _, r := range rs {
			switch {
			case !r.Correct:
				ok = false
				fmt.Fprintf(w, "incorrect run left out: %s seed %d (%s): %v\n", r.Workload, r.Seed, r.Commit, r.Problems)
			case !r.Trace && !usable(r):
				fmt.Fprintf(w, "noisy run left out: %s seed %d (%s): the host stole %.1f%% of the CPU\n", r.Workload, r.Seed, r.Commit, r.Extras["host_steal_pct"])
			}
		}
	}
	return ok, nil
}
