package main

import (
	"math"
	"slices"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := percentile(vs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the benchmark's spread is judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		// statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.vs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 106}, "ok"},
		{lower, steady, []float64{115, 116, 114, 115, 117}, "regressed"},
		{lower, steady, []float64{85, 86, 84, 85, 87}, "ok"}, // better is never a regression
		{higher, steady, []float64{85, 86, 84, 85, 87}, "regressed"},
		{higher, steady, []float64{115, 116, 114, 115, 117}, "ok"},
		{lower, steady, []float64{80, 125, 99, 90, 118}, "unresolved"}, // spread wider than the bound
	} {
		if got, _, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// The figures of a service workload come from the fastest round of every
// request: throughput from the time the scripts would take at those
// latencies, percentiles over the requests of the named ops only.
func TestPlayedFigures(t *testing.T) {
	p := &played{
		scripts: [][]step{
			{{op: "match"}, {op: "match"}, {op: "write"}},
			{{op: "match"}, {op: "write"}},
		},
		best: [][]float64{{10, 30, 60}, {20, 30}},
	}
	if got, want := p.latencies("match"), []float64{10, 20, 30}; !slices.Equal(got, want) {
		t.Errorf("latencies(match) = %v, want %v", got, want)
	}
	if got, want := p.latencies("match", "write"), []float64{10, 20, 30, 30, 60}; !slices.Equal(got, want) {
		t.Errorf("latencies(match, write) = %v, want %v", got, want)
	}
	p.all = [][][]float64{{{12, 30, 60}, {20, 35}}, p.best}
	if got, want := p.everyRound("write"), []float64{30, 35, 60, 60}; !slices.Equal(got, want) {
		t.Errorf("everyRound(write) = %v, want %v", got, want)
	}
	// Client 0 gets through its 2 operations in 100 ms, client 1 through
	// its 2 in 50 ms: 20/s + 40/s.
	if got := p.perSecond(2); math.Abs(got-60) > 1e-9 {
		t.Errorf("perSecond = %g, want 60", got)
	}
}
