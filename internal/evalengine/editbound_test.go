package evalengine_test

import (
	"math/rand"
	"testing"

	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// TestEditBoundKnownRules pins the bound of the rules the service runs
// and the rules that have none.
func TestEditBoundKnownRules(t *testing.T) {
	lower := func(p string) rule.ValueOp { return rule.NewTransform(transform.LowerCase(), rule.NewProperty(p)) }
	lev := func(theta float64) *rule.ComparisonOp {
		return rule.NewComparison(lower("title"), lower("title"), similarity.Levenshtein(), theta)
	}
	jac := rule.NewComparison(lower("author"), lower("author"), similarity.Jaccard(), 0.8)
	negative := lev(8)
	negative.SetWeight(-1)
	cases := []struct {
		name      string
		r         *rule.Rule
		threshold float64
		k         int // −1: no bound
	}{
		// wmean(4·(1 − d/8), 1, 1)/6 ≥ 0.5 ⇔ d ≤ 6.
		{"rig", rigRule(), 0.5, 6},
		{"rig/T=0.9", rigRule(), 0.9, 1},
		// The blocking ablation's probe rule: 1 − d/2 ≥ 0.5 ⇔ d ≤ 1.
		{"probe", rule.New(lev(2)), 0.5, 1},
		{"exact", rule.New(lev(0)), 0.5, 0},
		// The tighter of two qualifying comparisons wins.
		{"min", rule.New(rule.NewAggregation(rule.Min(), lev(20), lev(4))), 0.5, 2},
		// A max is reached through its other operand.
		{"max", rule.New(rule.NewAggregation(rule.Max(), lev(2), jac)), 0.5, -1},
		{"normLevenshtein", rule.New(rule.NewComparison(lower("title"), lower("title"), similarity.NormalizedLevenshtein(), 0.3)), 0.5, -1},
		{"negative weight", rule.New(rule.NewAggregation(rule.WMean(), negative, jac)), 0.5, -1},
		// Past maxEditBound the bound is not reported: 1 − d/12 ≥ 0.5 ⇔ d ≤ 6
		// is, 1 − d/14 ≥ 0.5 ⇔ d ≤ 7 is not.
		{"cap", rule.New(lev(12)), 0.5, 6},
		{"past cap", rule.New(lev(14)), 0.5, -1},
		// Unreachable without edit-distance evidence: Upper answers.
		{"unreachable", rigRule(), 1.5, -1},
		{"T=0", rigRule(), 0, -1},
	}
	for _, tc := range cases {
		eb, ok := evalengine.Compile(tc.r).EditBound(tc.threshold)
		if ok != (tc.k >= 0) || ok && eb.K != tc.k {
			t.Errorf("%s: EditBound = %d, %v; want %d", tc.name, eb.K, ok, tc.k)
		}
	}
}

// TestEditBoundSound draws random rules over every registry measure and
// pairs of entities whose titles and names are edits of each other, and
// checks the bound's claim on every pair that reaches the threshold: its
// levenshtein distance is at most K, and so the probe side's segment
// keys meet the stored side's; and that Within, the check a query runs
// before scoring a candidate, answers exactly whether the distance is at
// most K, on every pair drawn.
func TestEditBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lev := similarity.Levenshtein()
	bounded, reached := 0, 0
	for trial := 0; trial < 20000; trial++ {
		r := fuzzRule(rng)
		c := evalengine.Compile(r)
		threshold := []float64{0.5, 0.2, 0.8, rng.Float64()}[rng.Intn(4)]
		eb, ok := c.EditBound(threshold)
		if !ok {
			continue
		}
		bounded++
		x := fuzzTitle("abcdefgh ", 3+rng.Intn(40))
		y := fuzzTitle("ijklmnop", 3+rng.Intn(12))
		for i := 0; i < 6; i++ {
			a := fuzzEntity(rng, "a", x, y)
			b := fuzzEntity(rng, "b", x, y)
			if i%3 == 0 {
				b = a.Clone() // an identical pair: the score's upper range
				b.ID = "b"
			}
			ra, rb := c.Record(a), c.Record(b)
			d := lev.Distance(eb.Probe(ra), eb.Indexed(rb))
			if got, want := eb.Within(ra)(similarity.NewEditSet(eb.Indexed(rb))), d <= float64(eb.K); got != want {
				t.Fatalf("rule %s: Within = %v at edit distance %v, K = %d", r, got, d, eb.K)
			}
			if r.Evaluate(a, b) < threshold {
				continue
			}
			reached++
			if d > float64(eb.K) {
				t.Fatalf("rule %s scores %v ≥ %v at edit distance %v > K = %d",
					r, r.Evaluate(a, b), threshold, d, eb.K)
			}
			stored := make(map[uint64]bool)
			for _, k := range similarity.EditSegmentKeys(nil, eb.Indexed(rb), eb.K) {
				stored[k] = true
			}
			shared := false
			for _, k := range similarity.EditProbeKeys(nil, eb.Probe(ra), eb.K) {
				shared = shared || stored[k]
			}
			if !shared {
				t.Fatalf("rule %s: a matching pair shares no segment key at K = %d", r, eb.K)
			}
		}
	}
	if bounded < 500 || reached < 500 {
		t.Fatalf("only %d bounded rules and %d matching pairs: the draw no longer tests the bound", bounded, reached)
	}
}
