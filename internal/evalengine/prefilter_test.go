package evalengine_test

import (
	"math"
	"math/rand"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// The metamorphic prefilter-soundness harness: for randomized rules over
// randomized entities, the pushdown prefilter's score upper bound must
// dominate the interpreted tree-walk score (rule.Rule.Evaluate) on every
// pair — equivalently, a pair the prefilter rejects against any
// threshold must score below that threshold, so pushdown never drops a
// true candidate. TestMetamorphicHarnessCatchesUnsoundPrefilter re-runs
// the same harness against a deliberately-unsound fake bound and demands
// violations, proving the harness has the power to fail.

// registryMeasures returns every registered measure — the prefilter has
// per-measure bounds beyond similarity.Core(), and unknown-to-the-
// prefilter measures must degrade to the sound trivial bound.
func registryMeasures() []similarity.Measure {
	var out []similarity.Measure
	for _, name := range similarity.Names() {
		out = append(out, similarity.ByName(name))
	}
	return out
}

// randomPrefilterRule mirrors randomRule but draws measures from the
// whole registry so every bounder branch is exercised.
func randomPrefilterRule(rng *rand.Rand) *rule.Rule {
	measures := registryMeasures()
	var sim func(depth int) rule.SimilarityOp
	sim = func(depth int) rule.SimilarityOp {
		if depth <= 0 || rng.Float64() < 0.5 {
			c := rule.NewComparison(
				randomValueOp(rng, 2), randomValueOp(rng, 2),
				measures[rng.Intn(len(measures))], randomThreshold(rng))
			c.SetWeight(rng.Intn(4))
			return c
		}
		aggs := rule.CoreAggregators()
		n := rng.Intn(4)
		ops := make([]rule.SimilarityOp, n)
		for i := range ops {
			ops[i] = sim(depth - 1)
		}
		return &rule.AggregationOp{Function: aggs[rng.Intn(len(aggs))], Operands: ops, W: rng.Intn(4)}
	}
	return rule.New(sim(3))
}

// runPrefilterHarness evaluates boundOf against the tree-walk score over
// randomized rules and entity pairs (including identical pairs, where
// scores peak) and reports how many pairs were checked, how many the
// bound claims cannot reach the match threshold, and how many violate
// soundness (bound below the actual score).
func runPrefilterHarness(seed int64, boundOf func(s *evalengine.Scorer, a, b *entity.Entity) float64) (checked, rejected, violations int) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 120; trial++ {
		r := randomPrefilterRule(rng)
		c := evalengine.Compile(r)
		if c.Prefilter() == nil {
			continue
		}
		s := c.Scorer()
		for i := 0; i < 12; i++ {
			a := randomEntity(rng, "a")
			b := randomEntity(rng, "b")
			if i%4 == 0 {
				b = a // identical pair: the score's upper range
			}
			bound := boundOf(s, a, b)
			score := r.Evaluate(a, b)
			checked++
			if bound < rule.MatchThreshold {
				rejected++
			}
			if bound < score {
				violations++
			}
		}
	}
	return checked, rejected, violations
}

func TestMetamorphicPrefilterSoundness(t *testing.T) {
	checked, rejected, violations := runPrefilterHarness(11, func(s *evalengine.Scorer, a, b *entity.Entity) float64 {
		return s.Bound(a, b)
	})
	if violations != 0 {
		t.Fatalf("prefilter bound fell below the tree-walk score on %d of %d pairs", violations, checked)
	}
	// Guard against vacuity: the harness must actually exercise rules
	// with prefilters, and the bound must actually reject some pairs
	// (otherwise pushdown is dead weight and this test proves nothing).
	if checked < 500 {
		t.Fatalf("harness only checked %d pairs; generator drifted away from prefilterable rules", checked)
	}
	if rejected == 0 {
		t.Fatal("prefilter never rejected a pair; the bound has no pruning power on this corpus")
	}
}

// TestMetamorphicSharedScorerBoundsAgree pins Scorer.Bound to the bound
// a probe declines on — Bind(Record(a)).Score(Record(b), floor) scores at
// floor = Bound(a, b) and declines just above it — and a bound probe's
// Upper as a one-sided relaxation: Upper() of probe a must dominate
// Bound(a, b), and therefore the score, for every candidate b.
func TestMetamorphicSharedScorerBoundsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		r := randomPrefilterRule(rng)
		c := evalengine.Compile(r)
		s := c.Scorer()
		for i := 0; i < 10; i++ {
			a := randomEntity(rng, "a")
			b := randomEntity(rng, "b")
			bound := s.Bound(a, b)
			p := c.Bind(c.Record(a))
			rb := c.Record(b)
			if _, ok := p.Score(rb, bound); !ok {
				t.Fatalf("Probe.Score declined at floor = Scorer.Bound %v\nrule: %s", bound, r.Render())
			}
			if c.Prefilter() != nil {
				if _, ok := p.Score(rb, math.Nextafter(bound, math.Inf(1))); ok {
					t.Fatalf("Probe.Score scored above floor = Scorer.Bound %v\nrule: %s", bound, r.Render())
				}
			}
			if up := p.Upper(); up < bound {
				t.Fatalf("Bind(Record(a)).Upper() %v < Bound(a,b) %v: one-sided bound must be a relaxation\nrule: %s",
					up, bound, r.Render())
			}
		}
	}
}

// TestMetaOfValues pins the prefilter metadata against its definition —
// distinct-value count and rune-length range — and the map-free contract:
// for value lists up to the set measures' small-set size (16), computing
// it allocates nothing. It runs once per cached record and once per
// external probe.
func TestMetaOfValues(t *testing.T) {
	cases := []struct {
		vs                   []string
		card, minLen, maxLen int
	}{
		{nil, 0, 0, 0},
		{[]string{"café"}, 1, 4, 4},
		{[]string{"a", "bb", "a", "", "bb"}, 3, 0, 2},
		{[]string{"x\xff", "日本語", "x\xff"}, 2, 2, 3},
	}
	for _, c := range cases {
		card, lo, hi := evalengine.MetaOfValues(c.vs)
		if card != c.card || lo != c.minLen || hi != c.maxLen {
			t.Errorf("metaOfValues(%q) = card %d, len [%d, %d]; want %d, [%d, %d]",
				c.vs, card, lo, hi, c.card, c.minLen, c.maxLen)
		}
	}
	tokens := []string{"learning", "expressive", "linkage", "rules", "using", "genetic",
		"programming", "learning", "rules", "for", "entity", "matching", "on", "the", "web", "rules"}
	if n := testing.AllocsPerRun(100, func() { evalengine.MetaOfValues(tokens) }); n != 0 {
		t.Errorf("metaOfValues over %d values allocates %v times per run", len(tokens), n)
	}
}

// TestMetamorphicHarnessCatchesUnsoundPrefilter proves the soundness
// harness can fail: a deliberately-unsound fake prefilter — the sound
// bound shaved by 10%, the shape of an off-by-a-factor bug in any
// bounder — must produce violations under the identical procedure.
func TestMetamorphicHarnessCatchesUnsoundPrefilter(t *testing.T) {
	_, _, violations := runPrefilterHarness(11, func(s *evalengine.Scorer, a, b *entity.Entity) float64 {
		return 0.9 * s.Bound(a, b)
	})
	if violations == 0 {
		t.Fatal("harness failed to flag a deliberately-unsound prefilter; it could not catch a real soundness bug either")
	}
}

// TestPrefilterAbsentWhenUnsound pins the case where no sound bound can
// be stated: negative aggregation weights must compile without a
// prefilter, and Bound must degrade to +Inf.
func TestPrefilterAbsentWhenUnsound(t *testing.T) {
	neg := rule.NewComparison(
		rule.NewProperty("name"), rule.NewProperty("name"),
		similarity.Levenshtein(), 2)
	neg.SetWeight(-1)
	pos := rule.NewComparison(
		rule.NewProperty("title"), rule.NewProperty("title"),
		similarity.Jaccard(), 0.9)
	r := rule.New(rule.NewAggregation(rule.WMean(), neg, pos))
	c := evalengine.Compile(r)
	if c.Prefilter() != nil {
		t.Fatal("negative aggregation weight must disable the prefilter: a weighted mean is antitone in that operand")
	}
	s := c.Scorer()
	rng := rand.New(rand.NewSource(5))
	a, b := randomEntity(rng, "a"), randomEntity(rng, "b")
	if got := s.Bound(a, b); !math.IsInf(got, 1) {
		t.Fatalf("Bound without a prefilter = %v, want +Inf", got)
	}
}
