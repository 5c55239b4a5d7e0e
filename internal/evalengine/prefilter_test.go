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
		s := evalengine.Compile(r).Scorer()
		if !s.HasPrefilter() {
			continue
		}
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

// TestMetamorphicSharedScorerBoundsAgree pins the concurrent scorer's
// Bound to the single-goroutine one, and a bound probe's Upper as a
// one-sided relaxation: Upper() of probe a must dominate Bound(a, b) —
// and therefore the score — for every candidate b, whether the probe's
// record is cached (stored) or lives in the handle (external).
func TestMetamorphicSharedScorerBoundsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		r := randomPrefilterRule(rng)
		c := evalengine.Compile(r)
		s := c.Scorer()
		shared := c.NewSharedScorer()
		for i := 0; i < 10; i++ {
			a := randomEntity(rng, "a")
			b := randomEntity(rng, "b")
			bound := s.Bound(a, b)
			if sb := shared.Bound(a, b); sb != bound {
				t.Fatalf("SharedScorer.Bound %v != Scorer.Bound %v\nrule: %s", sb, bound, r.Render())
			}
			for _, stored := range []bool{false, true} {
				if up := shared.Bind(a, stored).Upper(); up < bound {
					t.Fatalf("Bind(a, %v).Upper() %v < Bound(a,b) %v: one-sided bound must be a relaxation\nrule: %s",
						stored, up, bound, r.Render())
				}
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

// TestPrefilterAbsentWhenUnsound pins the cases where no sound bound can
// be stated: opaque rules and negative aggregation weights must compile
// without a prefilter, and Bound must degrade to +Inf — not 1, because an
// opaque rule's extension operators may score above 1.
func TestPrefilterAbsentWhenUnsound(t *testing.T) {
	opaque := rule.New(&rule.AggregationOp{
		Function: rule.Min(),
		Operands: []rule.SimilarityOp{constSim(0.9)},
		W:        1,
	})
	if evalengine.Compile(opaque).Prefilter() != nil {
		t.Fatal("opaque rule must not get a prefilter")
	}
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
	if s.HasPrefilter() {
		t.Fatal("HasPrefilter must be false without a prefilter")
	}
	rng := rand.New(rand.NewSource(5))
	a, b := randomEntity(rng, "a"), randomEntity(rng, "b")
	if got := s.Bound(a, b); !math.IsInf(got, 1) {
		t.Fatalf("Bound without a prefilter = %v, want +Inf", got)
	}
	// Why not 1: an extension operator at the root is not clamped.
	over := rule.New(constSim(1.5))
	if score := over.Evaluate(a, b); score != 1.5 {
		t.Fatalf("constSim(1.5) scored %v", score)
	}
	if got := evalengine.Compile(over).Scorer().Bound(a, b); !math.IsInf(got, 1) {
		t.Fatalf("Bound = %v for an opaque rule scoring 1.5, want +Inf", got)
	}
}
