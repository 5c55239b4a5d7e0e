package evalengine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// The differential test: the compiled engine must agree bit-for-bit with
// the interpreted tree-walk (rule.Rule.Evaluate / Matches) on randomized
// rules over randomized entities — including degenerate thresholds, zero
// weights, empty value sets and empty aggregations.

var (
	diffProps      = []string{"name", "label", "title", "year", "empty", "weird,prop(x)"}
	diffMeasures   = similarity.Core()
	diffTransforms = transform.Unary()
)

func randomValueOp(rng *rand.Rand, depth int) rule.ValueOp {
	if depth <= 0 || rng.Float64() < 0.5 {
		return rule.NewProperty(diffProps[rng.Intn(len(diffProps))])
	}
	fn := diffTransforms[rng.Intn(len(diffTransforms))]
	return rule.NewTransform(fn, randomValueOp(rng, depth-1))
}

func randomThreshold(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0 // degenerate: exact matching
	case 1:
		return rng.Float64() // token-coefficient scale
	default:
		return rng.Float64() * 5 // edit-distance scale
	}
}

func randomSimOp(rng *rand.Rand, depth int) rule.SimilarityOp {
	if depth <= 0 || rng.Float64() < 0.5 {
		c := rule.NewComparison(
			randomValueOp(rng, 2), randomValueOp(rng, 2),
			diffMeasures[rng.Intn(len(diffMeasures))], randomThreshold(rng))
		c.SetWeight(rng.Intn(4)) // includes weight 0
		return c
	}
	aggs := rule.CoreAggregators()
	n := rng.Intn(4) // includes empty aggregations
	ops := make([]rule.SimilarityOp, n)
	for i := range ops {
		ops[i] = randomSimOp(rng, depth-1)
	}
	agg := &rule.AggregationOp{Function: aggs[rng.Intn(len(aggs))], Operands: ops, W: rng.Intn(4)}
	return agg
}

func randomRule(rng *rand.Rand) *rule.Rule {
	return rule.New(randomSimOp(rng, 3))
}

func randomEntity(rng *rand.Rand, id string) *entity.Entity {
	e := entity.New(id)
	words := []string{"Berlin", "berlin", "New York", "1999", "2001", "", "café", "N.Y.C.",
		"2001-05-03", "52.52 13.405", "POINT(13.06 52.39)"} // dates and coordinates: every prepared measure parses something
	for _, p := range diffProps {
		n := rng.Intn(3) // 0 values → property absent half the time
		for i := 0; i < n; i++ {
			e.Add(p, words[rng.Intn(len(words))])
		}
	}
	return e
}

func randomRefs(rng *rand.Rand, pairs int) *entity.ReferenceLinks {
	refs := &entity.ReferenceLinks{}
	var pool []*entity.Entity
	for i := 0; i < pairs; i++ {
		pool = append(pool, randomEntity(rng, fmt.Sprintf("e%d", i)))
	}
	pick := func() *entity.Entity { return pool[rng.Intn(len(pool))] }
	for i := 0; i < pairs; i++ {
		p := entity.Pair{A: pick(), B: pick()}
		if i%2 == 0 {
			refs.Positive = append(refs.Positive, p)
		} else {
			refs.Negative = append(refs.Negative, p)
		}
	}
	return refs
}

func treeWalkCounts(r *rule.Rule, refs *entity.ReferenceLinks) evalengine.Counts {
	var c evalengine.Counts
	for _, p := range refs.Positive {
		if r.Matches(p.A, p.B) {
			c.TP++
		} else {
			c.FN++
		}
	}
	for _, p := range refs.Negative {
		if r.Matches(p.A, p.B) {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}

func TestDifferentialEngineVsTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		refs := randomRefs(rng, 20+rng.Intn(30))
		eng := evalengine.New(refs, evalengine.Options{Workers: 1 + rng.Intn(4)})
		// Several generations against one engine exercise the
		// cross-generation cache paths, not just cold evaluation.
		for gen := 0; gen < 3; gen++ {
			rules := make([]*rule.Rule, 12)
			for i := range rules {
				if gen > 0 && rng.Float64() < 0.3 {
					// Re-submit a mutated clone: shares subtrees with
					// earlier generations like crossover offspring do.
					rules[i] = rules[rng.Intn(i+1)].Clone()
				} else {
					rules[i] = randomRule(rng)
				}
			}
			got := eng.EvaluateBatch(rules)
			for i, r := range rules {
				want := treeWalkCounts(r, refs)
				if got[i] != want {
					t.Fatalf("trial %d gen %d rule %d: engine %+v, tree-walk %+v\nrule: %s",
						trial, gen, i, got[i], want, r.Render())
				}
			}
		}
	}
}

func TestDifferentialScorerVsEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := randomRule(rng)
		c := evalengine.Compile(r)
		s := c.Scorer()
		for i := 0; i < 20; i++ {
			a := randomEntity(rng, "a")
			b := randomEntity(rng, "b")
			got := s.Score(a, b)
			want := r.Evaluate(a, b)
			if got != want {
				t.Fatalf("trial %d: compiled score %v, tree-walk %v\nrule: %s",
					trial, got, want, r.Render())
			}
			// Score again: the memoized path must agree with itself.
			if again := s.Score(a, b); again != got {
				t.Fatalf("memoized re-score %v != %v", again, got)
			}
		}
	}
}

// negativeWeightRule wraps a random rule into a weighted mean beside a
// negatively weighted comparison: a compiled rule without a prefilter.
func negativeWeightRule(rng *rand.Rand) *rule.Rule {
	neg := rule.NewComparison(randomValueOp(rng, 2), randomValueOp(rng, 2),
		diffMeasures[rng.Intn(len(diffMeasures))], randomThreshold(rng))
	neg.SetWeight(-1 - rng.Intn(2))
	return rule.New(rule.NewAggregation(rule.WMean(), neg, randomRule(rng).Root))
}

// TestDifferentialNegativeWeightRules pins the engine and the scorer to
// the tree-walk on rules the prefilter cannot bound: a weighted mean with a
// negatively weighted operand, whose weights may sum to zero or below.
func TestDifferentialNegativeWeightRules(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		refs := randomRefs(rng, 30)
		rules := make([]*rule.Rule, 8)
		for i := range rules {
			rules[i] = negativeWeightRule(rng)
		}
		got := evalengine.New(refs, evalengine.Options{}).EvaluateBatch(rules)
		for i, r := range rules {
			if want := treeWalkCounts(r, refs); got[i] != want {
				t.Fatalf("trial %d rule %d: engine %+v, tree-walk %+v\nrule: %s", trial, i, got[i], want, r.Render())
			}
			c := evalengine.Compile(r)
			if c.Prefilter() != nil {
				t.Fatalf("rule with a negative weight got a prefilter\nrule: %s", r.Render())
			}
			a, b := randomEntity(rng, "a"), randomEntity(rng, "b")
			if got, want := c.Scorer().Score(a, b), r.Evaluate(a, b); got != want {
				t.Fatalf("trial %d rule %d: compiled score %v, tree-walk %v\nrule: %s", trial, i, got, want, r.Render())
			}
		}
	}
}
