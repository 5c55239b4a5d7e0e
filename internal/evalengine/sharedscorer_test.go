package evalengine_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// TestSharedScorerMatchesEvaluate pins SharedScorer.Score ≡ Rule.Evaluate
// on random rules and entities, including after invalidation and entity
// mutation (the serving-path correctness contract).
func TestSharedScorerMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		r := randomRule(rng)
		scorer := evalengine.Compile(r).NewSharedScorer()
		entities := make([]*entity.Entity, 8)
		for i := range entities {
			entities[i] = randomEntity(rng, "e")
		}
		check := func() {
			for _, a := range entities {
				for _, b := range entities {
					got := scorer.Score(a, b)
					want := r.Evaluate(a, b)
					if got != want {
						t.Fatalf("trial %d: SharedScorer.Score=%v, Evaluate=%v\nrule: %s\na: %v\nb: %v",
							trial, got, want, r.Render(), a, b)
					}
				}
			}
		}
		check()
		// Mutate an entity in place; without invalidation the cache would
		// keep the stale value sets.
		e := entities[rng.Intn(len(entities))]
		*e = *randomEntity(rng, "mutated")
		scorer.Invalidate(e)
		check()
	}
}

// doubledSim is an extension operator scoring twice its operand, up to 2 —
// which no compiled operator does (comparisons score in [0, 1] and
// aggregations clamp). A rule rooted in it is opaque.
type doubledSim struct{ rule.SimilarityOp }

func (d doubledSim) Evaluate(a, b *entity.Entity) float64 { return 2 * d.SimilarityOp.Evaluate(a, b) }
func (d doubledSim) CloneSim() rule.SimilarityOp          { return d }

// randomProbeRule draws the rules a bound probe must score exactly: half
// prefilterable registry rules, and the rest rules without a prefilter —
// opaque rules (an extension operator beside compiled comparisons, or one
// at the root scoring above 1, which fall back to the tree-walk) and rules
// with a negatively weighted operand of a weighted mean.
func randomProbeRule(rng *rand.Rand) *rule.Rule {
	switch rng.Intn(6) {
	case 0:
		return rule.New(doubledSim{randomPrefilterRule(rng).Root})
	case 1:
		aggs := rule.CoreAggregators()
		return rule.New(&rule.AggregationOp{
			Function: aggs[rng.Intn(len(aggs))],
			Operands: []rule.SimilarityOp{constSim(rng.Float64()), randomPrefilterRule(rng).Root},
			W:        1,
		})
	case 2:
		neg := rule.NewComparison(randomValueOp(rng, 2), randomValueOp(rng, 2),
			similarity.Levenshtein(), randomThreshold(rng))
		neg.SetWeight(-1 - rng.Intn(2))
		return rule.New(rule.NewAggregation(rule.WMean(), neg, randomPrefilterRule(rng).Root))
	default:
		return randomPrefilterRule(rng)
	}
}

// TestProbeScoreMatchesEvaluate is the probe handle's differential:
// Bind(a).Score(b, −Inf) is bit-identical to Rule.Evaluate(a, b) whether
// the probe is stored or external, on prefilterable, prefilter-less and
// opaque rules; and for any floor, the handle declines to score (ok ==
// false) exactly when Bound(a, b) < floor, only candidates scoring below
// the floor are declined, and otherwise it still returns the exact score.
// An opaque rule may score above 1, so a rule without a prefilter must
// never decline, whatever the floor.
func TestProbeScoreMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	withoutPF, above1 := 0, 0
	for trial := 0; trial < 150; trial++ {
		r := randomProbeRule(rng)
		c := evalengine.Compile(r)
		scorer := c.NewSharedScorer()
		if c.Prefilter() == nil {
			withoutPF++
		}
		entities := make([]*entity.Entity, 6)
		for i := range entities {
			entities[i] = randomEntity(rng, "e")
		}
		for _, a := range entities {
			for _, stored := range []bool{false, true} {
				p := scorer.Bind(a, stored)
				for _, b := range entities {
					want := r.Evaluate(a, b)
					if want > 1 {
						above1++
					}
					got, ok := p.Score(b, math.Inf(-1))
					if !ok || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d: Bind(a, %v).Score(b, -Inf) = %v, %v; Evaluate = %v\nrule: %s\na: %v\nb: %v",
							trial, stored, got, ok, want, r.Render(), a, b)
					}
					bound := scorer.Bound(a, b)
					if c.Prefilter() == nil && !math.IsInf(bound, 1) {
						t.Fatalf("trial %d: Bound = %v without a prefilter, want +Inf\nrule: %s", trial, bound, r.Render())
					}
					floors := []float64{0, bound, math.Nextafter(bound, math.Inf(1)), rng.Float64(), rule.MatchThreshold,
						1, 1.5, 2.5, want, math.Nextafter(want, math.Inf(1)), math.Inf(1)}
					for _, floor := range floors {
						got, ok := p.Score(b, floor)
						if wantOK := !(bound < floor); ok != wantOK {
							t.Fatalf("trial %d: Score(b, %v) ok = %v with Bound(a,b) = %v\nrule: %s", trial, floor, ok, bound, r.Render())
						}
						if !ok && !(want < floor) {
							t.Fatalf("trial %d: Score(b, %v) declined a candidate scoring %v, which reaches the floor\nrule: %s",
								trial, floor, want, r.Render())
						}
						if ok && math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d: Score(b, %v) = %v, Evaluate = %v\nrule: %s", trial, floor, got, want, r.Render())
						}
					}
				}
			}
		}
	}
	if withoutPF < 30 {
		t.Fatalf("only %d of 150 rules had no prefilter; the prefilter-less and opaque paths went unexercised", withoutPF)
	}
	if above1 == 0 {
		t.Fatal("no pair scored above 1; floors above 1 went unexercised")
	}
}

// TestExternalProbesLeaveCacheUnchanged pins what the shard query path
// relies on to skip invalidation: binding and scoring external probes
// never adds a record to the scorer's cache, while a stored probe's record
// is cached like any candidate's.
func TestExternalProbesLeaveCacheUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var r *rule.Rule
	for r == nil || evalengine.Compile(r).Prefilter() == nil {
		r = randomPrefilterRule(rng)
	}
	scorer := evalengine.Compile(r).NewSharedScorer()
	corpus := make([]*entity.Entity, 20)
	for i := range corpus {
		corpus[i] = randomEntity(rng, "c")
	}
	for _, a := range corpus[:10] {
		p := scorer.Bind(a, true)
		for _, b := range corpus[10:] {
			p.Score(b, math.Inf(-1))
		}
	}
	if n := evalengine.RecordCount(scorer); n != len(corpus) {
		t.Fatalf("after stored-probe queries the cache holds %d records, want %d", n, len(corpus))
	}
	for q := 0; q < 50; q++ {
		p := scorer.Bind(randomEntity(rng, "probe"), false)
		p.Upper()
		for _, b := range corpus {
			p.Score(b, math.Inf(-1))
			p.Score(b, rule.MatchThreshold)
		}
	}
	if n := evalengine.RecordCount(scorer); n != len(corpus) {
		t.Fatalf("50 external-probe queries changed the cache from %d to %d records", len(corpus), n)
	}
	scorer.Invalidate(corpus[0])
	if n := evalengine.RecordCount(scorer); n != len(corpus)-1 {
		t.Fatalf("Invalidate left %d records, want %d", n, len(corpus)-1)
	}
}

// TestSharedScorerConcurrent exercises concurrent Score, bound-probe
// scoring and Invalidate calls; run with -race it pins the
// concurrency-safety contract.
func TestSharedScorerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	r := randomRule(rng)
	scorer := evalengine.Compile(r).NewSharedScorer()
	entities := make([]*entity.Entity, 32)
	for i := range entities {
		entities[i] = randomEntity(rng, "e")
	}
	want := make(map[[2]int]float64)
	for i := range entities {
		for j := range entities {
			want[[2]int{i, j}] = r.Evaluate(entities[i], entities[j])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 500; n++ {
				i, j := rng.Intn(len(entities)), rng.Intn(len(entities))
				var got float64
				if n%2 == 0 {
					got = scorer.Score(entities[i], entities[j])
				} else {
					got, _ = scorer.Bind(entities[i], n%4 == 1).Score(entities[j], math.Inf(-1))
				}
				if got != want[[2]int{i, j}] {
					t.Errorf("concurrent Score(%d,%d)=%v, want %v", i, j, got, want[[2]int{i, j}])
					return
				}
				if n%37 == 0 {
					// Invalidation of an unchanged entity must not change scores.
					scorer.Invalidate(entities[rng.Intn(len(entities))])
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
