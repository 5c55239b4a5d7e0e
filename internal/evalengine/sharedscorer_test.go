package evalengine_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// TestSharedScorerMatchesEvaluate pins Scorer.Score ≡ Rule.Evaluate on
// random rules and entities, including after invalidation and entity
// mutation.
func TestSharedScorerMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		r := randomRule(rng)
		scorer := evalengine.Compile(r).Scorer()
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
						t.Fatalf("trial %d: Scorer.Score=%v, Evaluate=%v\nrule: %s\na: %v\nb: %v",
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

// randomProbeRule draws the rules a bound probe must score exactly: half
// prefilterable registry rules, and the rest rules without a prefilter —
// a weighted mean with a negatively weighted operand, at the root or
// nested in another aggregation.
func randomProbeRule(rng *rand.Rand) *rule.Rule {
	switch rng.Intn(6) {
	case 0, 1:
		aggs := rule.CoreAggregators()
		return rule.New(rule.NewAggregation(aggs[rng.Intn(len(aggs))],
			negativeWeightRule(rng).Root, randomPrefilterRule(rng).Root))
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
// Bind(Record(a)).Score(Record(b), −Inf) is bit-identical to
// Rule.Evaluate(a, b) whether the probe's record is the one stored for
// the corpus (and scored as a candidate too) or built fresh for the
// query, on prefilterable and prefilter-less rules; and for any floor,
// the handle declines to score (ok == false) exactly when Bound(a, b) <
// floor, only candidates scoring below the floor are declined, and
// otherwise it still returns the exact score. A rule without a prefilter
// never declines, whatever the floor.
func TestProbeScoreMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	withoutPF := 0
	for trial := 0; trial < 150; trial++ {
		r := randomProbeRule(rng)
		c := evalengine.Compile(r)
		scorer := c.Scorer()
		if c.Prefilter() == nil {
			withoutPF++
		}
		entities := make([]*entity.Entity, 6)
		records := make([]*evalengine.Record, len(entities))
		for i := range entities {
			entities[i] = randomEntity(rng, "e")
			records[i] = c.Record(entities[i])
		}
		for i, a := range entities {
			for _, ra := range []*evalengine.Record{records[i], c.Record(a)} {
				stored := ra == records[i]
				p := c.Bind(ra)
				for j, b := range entities {
					want := r.Evaluate(a, b)
					got, ok := p.Score(records[j], math.Inf(-1))
					if !ok || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d: Bind(a, stored=%v).Score(b, -Inf) = %v, %v; Evaluate = %v\nrule: %s\na: %v\nb: %v",
							trial, stored, got, ok, want, r.Render(), a, b)
					}
					bound := scorer.Bound(a, b)
					if c.Prefilter() == nil && !math.IsInf(bound, 1) {
						t.Fatalf("trial %d: Bound = %v without a prefilter, want +Inf\nrule: %s", trial, bound, r.Render())
					}
					floors := []float64{0, bound, math.Nextafter(bound, math.Inf(1)), rng.Float64(), rule.MatchThreshold,
						1, 1.5, 2.5, want, math.Nextafter(want, math.Inf(1)), math.Inf(1)}
					for _, floor := range floors {
						got, ok := p.Score(records[j], floor)
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
		t.Fatalf("only %d of 150 rules had no prefilter; the prefilter-less path went unexercised", withoutPF)
	}
}

// TestExternalProbesLeaveCacheUnchanged pins what the shard query path
// relies on to share stored records across queries without a lock:
// binding and scoring external probes changes neither the stored records
// nor a Scorer's cache, while the Scorer caches one record per entity it
// scores and Invalidate drops exactly that entity's.
func TestExternalProbesLeaveCacheUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var r *rule.Rule
	for r == nil || evalengine.Compile(r).Prefilter() == nil {
		r = randomPrefilterRule(rng)
	}
	c := evalengine.Compile(r)
	scorer := c.Scorer()
	corpus := make([]*entity.Entity, 20)
	stored := make([]*evalengine.Record, len(corpus))
	for i := range corpus {
		corpus[i] = randomEntity(rng, "c")
		stored[i] = c.Record(corpus[i])
	}
	for _, a := range corpus[:10] {
		for _, b := range corpus[10:] {
			scorer.Score(a, b)
		}
	}
	if n := evalengine.RecordCount(scorer); n != len(corpus) {
		t.Fatalf("after scoring the corpus the cache holds %d records, want %d", n, len(corpus))
	}
	before := make([]*evalengine.Record, len(stored))
	for i, rec := range stored {
		before[i] = evalengine.CloneRecord(rec)
	}
	for q := 0; q < 50; q++ {
		p := c.Bind(c.Record(randomEntity(rng, "probe")))
		p.Upper()
		for _, rb := range stored {
			p.Score(rb, math.Inf(-1))
			p.Score(rb, rule.MatchThreshold)
		}
	}
	for i, rec := range stored {
		if !reflect.DeepEqual(rec, before[i]) {
			t.Fatalf("50 external-probe queries changed the stored record of entity %d", i)
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

// TestSharedScorerConcurrent exercises concurrent Score, Bound,
// probe-handle scoring and Invalidate calls on one Scorer; run with -race
// it pins the concurrency-safety contract.
func TestSharedScorerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	r := randomRule(rng)
	c := evalengine.Compile(r)
	scorer := c.Scorer()
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
				switch n % 3 {
				case 0:
					got = scorer.Score(entities[i], entities[j])
				case 1:
					got, _ = c.Bind(c.Record(entities[i])).Score(c.Record(entities[j]), math.Inf(-1))
				default:
					if bound := scorer.Bound(entities[i], entities[j]); bound < want[[2]int{i, j}] {
						t.Errorf("concurrent Bound(%d,%d)=%v below the score %v", i, j, bound, want[[2]int{i, j}])
						return
					}
					got = scorer.Score(entities[i], entities[j])
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
