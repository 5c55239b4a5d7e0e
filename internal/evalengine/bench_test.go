package evalengine_test

import (
	"math"
	"math/rand"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// coraPopulation builds a population of plausible Cora rules the way a GP
// generation looks: a handful of base comparison shapes, then clones
// mutated in threshold and operand order — heavy subtree sharing, exactly
// what the caches are for.
func coraPopulation(rng *rand.Rand, size int) []*rule.Rule {
	props := []string{"title", "author", "venue", "year"}
	measures := []similarity.Measure{
		similarity.Levenshtein(), similarity.Jaccard(), similarity.Dice(),
	}
	base := func() rule.SimilarityOp {
		p := props[rng.Intn(len(props))]
		var in rule.ValueOp = rule.NewProperty(p)
		if rng.Float64() < 0.5 {
			in = rule.NewTransform(transform.LowerCase(), in)
		}
		if rng.Float64() < 0.3 {
			in = rule.NewTransform(transform.Tokenize(), in)
		}
		m := measures[rng.Intn(len(measures))]
		thr := rng.Float64() * 3
		return rule.NewComparison(in, in.CloneValue(), m, thr)
	}
	rules := make([]*rule.Rule, size)
	for i := range rules {
		n := 1 + rng.Intn(3)
		ops := make([]rule.SimilarityOp, n)
		for j := range ops {
			ops[j] = base()
		}
		rules[i] = rule.New(rule.NewAggregation(rule.CoreAggregators()[rng.Intn(3)], ops...))
	}
	return rules
}

// BenchmarkFitnessEvaluation measures one generation's fitness pass over
// the full Cora reference links (1617 positive + 1617 negative pairs) for
// a population of 60 rules: the compiled memoizing engine versus the
// interpreted tree-walk, on two populations. "mutating" replaces a third
// of 60 distinct rules every generation, as early crossover does, so the
// caches see a realistic mix of hits and misses rather than a fully warm
// population. "converged" is what the learner breeds once a few rules
// dominate: 20 distinct rules and 40 copies of them (two thirds of the
// population repeat a signature); every generation half of the distinct
// rules are replaced by threshold-crossover offspring of one another —
// new signatures over distance vectors already cached — and the copies
// are re-drawn. Besides ns/op and allocs/op the engine reports the
// similarity instructions it runs per generation, each over every pair
// (foldops/op, CacheStats.FoldOps). This is the
// measurement behind the engine's headline speedup; the rig's learn
// workload (benchmark/) measures the engine inside the whole learner.
func BenchmarkFitnessEvaluation(b *testing.B) {
	ds := datagen.Cora(1)
	const size = 60
	populations := []struct {
		name string
		next func(rng *rand.Rand, pop []*rule.Rule)
	}{
		{"mutating", func(rng *rand.Rand, pop []*rule.Rule) {
			for j := 0; j < size/3; j++ {
				pop[rng.Intn(size)] = coraPopulation(rng, 1)[0]
			}
		}},
		{"converged", func(rng *rand.Rand, pop []*rule.Rule) {
			distinct := pop[:size/3]
			for j := 0; j < size/6; j++ {
				child := distinct[rng.Intn(len(distinct))].Clone()
				for _, op := range child.Root.(*rule.AggregationOp).Operands {
					op.(*rule.ComparisonOp).Threshold *= 0.5 + rng.Float64()
				}
				distinct[rng.Intn(len(distinct))] = child
			}
			for j := len(distinct); j < size; j++ {
				pop[j] = distinct[rng.Intn(len(distinct))].Clone()
			}
		}},
	}
	for _, mode := range []string{"engine", "treewalk"} {
		for _, population := range populations {
			b.Run(mode+"/"+population.name, func(b *testing.B) {
				eng := evalengine.New(ds.Refs, evalengine.Options{Workers: 1})
				rng := rand.New(rand.NewSource(1))
				pop := coraPopulation(rng, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					population.next(rng, pop)
					if mode == "engine" {
						eng.EvaluateBatch(pop)
						continue
					}
					for _, r := range pop {
						treeWalkCounts(r, ds.Refs)
					}
				}
				if mode == "engine" {
					b.ReportMetric(float64(eng.Stats().FoldOps)/float64(b.N), "foldops/op")
				}
			})
		}
	}
}

// BenchmarkScorer measures compiled pair scoring the way the served path
// runs it — each entity's record built once, then Bind and Probe.Score
// per pair — against the interpreted Rule.Evaluate.
func BenchmarkScorer(b *testing.B) {
	ds := datagen.Cora(1)
	r := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(
			rule.NewTransform(transform.LowerCase(), rule.NewProperty("title")),
			rule.NewTransform(transform.LowerCase(), rule.NewProperty("title")),
			similarity.Levenshtein(), 3),
		rule.NewComparison(
			rule.NewTransform(transform.Tokenize(), rule.NewProperty("author")),
			rule.NewTransform(transform.Tokenize(), rule.NewProperty("author")),
			similarity.Jaccard(), 0.5)))
	pairs := ds.Refs.Positive[:200]
	b.Run("compiled", func(b *testing.B) {
		c := evalengine.Compile(r)
		type recPair struct{ a, b *evalengine.Record }
		recs := make([]recPair, len(pairs))
		for i, p := range pairs {
			recs[i] = recPair{c.Record(p.A), c.Record(p.B)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := recs[i%len(recs)]
			c.Bind(p.a).Score(p.b, math.Inf(-1))
		}
	})
	b.Run("treewalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			r.Evaluate(p.A, p.B)
		}
	})
}
