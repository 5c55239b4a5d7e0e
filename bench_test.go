// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks, plus the ablation benches called out in
// DESIGN.md. Each BenchmarkTableNN executes the corresponding experiment
// at bench scale (the structure of the paper-scale protocol with reduced
// population/iterations/runs so a bench iteration completes in seconds);
// run `cmd/experiments -full` for paper-scale numbers.
//
// The b.ReportMetric calls attach the experiment's headline quantity
// (usually the final validation F-measure) to the bench output so
// `go test -bench=.` doubles as a results summary.
package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"genlink/internal/carvalho"
	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/experiments"
	"genlink/internal/genlink"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// benchScale is the reduced protocol used by the table benches.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Runs:           1,
		PopulationSize: 60,
		MaxIterations:  8,
		Checkpoints:    []int{0, 4, 8},
		MaxRefLinks:    60,
		Seed:           1,
	}
}

// ---------------------------------------------------------------------------
// Tables 5 and 6: dataset statistics

func BenchmarkTable05Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := experiments.Table5(1); len(got) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable06Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := experiments.Table6(1); len(got) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---------------------------------------------------------------------------
// Tables 7–12: learning curves

func benchLearningCurve(b *testing.B, dataset string) {
	b.Helper()
	ds := experiments.Dataset(dataset, 1)
	var final experiments.CurveRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.LearningCurve(ds, benchScale())
		final = res.Rows[len(res.Rows)-1]
	}
	b.ReportMetric(final.ValF1, "valF1")
	b.ReportMetric(final.TrainF1, "trainF1")
}

func BenchmarkTable07Cora(b *testing.B)            { benchLearningCurve(b, "Cora") }
func BenchmarkTable08Restaurant(b *testing.B)      { benchLearningCurve(b, "Restaurant") }
func BenchmarkTable09SiderDrugBank(b *testing.B)   { benchLearningCurve(b, "SiderDrugBank") }
func BenchmarkTable10NYT(b *testing.B)             { benchLearningCurve(b, "NYT") }
func BenchmarkTable11LinkedMDB(b *testing.B)       { benchLearningCurve(b, "LinkedMDB") }
func BenchmarkTable12DBpediaDrugBank(b *testing.B) { benchLearningCurve(b, "DBpediaDrugBank") }

// ---------------------------------------------------------------------------
// Table 13: representation comparison (one dataset per bench iteration to
// keep iterations bounded; the full 6×4 sweep lives in cmd/experiments)

func BenchmarkTable13Representations(b *testing.B) {
	ds := experiments.Dataset("SiderDrugBank", 1)
	var fullF1, booleanF1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range []genlink.Representation{genlink.Boolean, genlink.Full} {
			rep := rep
			res := experiments.LearningCurveWithConfig(ds, benchScale(), func(cfg *genlink.Config) {
				cfg.Representation = rep
			})
			last := res.Rows[len(res.Rows)-1]
			if rep == genlink.Full {
				fullF1 = last.ValF1
			} else {
				booleanF1 = last.ValF1
			}
		}
	}
	b.ReportMetric(fullF1, "fullF1")
	b.ReportMetric(booleanF1, "booleanF1")
}

// ---------------------------------------------------------------------------
// Table 14: seeding

func BenchmarkTable14Seeding(b *testing.B) {
	ds := experiments.Dataset("NYT", 1)
	scale := benchScale()
	scale.Checkpoints = []int{0}
	scale.MaxIterations = 1
	var seeded, random float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mode := range []genlink.SeedingMode{genlink.Seeded, genlink.RandomInit} {
			mode := mode
			res := experiments.LearningCurveWithConfig(ds, scale, func(cfg *genlink.Config) {
				cfg.Seeding = mode
			})
			if mode == genlink.Seeded {
				seeded = res.Rows[0].MeanPopulationF1
			} else {
				random = res.Rows[0].MeanPopulationF1
			}
		}
	}
	b.ReportMetric(seeded, "seededF1")
	b.ReportMetric(random, "randomF1")
}

// ---------------------------------------------------------------------------
// Table 15: crossover operators

func BenchmarkTable15Crossover(b *testing.B) {
	ds := experiments.Dataset("Cora", 1)
	var specialized, subtree float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mode := range []genlink.CrossoverMode{genlink.Specialized, genlink.Subtree} {
			mode := mode
			res := experiments.LearningCurveWithConfig(ds, benchScale(), func(cfg *genlink.Config) {
				cfg.Crossover = mode
			})
			last := res.Rows[len(res.Rows)-1]
			if mode == genlink.Specialized {
				specialized = last.ValF1
			} else {
				subtree = last.ValF1
			}
		}
	}
	b.ReportMetric(specialized, "specializedF1")
	b.ReportMetric(subtree, "subtreeF1")
}

// ---------------------------------------------------------------------------
// Carvalho et al. baseline (reference rows of Tables 7/8)

func BenchmarkCarvalhoBaseline(b *testing.B) {
	ds := experiments.Dataset("Cora", 1)
	var val float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.CarvalhoBaseline(ds, benchScale())
		val = res.ValF1
	}
	b.ReportMetric(val, "valF1")
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §6)

func BenchmarkAblationFitness(b *testing.B) {
	ds := experiments.Dataset("LinkedMDB", 1)
	for _, metric := range []genlink.FitnessMetric{genlink.FitnessMCC, genlink.FitnessF1} {
		metric := metric
		b.Run(metric.String(), func(b *testing.B) {
			var val float64
			for i := 0; i < b.N; i++ {
				res := experiments.LearningCurveWithConfig(ds, benchScale(), func(cfg *genlink.Config) {
					cfg.Fitness = metric
				})
				val = res.Rows[len(res.Rows)-1].ValF1
			}
			b.ReportMetric(val, "valF1")
		})
	}
}

func BenchmarkAblationParsimony(b *testing.B) {
	ds := experiments.Dataset("Restaurant", 1)
	for _, coeff := range []float64{0, 0.05, 0.5} {
		coeff := coeff
		b.Run(fmt.Sprintf("coeff=%.2f", coeff), func(b *testing.B) {
			var ops float64
			for i := 0; i < b.N; i++ {
				res := experiments.LearningCurveWithConfig(ds, benchScale(), func(cfg *genlink.Config) {
					cfg.ParsimonyCoefficient = coeff
				})
				ops = res.Rows[len(res.Rows)-1].Comparisons
			}
			b.ReportMetric(ops, "comparisons")
		})
	}
}

// BenchmarkAblationBlocking sweeps every blocking strategy on one dataset
// under the fixed probe rule, reporting the candidate-pair count and the
// pairs-completeness of the blocked links against the cartesian matcher
// (linkRecall); bench wall-clock is the cost axis. The cartesian matcher
// itself is the exactness baseline.
func BenchmarkAblationBlocking(b *testing.B) {
	ds := experiments.Dataset("LinkedMDB", 1)
	r := experiments.ProbeRule(ds.Name)
	exact := matching.MatchCartesian(r, ds.A, ds.B, matching.Options{})
	inExact := make(map[matching.Link]bool, len(exact))
	for _, l := range exact {
		inExact[l] = true
	}
	for _, bl := range experiments.AblationBlockers(ds.Name) {
		bl := bl
		b.Run(bl.Name(), func(b *testing.B) {
			opts := matching.Options{Blocker: bl}
			candidates := len(matching.CandidatePairs(bl, ds.A, ds.B, opts))
			var links []matching.Link
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				links = matching.Match(r, ds.A, ds.B, opts)
			}
			recalled := 0
			for _, l := range links {
				if inExact[l] {
					recalled++
				}
			}
			b.ReportMetric(float64(candidates), "candidates")
			b.ReportMetric(float64(recalled)/float64(len(exact)), "linkRecall")
		})
	}
	b.Run("cartesian", func(b *testing.B) {
		var links []matching.Link
		for i := 0; i < b.N; i++ {
			links = matching.MatchCartesian(r, ds.A, ds.B, matching.Options{})
		}
		b.ReportMetric(float64(ds.A.Len()*ds.B.Len()), "candidates")
		b.ReportMetric(float64(len(links))/float64(len(exact)), "linkRecall")
	})
}

// BenchmarkAblationMatchParallel measures pair-partitioned parallel
// matching against the serial matcher on a skew-prone dataset.
func BenchmarkAblationMatchParallel(b *testing.B) {
	ds := experiments.Dataset("Cora", 1)
	r := experiments.ProbeRule(ds.Name)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.MatchParallel(r, ds.A, ds.B, matching.Options{}, workers)
			}
		})
	}
}

func BenchmarkAblationParallel(b *testing.B) {
	ds := experiments.Dataset("Cora", 1)
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scale := benchScale()
			scale.Workers = workers
			for i := 0; i < b.N; i++ {
				experiments.LearningCurve(ds, scale)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Micro benches for the hot paths

func BenchmarkLevenshtein(b *testing.B) {
	m := similarity.Levenshtein()
	a := []string{"learning expressive linkage rules"}
	c := []string{"learning expresive linkage rule"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Distance(a, c)
	}
}

func BenchmarkRuleEvaluate(b *testing.B) {
	r := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(
			rule.NewTransform(transform.LowerCase(), rule.NewProperty("label")),
			rule.NewTransform(transform.LowerCase(), rule.NewProperty("label")),
			similarity.Levenshtein(), 1),
		rule.NewComparison(
			rule.NewProperty("coord"), rule.NewProperty("point"),
			similarity.Geographic(), 50_000)))
	ea := entity.New("a")
	ea.Add("label", "Berlin")
	ea.Add("coord", "52.52 13.405")
	eb := entity.New("b")
	eb.Add("label", "berlin")
	eb.Add("point", "52.52 13.405")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Evaluate(ea, eb)
	}
}

func BenchmarkCrossoverOperators(b *testing.B) {
	r1 := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(
			rule.NewTransform(transform.LowerCase(), rule.NewProperty("a")),
			rule.NewProperty("b"), similarity.Levenshtein(), 1),
		rule.NewComparison(rule.NewProperty("c"), rule.NewProperty("d"),
			similarity.Date(), 365)))
	r2 := rule.New(rule.NewAggregation(rule.WMean(),
		rule.NewComparison(
			rule.NewTransform(transform.Tokenize(), rule.NewProperty("e")),
			rule.NewTransform(transform.Tokenize(), rule.NewProperty("f")),
			similarity.Jaccard(), 0.5)))
	ops := []genlink.CrossoverOp{
		genlink.FunctionCrossover(genlink.Full),
		genlink.OperatorsCrossover(genlink.Full),
		genlink.AggregationCrossover(),
		genlink.TransformationCrossover(),
		genlink.ThresholdCrossover(),
		genlink.WeightCrossover(),
		genlink.SubtreeCrossover(),
	}
	rng := rand.New(rand.NewSource(1))
	for _, op := range ops {
		op := op
		b.Run(op.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.Cross(rng, r1, r2)
			}
		})
	}
}

// BenchmarkCompatibleProperties runs Algorithm 2 with the five measures of
// Table 2 on the dataset with the widest schema, as the learner's seeding
// does: every measure meets every property pair of every sampled link.
func BenchmarkCompatibleProperties(b *testing.B) {
	ds := datagen.DBpediaDrugBank(1)
	rng := rand.New(rand.NewSource(1))
	measures := similarity.Core()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		genlink.CompatibleProperties(ds.Refs.Positive, measures, 1, 50, rng)
	}
}

func BenchmarkCarvalhoTreeEval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ev := []float64{0.3, 0.9, 0.5, 0.7}
	trees := make([]*carvalho.Node, 16)
	for i := range trees {
		trees[i] = carvalho.RandomTree(rng, len(ev), 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trees[i%len(trees)].Eval(ev)
	}
}
