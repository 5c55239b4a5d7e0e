// Package experiments regenerates every table of the paper's evaluation
// (Section 6): the dataset statistics (Tables 5/6), the six learning
// curves (Tables 7–12), the representation comparison (Table 13), the
// seeding experiment (Table 14) and the crossover-operator experiment
// (Table 15), plus the Carvalho et al. reference rows of Tables 7/8.
//
// Every experiment follows the paper's protocol: R runs, each with a fresh
// 2-fold split of the reference links, averaged with standard deviation
// (Section 6.1). Scale (population size, iterations, runs, link subsample)
// is configurable: Quick() keeps the harness fast for tests and benches,
// Paper() matches Table 4 exactly.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"genlink/internal/carvalho"
	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/evalx"
	"genlink/internal/genlink"
)

// Scale controls how much of the paper's full protocol an experiment runs.
type Scale struct {
	// Runs is the number of cross-validation repetitions (paper: 10).
	Runs int
	// PopulationSize is the GP population (paper: 500).
	PopulationSize int
	// MaxIterations is the GP iteration bound (paper: 50).
	MaxIterations int
	// Checkpoints are the iterations reported in learning-curve tables.
	Checkpoints []int
	// MaxRefLinks subsamples each link class to at most this many links
	// before splitting (0 = use all, as the paper does).
	MaxRefLinks int
	// Workers bounds fitness parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives everything.
	Seed int64
}

// Quick returns a scaled-down protocol that preserves the experiment
// structure while running in seconds — used by tests and default benches.
func Quick() Scale {
	return Scale{
		Runs:           3,
		PopulationSize: 80,
		MaxIterations:  12,
		Checkpoints:    []int{0, 3, 6, 9, 12},
		MaxRefLinks:    80,
		Seed:           1,
	}
}

// Paper returns the full Table 4 protocol.
func Paper() Scale {
	return Scale{
		Runs:           10,
		PopulationSize: 500,
		MaxIterations:  50,
		Checkpoints:    []int{0, 10, 20, 30, 40, 50},
		MaxRefLinks:    0,
		Seed:           1,
	}
}

func (s Scale) learnerConfig(run int) genlink.Config {
	cfg := genlink.DefaultConfig()
	cfg.PopulationSize = s.PopulationSize
	cfg.MaxIterations = s.MaxIterations
	cfg.Workers = s.Workers
	cfg.Seed = s.Seed + int64(run)*104729
	return cfg
}

// subsample caps each link class at n links, shuffling deterministically.
func subsample(refs *entity.ReferenceLinks, n int, rng *rand.Rand) *entity.ReferenceLinks {
	if n <= 0 || (len(refs.Positive) <= n && len(refs.Negative) <= n) {
		return refs
	}
	out := refs.Clone()
	rng.Shuffle(len(out.Positive), func(i, j int) {
		out.Positive[i], out.Positive[j] = out.Positive[j], out.Positive[i]
	})
	rng.Shuffle(len(out.Negative), func(i, j int) {
		out.Negative[i], out.Negative[j] = out.Negative[j], out.Negative[i]
	})
	if len(out.Positive) > n {
		out.Positive = out.Positive[:n]
	}
	if len(out.Negative) > n {
		out.Negative = out.Negative[:n]
	}
	return out
}

// CurveRow is one checkpoint row of a learning-curve table (Tables 7–12).
type CurveRow struct {
	Iteration           int
	Seconds, SecondsStd float64
	TrainF1, TrainStd   float64
	ValF1, ValStd       float64
	// MeanPopulationF1 is the average F-measure over the whole population
	// at this iteration (the Table 14 statistic).
	MeanPopulationF1 float64
	// Comparisons and Transformations give the mean best-rule composition
	// (the Table 12 discussion).
	Comparisons, Transformations float64
	// What the evolution cost up to and including this iteration, mean
	// over the runs: seconds spent breeding and evaluating, rules handed
	// to the evaluation engine and rules it folded over the reference
	// links (the rest carried a signature it had already scored).
	BreedSeconds, EvalSeconds   float64
	RulesEvaluated, RulesFolded float64
}

// CurveResult is a full learning-curve experiment.
type CurveResult struct {
	Dataset string
	Rows    []CurveRow
	// BestRule is a rendered example of a learned rule from the last run
	// (the Figure 7/8 style output).
	BestRule string
}

// LearningCurve runs the cross-validated GenLink protocol on one dataset.
func LearningCurve(ds *entity.Dataset, scale Scale) *CurveResult {
	return learningCurve(ds, scale, func(run int) genlink.Config { return scale.learnerConfig(run) })
}

// LearningCurveWithConfig allows experiments to tweak the learner per run
// (representation restrictions, crossover mode, seeding mode).
func LearningCurveWithConfig(ds *entity.Dataset, scale Scale,
	mutate func(cfg *genlink.Config)) *CurveResult {
	return learningCurve(ds, scale, func(run int) genlink.Config {
		cfg := scale.learnerConfig(run)
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	})
}

type checkpointAgg struct {
	sec, train, val, meanPop, cmps, trans evalx.Sample
	breed, eval, evaluated, folded        evalx.Sample
}

func learningCurve(ds *entity.Dataset, scale Scale, cfgFor func(run int) genlink.Config) *CurveResult {
	rng := rand.New(rand.NewSource(scale.Seed))
	refs := subsample(ds.Refs, scale.MaxRefLinks, rng)

	perIter := make(map[int]*checkpointAgg)
	for _, cp := range scale.Checkpoints {
		perIter[cp] = &checkpointAgg{}
	}
	var lastRule string

	cv := evalx.CrossValidation{Runs: scale.Runs, Seed: scale.Seed}
	cv.Run(refs, func(run int, trainRefs, valRefs *entity.ReferenceLinks) evalx.RunResult {
		learner := genlink.NewLearner(cfgFor(run))
		res, err := learner.LearnWithValidation(trainRefs, valRefs)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s run %d: %v", ds.Name, run, err))
		}
		for _, cp := range scale.Checkpoints {
			h := res.StatsAt(cp)
			agg := perIter[cp]
			agg.sec.Add(h.Elapsed.Seconds())
			agg.train.Add(h.TrainF1)
			agg.val.Add(h.ValF1)
			agg.meanPop.Add(h.MeanF1)
			var breed, eval time.Duration
			var evaluated, folded int
			for _, g := range res.History {
				if g.Iteration <= cp {
					breed += g.BreedTime
					eval += g.EvalTime
					evaluated += g.Evaluated
					folded += g.Evaluated - g.MemoHits
				}
			}
			agg.breed.Add(breed.Seconds())
			agg.eval.Add(eval.Seconds())
			agg.evaluated.Add(float64(evaluated))
			agg.folded.Add(float64(folded))
		}
		stats := res.Best.ComputeStats()
		last := scale.Checkpoints[len(scale.Checkpoints)-1]
		perIter[last].cmps.Add(float64(stats.Comparisons))
		perIter[last].trans.Add(float64(stats.Transformations))
		lastRule = res.Best.Render()
		return evalx.RunResult{TrainF1: res.BestTrainF1, ValF1: res.BestValF1}
	})

	out := &CurveResult{Dataset: ds.Name, BestRule: lastRule}
	for _, cp := range scale.Checkpoints {
		agg := perIter[cp]
		out.Rows = append(out.Rows, CurveRow{
			Iteration:        cp,
			Seconds:          agg.sec.Mean(),
			SecondsStd:       agg.sec.StdDev(),
			TrainF1:          agg.train.Mean(),
			TrainStd:         agg.train.StdDev(),
			ValF1:            agg.val.Mean(),
			ValStd:           agg.val.StdDev(),
			MeanPopulationF1: agg.meanPop.Mean(),
			Comparisons:      agg.cmps.Mean(),
			Transformations:  agg.trans.Mean(),
			BreedSeconds:     agg.breed.Mean(),
			EvalSeconds:      agg.eval.Mean(),
			RulesEvaluated:   agg.evaluated.Mean(),
			RulesFolded:      agg.folded.Mean(),
		})
	}
	return out
}

// FormatCurve renders a CurveResult in the layout of Tables 7–12.
func FormatCurve(c *CurveResult, referenceRows []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Results for the %s data set\n", c.Dataset)
	fmt.Fprintf(&b, "%-6s %-16s %-18s %-18s %-16s %s\n", "Iter.", "Time in s (σ)", "Train. F1 (σ)", "Val. F1 (σ)",
		"Breed/eval in s", "Rules evaluated/folded")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-6d %6.1f (%.1f)     %.3f (%.3f)      %.3f (%.3f)      %5.2f / %-8.2f %.0f / %.0f\n",
			r.Iteration, r.Seconds, r.SecondsStd, r.TrainF1, r.TrainStd, r.ValF1, r.ValStd,
			r.BreedSeconds, r.EvalSeconds, r.RulesEvaluated, r.RulesFolded)
	}
	for _, ref := range referenceRows {
		b.WriteString(ref + "\n")
	}
	return b.String()
}

// CarvalhoResult is the baseline reference row of Tables 7 and 8.
type CarvalhoResult struct {
	Dataset           string
	TrainF1, TrainStd float64
	ValF1, ValStd     float64
}

// CarvalhoBaseline runs the Carvalho et al. GP under the same protocol.
func CarvalhoBaseline(ds *entity.Dataset, scale Scale) *CarvalhoResult {
	rng := rand.New(rand.NewSource(scale.Seed))
	refs := subsample(ds.Refs, scale.MaxRefLinks, rng)

	// Presupply evidence from the same compatible-property discovery
	// GenLink seeds from, which is fair: both learners see the same
	// attribute pairs.
	gcfg := genlink.DefaultConfig()
	pairs := genlink.CompatibleProperties(refs.Positive, gcfg.Measures, 1, gcfg.MaxCompatLinks, rng)
	cpairs := make([]carvalho.PropertyPair, len(pairs))
	for i, p := range pairs {
		cpairs[i] = carvalho.PropertyPair{A: p.A, B: p.B, Measure: p.Measure}
	}
	evidence := carvalho.BuildEvidence(cpairs)

	var train, val evalx.Sample
	cv := evalx.CrossValidation{Runs: scale.Runs, Seed: scale.Seed}
	cv.Run(refs, func(run int, trainRefs, valRefs *entity.ReferenceLinks) evalx.RunResult {
		cfg := carvalho.DefaultConfig()
		cfg.PopulationSize = scale.PopulationSize
		cfg.MaxIterations = scale.MaxIterations
		cfg.Workers = scale.Workers
		cfg.Seed = scale.Seed + int64(run)*104729
		res, err := carvalho.NewLearner(cfg, evidence).Learn(trainRefs, valRefs)
		if err != nil {
			panic(fmt.Sprintf("experiments: carvalho %s run %d: %v", ds.Name, run, err))
		}
		train.Add(res.BestTrainF1)
		val.Add(res.BestValF1)
		return evalx.RunResult{TrainF1: res.BestTrainF1, ValF1: res.BestValF1}
	})
	return &CarvalhoResult{
		Dataset: ds.Name,
		TrainF1: train.Mean(), TrainStd: train.StdDev(),
		ValF1: val.Mean(), ValStd: val.StdDev(),
	}
}

// Dataset materializes a dataset by Table 5 name.
func Dataset(name string, seed int64) *entity.Dataset {
	gen := datagen.ByName(name)
	if gen == nil {
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
	return gen(seed)
}
