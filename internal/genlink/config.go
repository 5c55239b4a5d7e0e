// Package genlink implements the GenLink algorithm of Section 5 of
// Isele & Bizer (PVLDB 2012): a genetic-programming learner for expressive
// linkage rules with specialized crossover operators, seeded initial
// populations, tournament selection and an MCC-with-parsimony fitness.
package genlink

import (
	"math"
	"math/rand"

	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// Representation restricts the expressivity of learned rules, enabling the
// comparison of Table 13.
type Representation int

const (
	// Full is the paper's expressive representation: transformations,
	// all aggregators, nested aggregations.
	Full Representation = iota
	// Boolean restricts rules to threshold-based boolean classifiers
	// (Definition 10): min/max aggregations, no transformations.
	Boolean
	// Linear restricts rules to linear classifiers (Definition 9): a
	// single weighted-mean aggregation of comparisons, no transformations.
	Linear
	// NonLinear allows all aggregators and nesting but no transformations.
	NonLinear
)

// String returns the label used in Table 13.
func (r Representation) String() string {
	switch r {
	case Boolean:
		return "Boolean"
	case Linear:
		return "Linear"
	case NonLinear:
		return "Nonlin."
	default:
		return "Full"
	}
}

// allowsTransformations reports whether the representation may contain
// transformation operators.
func (r Representation) allowsTransformations() bool { return r == Full }

// allowsNesting reports whether aggregations may be nested.
func (r Representation) allowsNesting() bool { return r != Linear }

// aggregators returns the aggregation functions available under the
// representation.
func (r Representation) aggregators() []rule.Aggregator {
	switch r {
	case Boolean:
		return []rule.Aggregator{rule.Min(), rule.Max()}
	case Linear:
		return []rule.Aggregator{rule.WMean()}
	default:
		return rule.CoreAggregators()
	}
}

// FitnessMetric selects the accuracy term of the fitness function.
type FitnessMetric int

const (
	// FitnessMCC uses Matthews correlation coefficient (the paper's
	// choice, robust to class imbalance).
	FitnessMCC FitnessMetric = iota
	// FitnessF1 uses the F-measure (the ablation alternative).
	FitnessF1
)

// String names the metric.
func (m FitnessMetric) String() string {
	if m == FitnessF1 {
		return "F1"
	}
	return "MCC"
}

// CrossoverMode selects between the paper's specialized operators and the
// subtree-crossover baseline of Table 15.
type CrossoverMode int

const (
	// Specialized uses the six operators of Section 5.3.
	Specialized CrossoverMode = iota
	// Subtree uses plain strongly-typed subtree crossover.
	Subtree
)

// String returns the label used in Table 15.
func (m CrossoverMode) String() string {
	if m == Subtree {
		return "Subtree C."
	}
	return "Specialized"
}

// SeedingMode selects between the paper's compatible-property seeding and
// fully random initial populations (Table 14).
type SeedingMode int

const (
	// Seeded preselects compatible property pairs (Section 5.1).
	Seeded SeedingMode = iota
	// RandomInit draws property pairs uniformly from the cross product of
	// the source and target schemas.
	RandomInit
)

// String returns the label used in Table 14.
func (m SeedingMode) String() string {
	if m == RandomInit {
		return "Random"
	}
	return "Seeded"
}

// Config collects all learner parameters. The zero value is not usable;
// start from DefaultConfig (Table 4 of the paper).
type Config struct {
	// PopulationSize is the number of candidate rules per generation.
	PopulationSize int
	// MaxIterations bounds the number of generations.
	MaxIterations int
	// TournamentSize is the selection tournament size.
	TournamentSize int
	// MutationProbability is the chance of headless chicken crossover with
	// a freshly generated random rule instead of recombination.
	MutationProbability float64
	// ParsimonyCoefficient scales the operator-count penalty:
	// fitness = MCC − coefficient × operatorCount / ParsimonyNormalizer.
	//
	// The paper states fitness = mcc − 0.05·operatorcount; taken literally
	// that penalty strictly dominates the MCC gain of any rule with more
	// than a couple of operators and contradicts the paper's own learned
	// rules (5.6 comparisons and 3.2 transformations on DBpediaDrugBank,
	// Table 12). We therefore interpret the coefficient against a
	// normalized size, keeping the published 0.05 while letting accuracy
	// differences dominate; among equally accurate rules the smaller one
	// still wins, preserving the anti-bloat behaviour the paper reports.
	ParsimonyCoefficient float64
	// ParsimonyNormalizer is the operator count at which the full
	// coefficient applies (default 50).
	ParsimonyNormalizer float64
	// TargetFMeasure stops evolution once a rule reaches it on the
	// training links (the paper uses 1.0).
	TargetFMeasure float64
	// Elitism copies the fittest rules unchanged into the next
	// generation. Algorithm 1 does not show an explicit reproduction
	// step, but without it the best rule is routinely lost to
	// generational replacement; one elite matches the Silk
	// implementation's behaviour.
	Elitism int
	// Fitness selects the accuracy term of the fitness function.
	// The paper argues for MCC over F-measure (Section 5.2); the F1
	// option exists for the corresponding ablation bench.
	Fitness FitnessMetric
	// Representation restricts rule expressivity (Table 13).
	Representation Representation
	// Crossover selects specialized or subtree crossover (Table 15).
	Crossover CrossoverMode
	// Seeding selects seeded or random initialization (Table 14).
	Seeding SeedingMode
	// Workers bounds the parallelism of fitness evaluation and of
	// Algorithm 2's seeding (≤0: GOMAXPROCS).
	// Populations are always scored by the compiled evaluation engine
	// (package evalengine), whose cache bounds are fixed constants.
	Workers int
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Measures are the distance functions available to comparisons.
	Measures []similarity.Measure
	// Transforms are the unary transformations available to chains.
	Transforms []transform.Transformation
	// CompatThreshold is θ_d of Algorithm 2 (the paper uses Levenshtein
	// distance 1 on lowercased tokens).
	CompatThreshold float64
	// MaxCompatLinks caps how many positive links Algorithm 2 analyzes;
	// 0 means all. Sampling keeps seeding tractable on large R+.
	MaxCompatLinks int
}

// DefaultConfig returns the parameters of Table 4.
func DefaultConfig() Config {
	return Config{
		PopulationSize:       500,
		MaxIterations:        50,
		TournamentSize:       5,
		MutationProbability:  0.25,
		ParsimonyCoefficient: 0.05,
		ParsimonyNormalizer:  50,
		TargetFMeasure:       1.0,
		Elitism:              1,
		Representation:       Full,
		Crossover:            Specialized,
		Seeding:              Seeded,
		Workers:              0,
		Seed:                 1,
		Measures:             similarity.Core(),
		Transforms:           transform.Unary(),
		CompatThreshold:      1,
		MaxCompatLinks:       100,
	}
}

// thresholdRange returns the random-initialization range for a measure's
// distance threshold. The scales mirror the units of Table 2: characters
// for levenshtein, a [0,1] coefficient for token measures, meters for
// geographic, days for date and an absolute difference for numeric.
// logScale ranges are sampled log-uniformly: their useful thresholds span
// orders of magnitude. Thresholds are drawn continuously (as in Silk), so
// the threshold crossover operator has real fine-tuning work to do.
func thresholdRange(m similarity.Measure) (lo, hi float64, logScale bool) {
	switch m.Name() {
	case "levenshtein":
		return 0, 20, false
	case "numeric":
		return 0.1, 1000, true
	case "geographic":
		return 100, 1_000_000, true
	case "date":
		return 1, 10 * 365, true
	default: // jaccard, dice, cosine, jaro, jaroWinkler, normLevenshtein, equality
		return 0, 1, false
	}
}

// randomThreshold draws a threshold for a measure.
func randomThreshold(rng *rand.Rand, m similarity.Measure) float64 {
	lo, hi, logScale := thresholdRange(m)
	if logScale {
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	return lo + rng.Float64()*(hi-lo)
}
