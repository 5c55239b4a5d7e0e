// Package evalx provides the evaluation machinery of Section 5.2 and 6.1:
// confusion matrices over reference links, precision/recall/F-measure,
// Matthews correlation coefficient (the paper's fitness basis), and the
// 10-run 2-fold cross-validation protocol with mean/σ aggregation.
package evalx

import (
	"math"
	"math/rand"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
)

// Confusion is a binary confusion matrix computed over reference links
// (ignoring the rest of the data set, as the paper specifies).
type Confusion struct {
	TP, TN, FP, FN int
}

// Evaluate classifies every reference link with the rule and tallies the
// confusion matrix. A pair counts as predicted-positive iff the rule's
// similarity is ≥ 0.5 (Definition 3).
//
// Evaluation is delegated to the compiled engine (internal/evalengine),
// which deduplicates shared subtrees and evaluates value chains once per
// entity instead of once per pair; results are identical to classifying
// every pair with the interpreted Rule.Matches. Callers that score many
// rules against the same links — the learner does — should hold an
// evalengine.Engine instead, which additionally memoizes across calls.
func Evaluate(r *rule.Rule, refs *entity.ReferenceLinks) Confusion {
	return Confusion(evalengine.EvaluateOnce(r, refs))
}

// Precision returns TP / (TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FMeasure returns the harmonic mean of precision and recall (F1).
func (c Confusion) FMeasure() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN) / total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.TN + c.FP + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// MCC returns the Matthews correlation coefficient:
//
//	(TP·TN − FP·FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN))
//
// When any factor of the denominator is zero the paper's convention (and
// the common one) of returning 0 is used.
func (c Confusion) MCC() float64 {
	tp, tn, fp, fn := float64(c.TP), float64(c.TN), float64(c.FP), float64(c.FN)
	den := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
	if den == 0 {
		return 0
	}
	return (tp*tn - fp*fn) / den
}

// SplitFolds partitions reference links into k folds for cross-validation,
// shuffling with rng. Positives and negatives are stratified so every fold
// keeps the overall class balance.
func SplitFolds(refs *entity.ReferenceLinks, k int, rng *rand.Rand) []*entity.ReferenceLinks {
	if k < 2 {
		k = 2
	}
	pos := append([]entity.Pair(nil), refs.Positive...)
	neg := append([]entity.Pair(nil), refs.Negative...)
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	folds := make([]*entity.ReferenceLinks, k)
	for i := range folds {
		folds[i] = &entity.ReferenceLinks{}
	}
	for i, p := range pos {
		folds[i%k].Positive = append(folds[i%k].Positive, p)
	}
	for i, p := range neg {
		folds[i%k].Negative = append(folds[i%k].Negative, p)
	}
	return folds
}

// Sample summarizes repeated measurements with mean and standard deviation,
// matching the "value (σ)" cells of the paper's tables.
type Sample struct {
	Values []float64
}

// Add appends a measurement.
func (s *Sample) Add(v float64) { s.Values = append(s.Values, v) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// StdDev returns the population standard deviation, or 0 when fewer than
// two measurements exist.
func (s *Sample) StdDev() float64 {
	n := len(s.Values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var sum float64
	for _, v := range s.Values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// CrossValidation runs the paper's protocol: for each of runs runs, the
// reference links are split into two folds; train is called on fold 0 with
// fold 1 as validation and the returned measurements are accumulated.
// train receives the run index so callers can derive per-run seeds.
type CrossValidation struct {
	// Runs is the number of repetitions (the paper uses 10).
	Runs int
	// Seed derives the per-run fold shuffling.
	Seed int64
}

// RunResult carries one run's train and validation measurements.
type RunResult struct {
	TrainF1, ValF1 float64
	Seconds        float64
}

// Aggregated summarizes all runs.
type Aggregated struct {
	TrainF1, ValF1, Seconds Sample
}

// Run executes the protocol. The callback learns on the training links and
// must return measurements for both folds.
func (cv CrossValidation) Run(refs *entity.ReferenceLinks,
	train func(run int, trainRefs, valRefs *entity.ReferenceLinks) RunResult) Aggregated {

	var agg Aggregated
	runs := cv.Runs
	if runs <= 0 {
		runs = 1
	}
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(cv.Seed + int64(run)*7919))
		folds := SplitFolds(refs, 2, rng)
		res := train(run, folds[0], folds[1])
		agg.TrainF1.Add(res.TrainF1)
		agg.ValF1.Add(res.ValF1)
		agg.Seconds.Add(res.Seconds)
	}
	return agg
}
