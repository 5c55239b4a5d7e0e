package evalx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// scoreRule assigns 1 − d/θ over a numeric "score" property, giving fully
// controllable scores for curve tests.
func scoreRule() *rule.Rule {
	return rule.New(rule.NewComparison(
		rule.NewProperty("v"), rule.NewProperty("v"),
		similarity.Numeric(), 10))
}

func pairWithDistance(d float64, positive bool) entity.Pair {
	a := entity.New("a")
	a.Add("v", "0")
	b := entity.New("b")
	b.Add("v", strconv.FormatFloat(d, 'f', -1, 64))
	_ = positive
	return entity.Pair{A: a, B: b}
}

func TestPRCurveSeparatesClasses(t *testing.T) {
	refs := &entity.ReferenceLinks{}
	// Positives at distances 0..2 (scores 1.0, 0.9, 0.8), negatives at
	// 8..9 (scores 0.2, 0.1).
	for d := 0; d <= 2; d++ {
		refs.Positive = append(refs.Positive, pairWithDistance(float64(d), true))
	}
	for d := 8; d <= 9; d++ {
		refs.Negative = append(refs.Negative, pairWithDistance(float64(d), false))
	}
	points := PRCurve(scoreRule(), refs)
	if len(points) != 5 {
		t.Fatalf("points = %d, want 5 distinct scores", len(points))
	}
	best := bestF1(points)
	if best.F1 != 1 {
		t.Fatalf("separable classes must reach F1 1, got %+v", best)
	}
	// At the lowest threshold everything is predicted positive:
	// precision = 3/5, recall = 1.
	lowest := points[0]
	if math.Abs(lowest.Precision-0.6) > 1e-12 || lowest.Recall != 1 {
		t.Fatalf("lowest threshold point = %+v", lowest)
	}
	if ap := averagePrecision(points); ap < 0.99 {
		t.Fatalf("average precision = %v for separable data", ap)
	}
}

func TestPRCurveOverlapping(t *testing.T) {
	refs := &entity.ReferenceLinks{}
	// Interleaved scores: pos at 1, 3, neg at 2, 4.
	refs.Positive = append(refs.Positive, pairWithDistance(1, true), pairWithDistance(3, true))
	refs.Negative = append(refs.Negative, pairWithDistance(2, false), pairWithDistance(4, false))
	points := PRCurve(scoreRule(), refs)
	best := bestF1(points)
	if best.F1 >= 1 {
		t.Fatal("overlapping classes cannot reach perfect F1")
	}
	if ap := averagePrecision(points); ap <= 0 || ap > 1 {
		t.Fatalf("average precision out of range: %v", ap)
	}
}

func TestPRCurveEmpty(t *testing.T) {
	if PRCurve(scoreRule(), &entity.ReferenceLinks{}) != nil {
		t.Fatal("empty links should give empty curve")
	}
	if bestF1(nil).F1 != 0 {
		t.Fatal("bestF1 of empty curve")
	}
	if averagePrecision(nil) != 0 {
		t.Fatal("AP of empty curve")
	}
}

func TestPRCurveMonotoneThresholds(t *testing.T) {
	refs := perfectRefs(10)
	r := rule.New(rule.NewComparison(rule.NewProperty("p"), rule.NewProperty("p"), similarity.Levenshtein(), 1))
	points := PRCurve(r, refs)
	for i := 1; i < len(points); i++ {
		if points[i].Threshold <= points[i-1].Threshold {
			t.Fatal("thresholds must be strictly ascending")
		}
	}
}

// prCurveTreeWalk is the reference PRCurve: every pair scored by the
// interpreted Rule.Evaluate, every pair re-counted at every distinct score.
func prCurveTreeWalk(r *rule.Rule, refs *entity.ReferenceLinks) []PRPoint {
	type scored struct {
		score    float64
		positive bool
	}
	all := make([]scored, 0, refs.Len())
	for _, p := range refs.Positive {
		all = append(all, scored{score: r.Evaluate(p.A, p.B), positive: true})
	}
	for _, p := range refs.Negative {
		all = append(all, scored{score: r.Evaluate(p.A, p.B), positive: false})
	}
	if len(all) == 0 {
		return nil
	}
	uniq := make(map[float64]struct{}, len(all))
	for _, s := range all {
		uniq[s.score] = struct{}{}
	}
	thresholds := make([]float64, 0, len(uniq))
	for t := range uniq {
		thresholds = append(thresholds, t)
	}
	sort.Float64s(thresholds)
	points := make([]PRPoint, 0, len(thresholds))
	for _, t := range thresholds {
		var c Confusion
		for _, s := range all {
			predicted := s.score >= t
			switch {
			case predicted && s.positive:
				c.TP++
			case predicted && !s.positive:
				c.FP++
			case !predicted && s.positive:
				c.FN++
			default:
				c.TN++
			}
		}
		points = append(points, PRPoint{Threshold: t, Precision: c.Precision(), Recall: c.Recall(), F1: c.FMeasure()})
	}
	return points
}

// randomCurveRule draws a rule whose scores tie often: comparisons over
// a few short values, thresholds that are 0, NaN or small, and weighted
// means with zero and negative weights (which can score -0).
func randomCurveRule(rng *rand.Rand, depth int) rule.SimilarityOp {
	props := []string{"name", "year", "tags"}
	measures := []similarity.Measure{similarity.Levenshtein(), similarity.Jaccard(), similarity.Numeric(), similarity.Equality()}
	if depth == 0 || rng.Intn(3) == 0 {
		var a, b rule.ValueOp = rule.NewProperty(props[rng.Intn(len(props))]), rule.NewProperty(props[rng.Intn(len(props))])
		if rng.Intn(2) == 0 {
			a = rule.NewTransform(transform.Tokenize(), a)
		}
		threshold := []float64{0, 0.5, 1, 2, 3, math.NaN()}[rng.Intn(6)]
		c := rule.NewComparison(a, b, measures[rng.Intn(len(measures))], threshold)
		c.SetWeight(rng.Intn(4) - 1)
		return c
	}
	ops := make([]rule.SimilarityOp, 1+rng.Intn(3))
	for i := range ops {
		ops[i] = randomCurveRule(rng, depth-1)
	}
	agg := rule.NewAggregation(rule.CoreAggregators()[rng.Intn(3)], ops...)
	agg.SetWeight(rng.Intn(3))
	return agg
}

// TestPRCurveMatchesTreeWalk pins PRCurve — compiled scoring, one sorted
// sweep — to prCurveTreeWalk bit for bit on random rules and link sets,
// ties, NaN and negative-zero scores included.
func TestPRCurveMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	values := []string{"", "a", "ab", "abc", "1", "2", "3.5", "a b", "b c a"}
	entityOf := func(id string) *entity.Entity {
		e := entity.New(id)
		for _, p := range []string{"name", "year", "tags"} {
			for n := rng.Intn(3); n > 0; n-- {
				e.Add(p, values[rng.Intn(len(values))])
			}
		}
		return e
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 300; trial++ {
		r := rule.New(randomCurveRule(rng, 2))
		refs := &entity.ReferenceLinks{}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			p := entity.Pair{A: entityOf(fmt.Sprintf("a%d", i)), B: entityOf(fmt.Sprintf("b%d", i))}
			if rng.Intn(2) == 0 {
				refs.Positive = append(refs.Positive, p)
			} else {
				refs.Negative = append(refs.Negative, p)
			}
		}
		got, want := PRCurve(r, refs), prCurveTreeWalk(r, refs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d points, tree-walk %d\nrule: %s", trial, len(got), len(want), r.Render())
		}
		for i := range got {
			g, w := got[i], want[i]
			if !same(g.Threshold, w.Threshold) || !same(g.Precision, w.Precision) || !same(g.Recall, w.Recall) || !same(g.F1, w.F1) {
				t.Fatalf("trial %d point %d: %+v, tree-walk %+v\nrule: %s", trial, i, g, w, r.Render())
			}
		}
	}
}

// bestF1 returns the curve point with the highest F-measure (earliest on
// ties), or a zero point for an empty curve.
func bestF1(points []PRPoint) PRPoint {
	var best PRPoint
	for _, p := range points {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best
}

// averagePrecision computes the area under the precision-recall curve by
// the standard step-wise interpolation over descending thresholds.
func averagePrecision(points []PRPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	// Walk from the highest threshold (lowest recall) to the lowest.
	var ap, prevRecall float64
	for i := len(points) - 1; i >= 0; i-- {
		p := points[i]
		if p.Recall > prevRecall {
			ap += (p.Recall - prevRecall) * p.Precision
			prevRecall = p.Recall
		}
	}
	return ap
}
