package evalx

import (
	"math"
	"strconv"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/rule"
	"genlink/internal/similarity"
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
