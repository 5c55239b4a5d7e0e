package evalx

import (
	"cmp"
	"math"
	"slices"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
)

// PRPoint is one operating point of a precision-recall curve.
type PRPoint struct {
	// Threshold is the link-generation cutoff producing this point.
	Threshold float64
	Precision float64
	Recall    float64
	F1        float64
}

// PRCurve sweeps the link-generation threshold over the distinct scores a
// rule assigns to the reference links and reports one operating point per
// cutoff, sorted by ascending threshold. The fixed 0.5 threshold of
// Definition 3 is one point on this curve; the sweep shows how robust a
// learned rule's accuracy is to the cutoff choice.
//
// The pairs are scored by the compiled rule and sorted once; a cutoff
// predicts exactly the pairs at or above it, so one ascending pass moves
// each group of equal scores from predicted-positive to predicted-negative
// as it passes. A NaN score is below every cutoff and makes its own point,
// at which nothing is predicted positive.
func PRCurve(r *rule.Rule, refs *entity.ReferenceLinks) []PRPoint {
	type scored struct {
		score    float64
		positive bool
	}
	s := evalengine.Compile(r).Scorer()
	all := make([]scored, 0, refs.Len())
	for _, p := range refs.Positive {
		all = append(all, scored{score: s.Score(p.A, p.B), positive: true})
	}
	for _, p := range refs.Negative {
		all = append(all, scored{score: s.Score(p.A, p.B), positive: false})
	}
	if len(all) == 0 {
		return nil
	}
	// Stable: a group of equal scores, 0 and -0 among them, reports the
	// one its last pair in link order got.
	slices.SortStableFunc(all, func(a, b scored) int { return cmp.Compare(a.score, b.score) })

	var points []PRPoint
	var fn, tn int // the pairs below the cutoff
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].score == all[i].score {
			j++
		}
		t := all[j-1].score
		c := Confusion{TP: len(refs.Positive) - fn, FP: len(refs.Negative) - tn, FN: fn, TN: tn}
		if math.IsNaN(t) {
			c = Confusion{FN: len(refs.Positive), TN: len(refs.Negative)}
		}
		points = append(points, PRPoint{Threshold: t, Precision: c.Precision(), Recall: c.Recall(), F1: c.FMeasure()})
		for _, p := range all[i:j] {
			if p.positive {
				fn++
			} else {
				tn++
			}
		}
		i = j
	}
	return points
}
