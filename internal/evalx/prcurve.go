package evalx

import (
	"sort"

	"genlink/internal/entity"
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
func PRCurve(r *rule.Rule, refs *entity.ReferenceLinks) []PRPoint {
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
	// Candidate thresholds: every distinct score.
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
		points = append(points, PRPoint{
			Threshold: t,
			Precision: c.Precision(),
			Recall:    c.Recall(),
			F1:        c.FMeasure(),
		})
	}
	return points
}
