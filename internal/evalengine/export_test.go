package evalengine

import (
	"math"

	"genlink/internal/entity"
	"genlink/internal/rule"
)

// MetaOfValues exposes the prefilter metadata of a value set.
func MetaOfValues(vs []string) (card, minLen, maxLen int) {
	m := metaOfValues(vs)
	return int(m.card), int(m.minLen), int(m.maxLen)
}

// RecordCount returns how many entity records s has cached.
func RecordCount(s *Scorer) int {
	n := 0
	s.records.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}

// PartialBound is the upper bound Probe.Score folds for the pair once it
// knows the exact distances of the distance programs whose bit is set in
// known (by program id), the rest at their metadata lower bounds: with
// nothing known it is Scorer.Bound, with everything known the score. It
// is +Inf when the rule has no prefilter.
func PartialBound(c *Compiled, a, b *entity.Entity, known uint64) float64 {
	if c.pf == nil {
		return math.Inf(1)
	}
	p, rb := c.Bind(c.Record(a)), c.Record(b)
	c.pf.lower(p.rec, rb, p.dists)
	for _, d := range c.dists {
		if known>>(d.id%64)&1 == 1 {
			p.dists[d.id] = p.distance(d, rb, math.Inf(1))
		}
	}
	return p.fold()
}

// SetLimits replaces e's cache bounds — the constants maxDistEntries,
// maxValueEntries and keepGenerations — so eviction bites on a test's
// small population. A zero argument keeps its constant.
func (e *Engine) SetLimits(maxDist, maxValue, keep int) {
	if maxDist != 0 {
		e.limits.maxDist = maxDist
	}
	if maxValue != 0 {
		e.limits.maxValue = maxValue
	}
	if keep != 0 {
		e.limits.keep = keep
	}
}

// RootScores evaluates r on e as one batch and returns the score the
// column fold gives each of e's reference pairs, positives first: the
// root column the batch counts links from.
func RootScores(e *Engine, r *rule.Rule) []float64 {
	e.EvaluateBatch([]*rule.Rule{r})
	out := make([]float64, e.table.numPairs())
	copy(out, e.foldRule(Compile(r), &folder{}))
	return out
}
