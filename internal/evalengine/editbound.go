package evalengine

import (
	"math"

	"genlink/internal/similarity"
)

// EditBound is a necessary condition a compiled rule places on a pair at
// a score threshold T: one of its levenshtein distances, between the
// A side's value set and the B side's, is at most K on every pair that
// scores ≥ T. A matcher can therefore drop, before scoring, every
// candidate whose B-side values are all further than K from the probe's
// A-side values — with similarity's segment keys (EditSegmentKeys,
// EditProbeKeys), without computing a distance — and lose no link.
type EditBound struct {
	// K is the largest edit distance at which a pair can still reach T.
	K    int
	a, b *valueProgram // the distance's two sides
}

// maxEditBound is the loosest bound EditBound reports: the benchmark
// rule's K = 6, measured to pay. BenchmarkQueryCoraRule's stored-ID
// query (cora-x, 10⁴ entities, 2 shards, GOMAXPROCS=1, 2-core Xeon,
// medians of 3 runs), with the rule's title θ loosened to give each K,
// filtered against unfiltered: K = 6 0.22 against 1.06 ms, K = 8 0.34
// against 1.12, K = 12 1.00 against 1.45, and K = 15 2.34 against 1.65.
// A looser bound has O(K³) probe keys per value over shorter segments
// that more stored values share, until the filter costs more than it
// saves. Re-measured with the letter-count sketch in front of Myers
// (similarity.SketchBound) on the same query at θ 8, 11 and 16, at 10⁴
// and 10⁵ entities: the rule index against the multipass blocker serving
// the same rule, 2 runs each, µs per query:
//
//	K   n     rule index     blocker
//	6   10⁴   74, 75         979, 1,024
//	8   10⁴   167, 175       1,092, 1,160
//	12  10⁴   625, 853       1,135, 1,449
//	6   10⁵   321, 317       13,742, 11,241
//	8   10⁵   878, 873       14,762, 15,630
//	12  10⁵   7,224, 7,768   22,252, 20,161
//
// The rule index now wins at K = 12 too, at both sizes. Raising the cap
// moves which learned rules are served from a rule index, so it is a
// change of its own, taken with the experiments' golden tables. Raise it
// only with that benchmark on both sides of the new value, at 10⁵
// entities too.
const maxEditBound = 6

// EditBound derives the rule's necessary edit-distance bound at
// threshold and reports false when there is none, or none within
// maxEditBound. A levenshtein distance program d bounds the rule at k when
// the fold with d at k + 1 and every other distance at 0, its best case,
// is below the threshold: every distance is non-negative and the fold is
// antitone in each (the prefilter's soundness argument, prefilter.go),
// so no pair further than k can reach it, and an edit distance is an
// integer. For each d the least such k is found by bisection on the
// fold, as Probe.cutoff finds its per-candidate bound; the smallest k
// over the qualifying programs wins. The bound exists only when the rule
// has a prefilter (non-negative weights, no NaN threshold) and the
// threshold is not reached without any edit-distance evidence, where
// Probe.Upper already answers. It is derived on demand, not in Compile:
// the learner compiles thousands of rules a generation and matches none.
func (c *Compiled) EditBound(threshold float64) (EditBound, bool) {
	best := EditBound{K: -1}
	if c.pf == nil {
		return best, false
	}
	f := c.newPairFold()
	dists := f.dists
	foldAt := func(d *distProgram, x float64) float64 {
		dists[d.id] = x
		return f.fold()
	}
	for _, d := range c.dists {
		if !d.cutoff {
			continue
		}
		// fold(lo) ≥ threshold and fold(hi) < threshold throughout.
		lo, hi := 0.0, float64(maxEditBound)+1
		if foldAt(d, lo) < threshold || foldAt(d, hi) >= threshold {
			dists[d.id] = 0
			continue
		}
		for hi-lo > 1 {
			mid := math.Floor((lo + hi) / 2)
			if foldAt(d, mid) < threshold {
				hi = mid
			} else {
				lo = mid
			}
		}
		dists[d.id] = 0
		if k := int(lo); best.K < 0 || k < best.K {
			best = EditBound{K: k, a: d.a, b: d.b}
		}
	}
	return best, best.K >= 0
}

// Probe returns the value set of r the bound's distance reads on the
// A side: the probe's side of a query.
func (eb EditBound) Probe(r *Record) []string { return r.sets[eb.a.id] }

// Indexed returns the value set of r the bound's distance reads on the B
// side, the side of the stored entities a query's candidates are: the
// set a writer keys a stored entity's record by, and the one Within
// checks.
func (eb EditBound) Indexed(r *Record) []string { return r.sets[eb.b.id] }

// Within returns the bound's check for the probe record r: whether a
// stored entity whose Indexed values, as an EditSet, are the argument is
// within K edits of r's Probe values, the necessary condition for the
// pair to reach the threshold. It is the levenshtein measure's bounded
// distance behind its letter-count sketch (similarity.EditWithin): a
// value pair whose sketches are further than K apart is rejected without
// reading the stored value, and any other runs Myers' distance, built
// here once for r's values, which abandons the pair as soon as it is
// further than K. It keeps those patterns' state, so it must be used by
// one goroutine at a time.
func (eb EditBound) Within(r *Record) func(indexed similarity.EditSet) bool {
	return similarity.EditWithin(eb.Probe(r), eb.K)
}
