package evalengine

import (
	"math"

	"genlink/internal/entity"
)

// Predicate pushdown: a Prefilter computes a cheap, sound upper bound on
// the score a compiled rule can assign to a pair, from per-entity value
// metadata alone (rune-length range and distinct-value cardinality of
// each value program's output — no distance computation). Candidate
// enumeration uses it to drop pairs that cannot reach the match
// threshold before paying for Levenshtein matrices or token-set
// intersections, and the query path (internal/linkindex) uses the
// probe-only variant to answer without enumerating at all when even a
// perfect candidate could not reach the threshold.
//
// Soundness argument, pinned by TestMetamorphicPrefilterSoundness: each per-measure
// bound below is a lower bound on the measure's distance; scoreFromDist
// is antitone in the distance (smaller distance never lowers the score);
// min, max and nonnegatively-weighted mean are monotone in their
// operands, as is clamp01 — so folding lower-bound distances through the
// similarity program yields an upper bound on the true score. Rules the
// argument does not cover get no prefilter (Prefilter returns nil):
// opaque rules (extension operators could be anything), unknown
// aggregators, and negative aggregation weights (a weighted mean is
// antitone in a negatively-weighted operand).

// valueMeta summarizes one value program's output for an entity: enough
// to lower-bound every supported measure without looking at the values
// again. card == 0 means the empty set, which every Measure maps to +Inf
// distance (documented contract in internal/similarity); minLen/maxLen
// are rune lengths and are meaningless when card == 0.
type valueMeta struct {
	card           int
	minLen, maxLen int
}

// metaOfValues computes the metadata of a value set.
func metaOfValues(vs []string) valueMeta {
	var m valueMeta
	if len(vs) == 0 {
		return m
	}
	seen := make(map[string]struct{}, len(vs))
	for _, v := range vs {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		n := 0
		for range v {
			n++
		}
		if m.card == 0 || n < m.minLen {
			m.minLen = n
		}
		if n > m.maxLen {
			m.maxLen = n
		}
		m.card++
	}
	return m
}

// distBounder lower-bounds one distance program's distance from the two
// sides' metadata. Both sides are non-empty (card > 0) when called; the
// empty-set ⇒ +Inf case is handled before dispatch.
type distBounder func(a, b valueMeta) float64

// lenGap returns the gap between the two rune-length ranges: the minimum
// |len(x)−len(y)| over any cross pairing, 0 when the ranges overlap.
func lenGap(a, b valueMeta) int {
	if a.minLen > b.maxLen {
		return a.minLen - b.maxLen
	}
	if b.minLen > a.maxLen {
		return b.minLen - a.maxLen
	}
	return 0
}

func minMaxCard(a, b valueMeta) (lo, hi float64) {
	if a.card < b.card {
		return float64(a.card), float64(b.card)
	}
	return float64(b.card), float64(a.card)
}

// zeroBound is the trivial lower bound for measures without a sharper
// one — the prefilter still prunes their empty-set case.
func zeroBound(valueMeta, valueMeta) float64 { return 0 }

// bounderFor returns the distance lower bound of a measure, by registry
// name. Each case states its argument against the implementation in
// internal/similarity.
func bounderFor(name string) distBounder {
	switch name {
	case "levenshtein":
		// Every edit script must bridge the length difference, so
		// lev(x,y) ≥ |len(x)−len(y)| for every cross pairing.
		return func(a, b valueMeta) float64 { return float64(lenGap(a, b)) }
	case "normLevenshtein":
		// lev(x,y)/max(lx,ly) ≥ (lx−ly)/lx = 1 − ly/lx when lx > ly;
		// minimized over disjoint ranges at the longest short side and
		// shortest long side. Overlapping ranges admit equal lengths ⇒ 0.
		return func(a, b valueMeta) float64 {
			if a.minLen > b.maxLen {
				return 1 - float64(b.maxLen)/float64(a.minLen)
			}
			if b.minLen > a.maxLen {
				return 1 - float64(a.maxLen)/float64(b.minLen)
			}
			return 0
		}
	case "jaccard":
		// |A∩B| ≤ min(|A|,|B|) and |A∪B| ≥ max(|A|,|B|), with card the
		// exact distinct-value set size the measure builds.
		return func(a, b valueMeta) float64 {
			lo, hi := minMaxCard(a, b)
			return 1 - lo/hi
		}
	case "dice":
		return func(a, b valueMeta) float64 {
			lo := math.Min(float64(a.card), float64(b.card))
			return 1 - 2*lo/float64(a.card+b.card)
		}
	case "cosine":
		return func(a, b valueMeta) float64 {
			lo, hi := minMaxCard(a, b)
			return 1 - lo/math.Sqrt(lo*hi)
		}
	case "equality":
		// Strings of different rune lengths cannot be equal, so disjoint
		// length ranges force distance 1 for every cross pairing.
		return func(a, b valueMeta) float64 {
			if lenGap(a, b) > 0 {
				return 1
			}
			return 0
		}
	default:
		// numeric, geographic, date, jaro, jaroWinkler, extensions:
		// value length and cardinality say nothing about their
		// distances, so only the empty-set rule applies.
		return zeroBound
	}
}

// Prefilter bounds a compiled rule's scores from value metadata. It is
// immutable and shared like the Compiled it belongs to; callers go
// through Scorer.Bound / SharedScorer.Bound, which cache metadata per
// entity.
type Prefilter struct {
	c        *Compiled
	bounders []distBounder // per distProgram id
}

// newPrefilter derives the pushdown prefilter of a compiled rule, or nil
// when no sound bound can be stated (see the package comment above).
func newPrefilter(c *Compiled) *Prefilter {
	if c.opaque || len(c.sims) == 0 {
		return nil
	}
	for i := range c.sims {
		in := &c.sims[i]
		if in.op != sAgg {
			continue
		}
		if in.agg == nil {
			return nil
		}
		switch in.agg.Name() {
		case "min", "max", "wmean":
		default:
			return nil // unknown aggregator: monotonicity not established
		}
		for _, w := range in.weights {
			if w < 0 {
				return nil
			}
		}
	}
	pf := &Prefilter{c: c, bounders: make([]distBounder, len(c.dists))}
	for _, d := range c.dists {
		pf.bounders[d.id] = bounderFor(d.measure.Name())
	}
	return pf
}

// Prefilter returns the rule's pushdown prefilter, or nil when the rule
// admits no sound metadata-level bound (opaque rules, unknown
// aggregators, negative weights). A nil receiver is handled by the
// Scorer-level Bound methods, which degrade to the trivial bound.
func (c *Compiled) Prefilter() *Prefilter { return c.pf }

// bound folds lower-bound distances through the similarity program.
// metaA/metaB supply the per-side metadata of each distance program's
// value subtrees; dists and stack are scratch of the usual sizes.
func (pf *Prefilter) bound(metaA, metaB func(*valueProgram) valueMeta, dists, stack []float64) float64 {
	for _, d := range pf.c.dists {
		ma, mb := metaA(d.a), metaB(d.b)
		if ma.card == 0 || mb.card == 0 {
			dists[d.id] = math.Inf(1)
			continue
		}
		dists[d.id] = pf.bounders[d.id](ma, mb)
	}
	return pf.c.fold(dists, stack)
}

// probeBound folds the one-sided bound: the A side's metadata is known,
// the B side is a hypothetical best-case candidate (distance lower bound
// 0 everywhere the probe side is non-empty).
func (pf *Prefilter) probeBound(metaA func(*valueProgram) valueMeta, dists, stack []float64) float64 {
	for _, d := range pf.c.dists {
		if metaA(d.a).card == 0 {
			dists[d.id] = math.Inf(1)
			continue
		}
		dists[d.id] = 0
	}
	return pf.c.fold(dists, stack)
}

// ---------------------------------------------------------------------------
// Scorer integration

// HasPrefilter reports whether Bound can ever prune (the rule admits a
// sound metadata-level bound).
func (s *Scorer) HasPrefilter() bool { return s.c.pf != nil }

// Bound returns an upper bound on Score(a, b), computed from cached
// per-entity value metadata without evaluating any distance. Without a
// prefilter it returns 1 (every score is ≤ 1 after aggregation; a bare
// comparison also never exceeds 1), which prunes nothing.
func (s *Scorer) Bound(a, b *entity.Entity) float64 {
	pf := s.c.pf
	if pf == nil {
		return 1
	}
	return pf.bound(
		func(p *valueProgram) valueMeta { return s.metaSet(p, a) },
		func(p *valueProgram) valueMeta { return s.metaSet(p, b) },
		s.dists, s.sstack,
	)
}

// metaSet returns the memoized value metadata of a value program for an
// entity.
func (s *Scorer) metaSet(p *valueProgram, e *entity.Entity) valueMeta {
	m := s.meta[p.id]
	if v, ok := m[e]; ok {
		return v
	}
	v := metaOfValues(s.valueSet(p, e))
	m[e] = v
	return v
}

// HasPrefilter reports whether Bound and ProbeBound can ever prune.
func (s *SharedScorer) HasPrefilter() bool { return s.c.pf != nil }

// Bound returns an upper bound on Score(a, b) like Scorer.Bound, safe
// for concurrent use.
func (s *SharedScorer) Bound(a, b *entity.Entity) float64 {
	pf := s.c.pf
	if pf == nil {
		return 1
	}
	sc := s.pool.Get().(*scorerScratch)
	defer s.pool.Put(sc)
	return pf.bound(
		func(p *valueProgram) valueMeta { return s.metaSet(p, a, sc) },
		func(p *valueProgram) valueMeta { return s.metaSet(p, b, sc) },
		sc.dists, sc.sstack,
	)
}

// ProbeBound returns an upper bound on Score(a, b) over every possible
// b — what a perfect candidate could still score against this probe
// (the A side of the rule). Empty probe-side value sets force their
// comparisons to 0 whatever the candidate holds, so a probe missing the
// properties of high-weight comparisons gets a bound below threshold and
// its enumeration can stop before scoring anything. Returns 1 when the
// rule has no prefilter.
func (s *SharedScorer) ProbeBound(a *entity.Entity) float64 {
	pf := s.c.pf
	if pf == nil {
		return 1
	}
	sc := s.pool.Get().(*scorerScratch)
	defer s.pool.Put(sc)
	return pf.probeBound(
		func(p *valueProgram) valueMeta { return s.metaSet(p, a, sc) },
		sc.dists, sc.sstack,
	)
}

// metaSet returns the memoized value metadata of a value program for an
// entity. Like valueSet, concurrent duplicate computation stores equal
// results.
func (s *SharedScorer) metaSet(p *valueProgram, e *entity.Entity, sc *scorerScratch) valueMeta {
	m := &s.meta[p.id]
	if v, ok := m.Load(e); ok {
		return v.(valueMeta)
	}
	v := metaOfValues(s.valueSet(p, e, sc))
	m.Store(e, v)
	return v
}
