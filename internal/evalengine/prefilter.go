package evalengine

import (
	"math"
	"unicode/utf8"

	"genlink/internal/entity"
	"genlink/internal/similarity"
)

// Predicate pushdown: a Prefilter computes a cheap, sound upper bound on
// the score a compiled rule can assign to a pair, from per-entity value
// metadata alone (rune-length range and distinct-value cardinality of
// each value program's output — no distance computation). Candidate
// enumeration uses it to drop pairs that cannot reach the match
// threshold before paying for edit distances or token-set
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

// metaOfValues computes the metadata of a value set. The cardinality is
// the set measures' own (similarity.Cardinality, allocation-free for the
// short value lists properties hold); duplicates share a length, so the
// length range needs no deduplication.
func metaOfValues(vs []string) valueMeta {
	if len(vs) == 0 {
		return valueMeta{}
	}
	m := valueMeta{card: similarity.Cardinality(vs), minLen: math.MaxInt}
	for _, v := range vs {
		n := utf8.RuneCountInString(v)
		m.minLen = min(m.minLen, n)
		m.maxLen = max(m.maxLen, n)
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
// through the scorers (Scorer.Bound, SharedScorer.Bound, Probe.Score),
// whose per-entity records carry the metadata.
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
// aggregators, negative weights). Without one the scorers' Bound methods
// return +Inf: nothing caps the score.
func (c *Compiled) Prefilter() *Prefilter { return c.pf }

// bound folds lower-bound distances through the similarity program from
// the metadata of both sides' records; dists and stack are scratch of the
// usual sizes.
func (pf *Prefilter) bound(ra, rb *record, dists, stack []float64) float64 {
	for _, d := range pf.c.dists {
		ma, mb := ra.meta[d.a.id], rb.meta[d.b.id]
		if ma.card == 0 || mb.card == 0 {
			dists[d.id] = math.Inf(1)
			continue
		}
		dists[d.id] = pf.bounders[d.id](ma, mb)
	}
	return pf.c.fold(dists, stack)
}

// probeBound folds the one-sided bound: the A side's record is known,
// the B side is a hypothetical best-case candidate (distance lower bound
// 0 everywhere the probe side is non-empty).
func (pf *Prefilter) probeBound(ra *record, dists, stack []float64) float64 {
	for _, d := range pf.c.dists {
		if ra.meta[d.a.id].card == 0 {
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

// Bound returns an upper bound on Score(a, b), computed from the cached
// records' value metadata without evaluating any distance. Without a
// prefilter it returns +Inf, which prunes nothing, so every candidate is
// scored: compiled operators score in [0, 1], but an opaque rule's
// extension operators may score above 1.
func (s *Scorer) Bound(a, b *entity.Entity) float64 {
	if s.c.pf == nil {
		return math.Inf(1)
	}
	return s.c.pf.bound(s.record(a), s.record(b), s.dists, s.sstack)
}
