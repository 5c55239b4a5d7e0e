package evalengine

import (
	"math"
	"sync"

	"genlink/internal/entity"
	"genlink/internal/similarity"
)

// Record is everything scoring derives from one entity version, indexed
// by value program id: the value set each program computes and, when the
// rule has a prefilter, that set's metadata — and, next to the value
// sets, the typed form each prepared measure of the rule compares them
// in (parsed dates, numbers and coordinates, sorted distinct tokens), so
// scoring a candidate against the record parses nothing. It is built
// once, in one pass over the value programs (Compiled.Record), by
// whatever code stores the entity — a shard of the matching service
// installs it next to the entity, batch matching builds B's when it
// loads B — and is immutable afterwards, so any number of goroutines may
// score against it. A new entity version gets a new record. It keeps the
// entity's ID, not the entity: the version's properties are needed only
// while the record is built.
//
// While the rule has at most inlineSlots value programs and typed forms,
// the record holds meta, sets and typed in its own storage: Probe.Score
// reads a candidate's record for every candidate, so one allocation holds
// it all, with the metadata it reads first at the front.
type Record struct {
	meta     []valueMeta // nil when the rule has no prefilter
	metaBuf  [inlineSlots]valueMeta
	sets     [][]string
	typed    []similarity.Column // per Compiled.typed: a one-set column
	setsBuf  [inlineSlots][]string
	typedBuf [inlineSlots]similarity.Column
	id       string
}

// inlineSlots is the number of value programs and of typed forms a
// record keeps inside itself; the rig's rule has three and two.
const inlineSlots = 4

// slots returns buf[:n] when n fits in it, and a new slice otherwise.
func slots[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// ID returns the ID of the entity version the record was built from.
func (r *Record) ID() string { return r.id }

// Record evaluates every value program on e and prepares the typed forms
// of their outputs. The entity must not be mutated afterwards: the
// record would keep the old version's values.
func (c *Compiled) Record(e *entity.Entity) *Record {
	return c.RecordOf(e.ID, e.Values)
}

// RecordOf is Record of the entity version with the given ID whose
// property values values returns, as Entity.Values does: a store that
// holds a version as its decoded bytes (entity.Encoded) builds the
// record without building the entity.
func (c *Compiled) RecordOf(id string, values func(property string) []string) *Record {
	r := &Record{id: id}
	r.sets = slots(r.setsBuf[:], len(c.values))
	if c.pf != nil {
		r.meta = slots(r.metaBuf[:], len(c.values))
	}
	vstack := make([][]string, c.vdepth)
	for i, p := range c.values {
		r.sets[i] = p.eval(values, vstack)
		if r.meta != nil {
			r.meta[i] = metaOfValues(r.sets[i])
		}
	}
	if len(c.typed) > 0 {
		r.typed = slots(r.typedBuf[:], len(c.typed))
		for i, t := range c.typed {
			r.typed[i] = t.m.NewColumn(1)
			r.typed[i].Prepare(0, r.sets[t.value])
		}
	}
	return r
}

// Probe is a compiled rule bound to one probe record, the A side of the
// rule, for the duration of one query. It holds its own scratch and the
// probe's edit-distance patterns, so it must be used by one goroutine at
// a time; any number of probes may be bound to one record concurrently.
type Probe struct {
	pairFold // the pair's distances, folded in place
	rec      *Record
	pats     []func(text []string, k float64) float64 // per distProgram id, built on second use
	edited   bool                                     // an edit distance has been computed
}

// Bind prepares scoring candidates against the probe record a. The probe
// is always the pattern of an edit distance and a candidate the text: the
// Myers match masks of the probe's values are built once, when a second
// candidate reaches that distance. The first goes through the measure's
// Within, whose masks live on the stack, so a probe that scores one
// candidate (Scorer.Score) allocates none, and a probe that Upper answers
// or every candidate of which is declined earlier builds none.
func (c *Compiled) Bind(a *Record) *Probe {
	return &Probe{pairFold: c.newPairFold(), rec: a}
}

// Upper returns an upper bound on the probe's score against any
// candidate — what a perfect candidate could still score. Empty
// probe-side value sets force their comparisons to 0 whatever the
// candidate holds, so a probe missing the properties of high-weight
// comparisons gets a bound below threshold and its enumeration can stop
// before scoring anything. Upper dominates the pair bound Score starts
// from, and is +Inf when the rule has no prefilter.
func (p *Probe) Upper() float64 {
	if p.c.pf == nil {
		return math.Inf(1)
	}
	return p.c.pf.probeBound(p.rec, &p.pairFold)
}

// bound is the prefilter's upper bound on the pair's score, +Inf when the
// rule has no prefilter.
func (p *Probe) bound(rb *Record) float64 {
	if p.c.pf == nil {
		return math.Inf(1)
	}
	p.c.pf.lower(p.rec, rb, p.dists)
	return p.fold()
}

// Score scores candidate b against the probe, computing only as much as
// floor needs. It starts from the prefilter bound, which folds the
// distances' metadata lower bounds, and computes the exact distances in
// the order fixed at compile time (rankOf), re-folding after each: every
// fold is an upper bound on the score, tightened comparison by
// comparison, and Score declines (ok == false) as soon as one is
// strictly below floor — before computing anything when the prefilter
// bound already is. Before the edit distance it asks for no more than
// the largest distance that can still reach floor (cutoff), so the
// Levenshtein abandons a candidate that cannot. A declined candidate's
// score is below floor; an accepted candidate's score is bit-identical
// to Rule.Evaluate on the two records' entities. Without a prefilter, or
// at floor −Inf, nothing is bounded and nothing declined. A caller that keeps only
// scores ≥ floor therefore loses nothing to a decline. Score parses no
// value and builds no mask per candidate: the typed forms come with the
// records, and the probe's patterns are built once, by the second
// candidate that reaches the edit distance. After that it allocates
// nothing.
func (p *Probe) Score(b *Record, floor float64) (score float64, ok bool) {
	c, dists := p.c, p.dists
	if c.pf == nil || math.IsInf(floor, -1) {
		// Nothing bounds the score, or no score is below the floor:
		// every distance in full, one fold.
		for _, d := range c.order {
			dists[d.id] = p.distance(d, b, math.Inf(1))
		}
		return p.fold(), true
	}
	c.pf.lower(p.rec, b, dists)
	bound := p.fold()
	for _, d := range c.order {
		if bound < floor {
			return 0, false
		}
		if math.IsInf(dists[d.id], 1) {
			continue // an empty side: the lower bound is the distance
		}
		k := math.Inf(1)
		if d.cutoff {
			k = p.cutoff(d, b, floor)
		}
		dists[d.id] = p.distance(d, b, k)
		bound = p.fold()
	}
	if bound < floor {
		return 0, false
	}
	return bound, true
}

// distance computes d's distance between the probe and b: over the typed
// forms for a prepared measure, for an edit distance from the probe's
// pattern — or, for the probe's first, through Within (see Bind) — exact
// up to k and above k past it, and over the value sets otherwise.
func (p *Probe) distance(d *distProgram, b *Record, k float64) float64 {
	switch {
	case d.ta >= 0:
		return p.rec.typed[d.ta].Distance(0, b.typed[d.tb], 0)
	case d.pattern:
		if p.pats == nil {
			if !p.edited {
				p.edited = true
				return d.measure.(patterned).Within(p.rec.sets[d.a.id], b.sets[d.b.id], k)
			}
			p.pats = make([]func([]string, float64) float64, len(p.c.dists))
		}
		within := p.pats[d.id]
		if within == nil {
			within = d.measure.(patterned).Pattern(p.rec.sets[d.a.id])
			p.pats[d.id] = within
		}
		return within(b.sets[d.b.id], k)
	default:
		return d.measure.Distance(p.rec.sets[d.a.id], b.sets[d.b.id])
	}
}

// cutoff returns the largest edit distance k for d at which the pair can
// still reach floor, given p.dists — exact where computed, metadata lower
// bounds elsewhere, d's own lower bound included. It is found by
// bisection over the integers on the fold itself, which is antitone in
// every distance, and is conservative by construction: the fold with d
// at k + 1 is strictly below floor, so a distance the Levenshtein reports
// as above k declines the candidate. k never exceeds what an exact score
// needs, the largest of d's thresholds (every distance above it folds
// alike), nor what the distance can reach, the longest value on either
// side; at those it stops bounding anything. p.dists is left as found.
func (p *Probe) cutoff(d *distProgram, b *Record, floor float64) float64 {
	dists, lb := p.dists, p.dists[d.id]
	top := float64(max(p.rec.meta[d.a.id].maxLen, b.meta[d.b.id].maxLen))
	if d.theta < top {
		top = max(0, math.Floor(d.theta))
	}
	k := top
	if dists[d.id] = top + 1; p.fold() < floor {
		// fold(lo) ≥ floor (Score has not declined) and fold(hi) < floor.
		lo, hi := lb, top+1
		for hi-lo > 1 {
			mid := math.Floor((lo + hi) / 2)
			if dists[d.id] = mid; p.fold() < floor {
				hi = mid
			} else {
				lo = mid
			}
		}
		k = lo
	}
	dists[d.id] = lb
	return k
}

// Scorer scores arbitrary entity pairs for callers that hold no records:
// it builds each entity's record on first use and keeps it in a
// lock-free map, so entities that appear in many pairs pay for their
// transformation chains once. It is safe for concurrent use. Entities
// are keyed by pointer: after mutating one in place, Invalidate it.
type Scorer struct {
	c       *Compiled
	records sync.Map // *entity.Entity → *Record
}

// Scorer returns a fresh scorer over the compiled rule.
func (c *Compiled) Scorer() *Scorer { return &Scorer{c: c} }

// SharedScorer and NewSharedScorer are the pre-Record names of Scorer,
// kept only because the benchmark rig (benchmark/layers.go) still calls
// them; they go when the rig next changes (ROADMAP item 1).
type SharedScorer = Scorer

// NewSharedScorer is Scorer.
func (c *Compiled) NewSharedScorer() *Scorer { return c.Scorer() }

// record returns the cached record of e, building it on a miss. Records
// are pure functions of the entity, so two goroutines racing on a miss
// store equal values.
func (s *Scorer) record(e *entity.Entity) *Record {
	if r, ok := s.records.Load(e); ok {
		return r.(*Record)
	}
	r := s.c.Record(e)
	s.records.Store(e, r)
	return r
}

// Invalidate drops the cached record of e. Call it whenever e's
// properties change or e is no longer scored; without it the scorer
// would keep serving value sets computed from the old version (or pin e
// in memory).
func (s *Scorer) Invalidate(e *entity.Entity) {
	s.records.Delete(e)
}

// Score returns the similarity the rule assigns to the pair, identical to
// Rule.Evaluate(a, b).
func (s *Scorer) Score(a, b *entity.Entity) float64 {
	score, _ := s.c.Bind(s.record(a)).Score(s.record(b), math.Inf(-1))
	return score
}

// Bound returns an upper bound on Score(a, b), computed from the records'
// value metadata without evaluating any distance. Without a prefilter it
// returns +Inf, which prunes nothing.
func (s *Scorer) Bound(a, b *entity.Entity) float64 {
	if s.c.pf == nil {
		return math.Inf(1)
	}
	return s.c.Bind(s.record(a)).bound(s.record(b))
}
