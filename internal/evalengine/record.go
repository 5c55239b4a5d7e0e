package evalengine

import (
	"math"
	"sync"

	"genlink/internal/entity"
)

// Record is everything scoring derives from one entity version, indexed
// by value program id: the value set each program computes and, when the
// rule has a prefilter, that set's metadata. It is built once, in one
// pass over the value programs (Compiled.Record), by whatever code stores
// the entity — a shard of the matching service installs it next to the
// entity, batch matching builds B's when it loads B — and is immutable
// afterwards, so any number of goroutines may score against it. A new
// entity version gets a new record.
type Record struct {
	e    *entity.Entity
	sets [][]string
	meta []valueMeta // nil when the rule has no prefilter
}

// Entity returns the entity version the record was built from.
func (r *Record) Entity() *entity.Entity { return r.e }

// Record evaluates every value program on e. The entity must not be
// mutated afterwards: the record would keep the old version's values.
func (c *Compiled) Record(e *entity.Entity) *Record {
	r := &Record{e: e, sets: make([][]string, len(c.values))}
	if c.pf != nil {
		r.meta = make([]valueMeta, len(c.values))
	}
	vstack := make([][]string, c.vdepth)
	for i, p := range c.values {
		r.sets[i] = p.eval(e.Values, vstack)
		if r.meta != nil {
			r.meta[i] = metaOfValues(r.sets[i])
		}
	}
	return r
}

// Probe is a compiled rule bound to one probe record, the A side of the
// rule, for the duration of one query. It holds its own scratch, so it
// must be used by one goroutine at a time; any number of probes may be
// bound to one record concurrently.
type Probe struct {
	c      *Compiled
	rec    *Record
	dists  []float64
	sstack []float64
}

// Bind prepares scoring candidates against the probe record a.
func (c *Compiled) Bind(a *Record) *Probe {
	buf := make([]float64, len(c.dists)+c.depth)
	return &Probe{c: c, rec: a, dists: buf[:len(c.dists)], sstack: buf[len(c.dists):]}
}

// Upper returns an upper bound on the probe's score against any
// candidate — what a perfect candidate could still score. Empty
// probe-side value sets force their comparisons to 0 whatever the
// candidate holds, so a probe missing the properties of high-weight
// comparisons gets a bound below threshold and its enumeration can stop
// before scoring anything. Upper dominates the pair bound Score declines
// on, and is +Inf when the rule has no prefilter.
func (p *Probe) Upper() float64 {
	if p.c.pf == nil {
		return math.Inf(1)
	}
	return p.c.pf.probeBound(p.rec, p.dists, p.sstack)
}

// bound is the prefilter's upper bound on the pair's score, +Inf when the
// rule has no prefilter.
func (p *Probe) bound(rb *Record) float64 {
	if p.c.pf == nil {
		return math.Inf(1)
	}
	return p.c.pf.bound(p.rec, rb, p.dists, p.sstack)
}

// Score scores candidate b against the probe. It returns ok == false,
// without scoring, exactly when the pair's prefilter bound is below
// floor — never when the rule has no prefilter; otherwise the score is
// identical to Rule.Evaluate on the two records' entities. A caller that
// keeps only scores ≥ floor loses nothing to the skip, because the score
// never exceeds the bound.
func (p *Probe) Score(b *Record, floor float64) (score float64, ok bool) {
	if p.bound(b) < floor {
		return 0, false
	}
	return p.c.score(p.rec, b, p.dists, p.sstack), true
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
