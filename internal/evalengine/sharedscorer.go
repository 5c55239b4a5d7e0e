package evalengine

import (
	"math"
	"sync"

	"genlink/internal/entity"
)

// SharedScorer scores entity pairs against a compiled rule like Scorer,
// but is safe for concurrent use by any number of goroutines. It keeps one
// lock-free map from entity to record — every value program's value set
// and prefilter metadata, built in one pass — so scoring a pair costs one
// cache load per side, and there are no per-program maps. It exists for
// long-lived serving contexts — the incremental link index queries one
// shared scorer per shard from every request handler — where entities are
// mutable: Invalidate drops an entity's record after it is updated or
// removed, so the cache never serves values computed from a superseded
// version.
//
// A query binds its probe once (Bind) and scores every candidate through
// the handle, which loads only the candidate's record. The probe's record
// is cached like any other entity's when the probe is stored in the
// scorer's corpus; an external probe's record lives only in the handle, so
// the cache holds records of stored entities and nothing else.
//
// Scores are identical to Scorer.Score and Rule.Evaluate (value programs
// are pure, so concurrent duplicate construction of the same record is
// harmless and both writers store equal values).
type SharedScorer struct {
	c       *Compiled
	records sync.Map // *entity.Entity → *record
	pool    sync.Pool
}

// scorerScratch is the per-call evaluation workspace.
type scorerScratch struct {
	vstack [][]string
	sstack []float64
	dists  []float64
}

func (c *Compiled) newScratch() *scorerScratch {
	return &scorerScratch{
		vstack: make([][]string, c.vdepth),
		sstack: make([]float64, c.depth),
		dists:  make([]float64, len(c.dists)),
	}
}

// NewSharedScorer returns a concurrency-safe scorer over the compiled
// rule. Prefer Scorer for single-goroutine batch work: it avoids the
// synchronized map and pool on every lookup.
func (c *Compiled) NewSharedScorer() *SharedScorer {
	s := &SharedScorer{c: c}
	s.pool.New = func() any { return c.newScratch() }
	return s
}

// record returns the cached record of an entity, building and caching it
// on a miss.
func (s *SharedScorer) record(e *entity.Entity, vstack [][]string) *record {
	if r, ok := s.records.Load(e); ok {
		return r.(*record)
	}
	r := s.c.newRecord(e, vstack)
	s.records.Store(e, r)
	return r
}

// Invalidate drops the cached record of e. Call it whenever e's
// properties change or e leaves the corpus; without it the cache would
// keep serving value sets computed from the old version (or pin a removed
// entity in memory).
func (s *SharedScorer) Invalidate(e *entity.Entity) {
	s.records.Delete(e)
}

// Score returns the similarity the rule assigns to the pair, identical to
// Rule.Evaluate(a, b), caching both sides' records. Safe for concurrent
// use. It is a one-candidate query through a probe handle on pooled
// scratch; a query scoring many candidates against one probe binds it
// instead.
func (s *SharedScorer) Score(a, b *entity.Entity) float64 {
	sc := s.pool.Get().(*scorerScratch)
	defer s.pool.Put(sc)
	p := s.bind(a, true, sc)
	score, _ := p.Score(b, math.Inf(-1))
	return score
}

// Bound returns an upper bound on Score(a, b) like Scorer.Bound, caching
// both sides' records: +Inf when the rule has no prefilter. Safe for
// concurrent use.
func (s *SharedScorer) Bound(a, b *entity.Entity) float64 {
	if s.c.pf == nil {
		return math.Inf(1)
	}
	sc := s.pool.Get().(*scorerScratch)
	defer s.pool.Put(sc)
	p := s.bind(a, true, sc)
	return p.bound(s.record(b, sc.vstack))
}

// Probe is a SharedScorer bound to one probe entity, the A side of the
// rule, for the duration of one query. It holds the probe's record and
// its own scratch, so it must be used by one goroutine at a time; any
// number of probes may be bound to one scorer concurrently.
type Probe struct {
	s   *SharedScorer
	a   *entity.Entity
	rec *record // nil for opaque rules
	sc  *scorerScratch
}

// Bind prepares scoring candidates against probe a. stored says whether a
// belongs to the scorer's corpus, i.e. whether the caller invalidates it
// when it changes or leaves; only then is its record cached for later
// queries. An external probe's record is built into the handle and never
// enters the cache, so nothing needs invalidating after the query.
func (s *SharedScorer) Bind(a *entity.Entity, stored bool) *Probe {
	p := s.bind(a, stored, s.c.newScratch())
	return &p
}

// bind is Bind over caller-provided scratch.
func (s *SharedScorer) bind(a *entity.Entity, stored bool, sc *scorerScratch) Probe {
	p := Probe{s: s, a: a, sc: sc}
	switch {
	case s.c.opaque:
	case stored:
		p.rec = s.record(a, sc.vstack)
	default:
		p.rec = s.c.newRecord(a, sc.vstack)
	}
	return p
}

// Upper returns an upper bound on Score(a, b) over every possible b —
// what a perfect candidate could still score against the probe. Empty
// probe-side value sets force their comparisons to 0 whatever the
// candidate holds, so a probe missing the properties of high-weight
// comparisons gets a bound below threshold and its enumeration can stop
// before scoring anything. Upper dominates Bound(a, b) for every b, and
// is +Inf when the rule has no prefilter.
func (p *Probe) Upper() float64 {
	pf := p.s.c.pf
	if pf == nil {
		return math.Inf(1)
	}
	return pf.probeBound(p.rec, p.sc.dists, p.sc.sstack)
}

// bound is Bound(a, b) from b's record: +Inf when the rule has no
// prefilter, because then nothing caps the score — an opaque rule's
// extension operators may score above 1.
func (p *Probe) bound(rb *record) float64 {
	pf := p.s.c.pf
	if pf == nil {
		return math.Inf(1)
	}
	return pf.bound(p.rec, rb, p.sc.dists, p.sc.sstack)
}

// Score scores candidate b against the probe, loading b's record once for
// both the bound and the score. It returns ok == false, without scoring,
// exactly when Bound(a, b) < floor — never when the rule has no
// prefilter; otherwise the score is identical to Rule.Evaluate(a, b). A
// caller that keeps only scores ≥ floor loses nothing to the skip,
// because the score never exceeds the bound.
func (p *Probe) Score(b *entity.Entity, floor float64) (score float64, ok bool) {
	c := p.s.c
	if c.opaque {
		// Rule evaluation is pure; the interpreted walk is concurrency-safe.
		return c.rule.Evaluate(p.a, b), true
	}
	rb := p.s.record(b, p.sc.vstack)
	if p.bound(rb) < floor {
		return 0, false
	}
	return c.score(p.rec, rb, p.sc.dists, p.sc.sstack), true
}
