// Package matching executes linkage rules over whole data sources.
//
// The paper defers efficient rule execution to the MultiBlock method of
// Isele & Bizer 2011 ([19] in the paper); this package provides a
// pluggable blocking subsystem in its spirit: a Blocker proposes candidate
// pairs, the rule scores them. Four strategies are built in —
//
//   - TokenBlocking: pairs sharing a lowercased value token (the default);
//   - SortedNeighborhood: a windowed scan over a normalized sort key,
//     generating O(n·window) candidates regardless of token-frequency skew;
//   - QGramBlocking: pairs sharing a character q-gram, robust to typos;
//   - MultiPass: the union of several passes, the MultiBlock idea of
//     indexing each similarity dimension separately.
//
// Blocking only affects wall-clock cost and pairs-completeness (which true
// matches get scored at all), never rule semantics; MatchCartesian scores
// every pair and anchors exactness tests and the blocking-ablation bench.
//
// Each strategy is implemented once, as a BlockIndex (blockindex.go): a
// mutable index a probe entity's candidates are pushed out of with Each.
// The matching service (internal/linkindex) keeps one per shard; batch
// matching loads B into one and probes it with every A entity
// (stream.go). The one exception is sorted neighborhood, whose batch
// window runs over the merged A∪B order — a different definition from the
// index's per-probe window, kept on purpose (snStreamer says why).
//
// Match and MatchParallel never materialize the global pair list: they
// enumerate each A entity's candidate partners in turn and apply the
// compiled rule's score upper bound (evalengine's prefilter) before
// scoring, so memory is O(per-entity candidates) beyond B and pairs that
// cannot reach the threshold cost no distance computation. B's scoring
// records (evalengine.Record) are built once, when B is loaded, and
// each A entity is bound once (Compiled.Bind) and scores its candidates'
// records through the probe. CandidatePairs +
// MatchPairs is the materializing form of the same computation, the
// blocking ablation's input.
package matching

import (
	"math"
	"slices"
	"sort"
	"strings"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
)

// Link is a scored match produced by rule execution.
type Link struct {
	AID, BID string
	Score    float64
}

// Options tunes rule execution. Match and MatchParallel enumerate
// candidates per A entity and apply the compiled rule's bound before
// scoring (see the package comment); these fields tune that one path.
type Options struct {
	// Threshold is the minimum similarity to emit a link
	// (default: rule.MatchThreshold).
	Threshold float64
	// MaxBlockSize skips token/q-gram blocks shared by more than this
	// many entities (stop-token suppression; 0 means a source-size
	// derived default, negative means no limit). Very frequent tokens
	// generate quadratically many candidates while carrying no signal.
	MaxBlockSize int
	// Blocker selects the candidate-generation strategy
	// (default: TokenBlocking).
	Blocker Blocker
}

// DefaultMaxBlockSize is the stop-token cap MaxBlockSize 0 stands for,
// given the number of entities a block is drawn from: blocks of tokens
// occurring in more than about 5% of them are skipped.
func DefaultMaxBlockSize(sourceSize int) int { return sourceSize/20 + 50 }

// normalize fills defaults: the rule match threshold, stop-token
// suppression (DefaultMaxBlockSize) and token blocking.
func (o *Options) normalize(sourceSize int) {
	if o.Threshold == 0 {
		o.Threshold = rule.MatchThreshold
	}
	if o.MaxBlockSize == 0 {
		o.MaxBlockSize = DefaultMaxBlockSize(sourceSize)
	}
	if o.Blocker == nil {
		o.Blocker = TokenBlocking()
	}
}

// Tokens returns the lowercased whitespace-split tokens of every property
// value of e, sorted and unique. Every blocking strategy tokenizes
// through this single helper so the strategies cannot silently diverge.
func Tokens(e *entity.Entity) []string {
	var toks []string
	for _, values := range e.Properties {
		for _, v := range values {
			for tok := range strings.FieldsSeq(strings.ToLower(v)) {
				toks = append(toks, tok)
			}
		}
	}
	return sortedUnique(toks)
}

// sortedUnique sorts keys and drops repeats, in place.
func sortedUnique(keys []string) []string {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// Match executes the rule over A×B using the blocker selected in opts
// (token blocking by default) and returns all links with score ≥
// threshold, sorted by descending score then IDs. It is the one-worker
// case of MatchParallel.
func Match(r *rule.Rule, a, b *entity.Source, opts Options) []Link {
	return MatchParallel(r, a, b, opts, 1)
}

// MatchPairs scores precomputed candidate pairs (as returned by
// CandidatePairs) and returns the links sorted like Match. It lets
// callers that already hold the pair list — the blocking ablation, custom
// pipelines — avoid re-running the blocker; only opts.Threshold is used.
// CandidatePairs never yields self pairs (meaningless in dedup setups) or
// duplicates.
//
// The rule is compiled once (internal/evalengine) and each entity's
// scoring record is built the first time a pair holds it, so its
// transformation chains run once however many candidate pairs blocking
// puts it in. Each pair is scored only as far as the threshold needs
// (Probe.Score with the threshold as its floor); scores are identical to
// Rule.Evaluate.
func MatchPairs(r *rule.Rule, pairs []Pair, opts Options) []Link {
	if opts.Threshold == 0 {
		opts.Threshold = rule.MatchThreshold
	}
	c := evalengine.Compile(r)
	recs := make(map[*entity.Entity]*evalengine.Record)
	record := func(e *entity.Entity) *evalengine.Record {
		rec, ok := recs[e]
		if !ok {
			rec = c.Record(e)
			recs[e] = rec
		}
		return rec
	}
	var (
		links []Link
		bound *entity.Entity // the A entity probe is bound to
		probe *evalengine.Probe
	)
	for _, p := range pairs {
		if p.A != bound {
			// CandidatePairs groups pairs per A entity: one Bind per group.
			bound, probe = p.A, c.Bind(record(p.A))
		}
		if score, ok := probe.Score(record(p.B), opts.Threshold); ok && score >= opts.Threshold {
			links = append(links, Link{AID: p.A.ID, BID: p.B.ID, Score: score})
		}
	}
	sortLinks(links)
	return links
}

// MatchCartesian executes the rule over the full cross product — exact but
// quadratic. Used by tests and the blocking ablation. Like MatchPairs it
// builds each entity's scoring record once, which matters even more
// here: every entity appears in |B| (resp. |A|) pairs. It iterates the
// sources with repeated IDs dropped, as every blocked path does, and
// scores every pair in full (floor −Inf), so it stays the unbounded
// reference the blocking differentials compare against.
func MatchCartesian(r *rule.Rule, a, b *entity.Source, opts Options) []Link {
	as, bs := uniqueEntities(a.Entities), uniqueEntities(b.Entities)
	opts.normalize(len(bs))
	c := evalengine.Compile(r)
	rbs := make([]*evalengine.Record, len(bs))
	for j, eb := range bs {
		rbs[j] = c.Record(eb)
	}
	var links []Link
	for _, ea := range as {
		p := c.Bind(c.Record(ea))
		for j, eb := range bs {
			if ea.ID == eb.ID {
				continue
			}
			if score, _ := p.Score(rbs[j], math.Inf(-1)); score >= opts.Threshold {
				links = append(links, Link{AID: ea.ID, BID: eb.ID, Score: score})
			}
		}
	}
	sortLinks(links)
	return links
}

func sortLinks(links []Link) {
	sort.Slice(links, func(i, j int) bool {
		if links[i].Score != links[j].Score {
			return links[i].Score > links[j].Score
		}
		if links[i].AID != links[j].AID {
			return links[i].AID < links[j].AID
		}
		return links[i].BID < links[j].BID
	})
}
