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
// A rule that bounds an edit distance (evalengine.EditBound) needs no
// blocker at all: NewCandidateSource (ruleindex.go), the one place that
// decides what serves a rule's candidates, serves it from a rule index
// whose links are exactly MatchCartesian's, in batch matching as in the
// service.
//
// Each strategy is implemented once, as a BlockIndex (blockindex.go): a
// mutable index a probe entity's candidates are pushed out of with Each.
// It serves a rule without an edit bound (NewCandidateSource decides):
// each shard of the matching service (internal/linkindex) keeps one
// CandidateIndex, a BlockIndex for such a rule and a RuleIndex
// otherwise, and batch matching loads B into one and probes it with
// every A entity (stream.go). The one exception is sorted neighborhood,
// whose batch window runs over the merged A∪B order — a different
// definition from the index's per-probe window, kept on purpose as the
// blocking ablation's definition (snStreamer says why).
//
// Candidates are scored by one loop, ScoreCandidates (score.go), for
// every caller: each A entity of Match and MatchParallel, each per-A
// group of MatchPairs, and each shard's share of a service query. It
// binds the probe's record once (Compiled.Bind), enumerates nothing when
// the probe's bound (Probe.Upper) is below the threshold, deduplicates
// the candidates by slot through one pooled bitset, scores each one's
// record (evalengine.Record, built once per B entity, held by slot) only
// as far as the threshold or the k-th best link needs, and keeps the
// links in one bounded heap. So batch matching never materializes the
// global pair list — memory is O(per-entity candidates) beyond B — and
// pairs that cannot reach the threshold cost no distance computation.
// Every result is sorted into one link order (SortLinks). CandidatePairs
// + MatchPairs is the materializing form of the blocker's computation,
// the blocking ablation's input; MatchCartesian is the unbounded
// reference, scoring every pair at floor −∞.
package matching

import (
	"math"
	"slices"
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
	// Like Blocker it applies only to a rule without an edit bound: a
	// rule index caps nothing, because any cap would drop links.
	MaxBlockSize int
	// Blocker selects the candidate-generation strategy of a rule
	// without an edit bound (default: TokenBlocking). A rule with one is
	// served from its rule index, whatever the blocker
	// (NewCandidateSource).
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

// Match executes the rule over A×B and returns all links with score ≥
// threshold, sorted by descending score then IDs: MatchCartesian's links
// for a rule with an edit bound, and otherwise those of the pairs the
// blocker selected in opts (token blocking by default) proposes. It is
// the one-worker case of MatchParallel.
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
// Each run of pairs with the same A entity (CandidatePairs groups them
// so) is one probe of ScoreCandidates, the loop Match runs, over that
// run's B sides; a B ID repeated within a run is scored once. The rule
// is compiled once and every B ID gets one slot, numbered in first-seen
// order, holding the scoring record of its first-seen version: one
// version per ID, as everywhere.
func MatchPairs(r *rule.Rule, pairs []Pair, opts Options) []Link {
	if opts.Threshold == 0 {
		opts.Threshold = rule.MatchThreshold
	}
	c := evalengine.Compile(r)
	slotOf := make(map[string]int32)
	var bs []*entity.Entity
	var rbs []*evalengine.Record
	slots := make(pairGroup, len(pairs)) // slots[i] is pairs[i].B's
	for i, p := range pairs {
		s, ok := slotOf[p.B.ID]
		if !ok {
			s = int32(len(rbs))
			slotOf[p.B.ID] = s
			bs, rbs = append(bs, p.B), append(rbs, c.Record(p.B))
		}
		slots[i] = s
	}
	var perA [][]Link
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].A == pairs[lo].A {
			hi++
		}
		ea := pairs[lo].A
		links, _ := ScoreCandidates(c, probeRecord(c, bs, rbs, slotOf, ea), ea, slots[lo:hi], 0, rbs, opts.Threshold, 0)
		perA = append(perA, links)
		lo = hi
	}
	return merged(perA)
}

// pairGroup is one A entity's run of MatchPairs' pairs, enumerated as
// the candidates of that A entity: the slots of the pairs' B sides.
type pairGroup []int32

func (g pairGroup) Each(_ *entity.Entity, _ int, seen *SlotSet, yield func(slot int32) bool) bool {
	for _, s := range g {
		if seen.Add(s) && !yield(s) {
			return false
		}
	}
	return true
}

// probeRecord returns the record an A entity probes with: its B record
// when the entity is itself in B (a self-join), as QueryID probes with
// the stored record, and a fresh one otherwise. slotOf maps B's IDs to
// their slots in bs and rbs, which hold B's entities and their records.
func probeRecord(c *evalengine.Compiled, bs []*entity.Entity, rbs []*evalengine.Record, slotOf map[string]int32, ea *entity.Entity) *evalengine.Record {
	if s, ok := slotOf[ea.ID]; ok && bs[s] == ea {
		return rbs[s]
	}
	return c.Record(ea)
}

// merged concatenates per-probe links into one list in the link order.
func merged(perA [][]Link) []Link {
	var links []Link
	for _, ls := range perA {
		links = append(links, ls...)
	}
	SortLinks(links)
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
	as, _ := uniqueEntities(a.Entities)
	bs, _ := uniqueEntities(b.Entities)
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
	SortLinks(links)
	return links
}
