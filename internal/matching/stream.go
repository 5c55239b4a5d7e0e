package matching

import (
	"sort"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
)

// The enumeration Match and MatchParallel score from: instead of
// materializing the full deduplicated candidate list (CandidatePairs)
// before scoring, a pairStreamer enumerates one A entity's partners at a
// time, so batch matching holds O(per-entity candidates) instead of
// O(total candidates) and scoring can push the compiled rule's prefilter
// (a cheap sound upper bound on the pair's score) down into the
// enumeration. The pair set is exactly CandidatePairs';
// TestStreamPairsEqualCandidatePairs pins that for every strategy and
// cap, TestMatchStreamModeEquivalence pins the links.

// pairStreamer enumerates a blocker's candidate partners one A entity at
// a time. Implementations are immutable after construction and safe for
// concurrent forA calls from multiple goroutines — that is what lets
// MatchParallel partition A entities across workers.
type pairStreamer interface {
	// forA calls yield once per distinct B partner of ea, with self
	// pairs (same entity ID) already removed — exactly the B sides of
	// ea's pairs in CandidatePairs.
	forA(ea *entity.Entity, yield func(eb *entity.Entity))
}

// newPairStreamer builds the streaming enumerator for a blocker: lazy
// per-entity probes of the same inverted indexes and sorted orders the
// batch passes build, or a materializing fallback for strategies it has
// never heard of. opts must already be normalized.
func newPairStreamer(bl Blocker, a, b *entity.Source, opts Options) pairStreamer {
	switch blk := bl.(type) {
	case TokenBlocker:
		return &keyedStreamer{byKey: BuildIndex(b).byToken, keys: Tokens, maxBlock: opts.MaxBlockSize}
	case QGramBlocker:
		q := blk.q()
		keys := func(e *entity.Entity) []string { return QGramKeys(e, q) }
		byGram := make(map[string][]*entity.Entity)
		for _, eb := range b.Entities {
			for _, gram := range keys(eb) {
				byGram[gram] = append(byGram[gram], eb)
			}
		}
		return &keyedStreamer{byKey: byGram, keys: keys, maxBlock: opts.MaxBlockSize}
	case SortedNeighborhoodBlocker:
		return newSNStreamer(blk, a, b)
	case MultiPassBlocker:
		members := make([]pairStreamer, len(blk.Passes))
		for i, p := range blk.Passes {
			members[i] = newPairStreamer(p, a, b, opts)
		}
		return &multiStreamer{members: members}
	default:
		return newGenericStreamer(bl, a, b, opts)
	}
}

// StreamPairs enumerates exactly the pairs CandidatePairs(bl, a, b,
// opts) returns — duplicates and self pairs removed — without ever
// materializing the global pair list. Pair order may differ from
// CandidatePairs (per-A-entity enumeration order instead of first-seen
// global order); the pair set is identical.
func StreamPairs(bl Blocker, a, b *entity.Source, opts Options, yield func(Pair)) {
	opts.normalize(b.Len())
	ps := newPairStreamer(bl, a, b, opts)
	for _, ea := range uniqueEntities(a.Entities) {
		ps.forA(ea, func(eb *entity.Entity) {
			yield(Pair{A: ea, B: eb})
		})
	}
}

// uniqueEntities drops repeated occurrences of the same entity pointer,
// keeping first-seen order — CandidatePairs deduplicates the pairs such
// repeats would produce, so the streaming enumeration must visit each A
// entity once. The copy is only taken when a repeat actually exists.
func uniqueEntities(es []*entity.Entity) []*entity.Entity {
	seen := make(map[*entity.Entity]struct{}, len(es))
	for i, e := range es {
		if _, dup := seen[e]; dup {
			out := make([]*entity.Entity, i, len(es))
			copy(out, es[:i])
			for _, e := range es[i:] {
				if _, dup := seen[e]; dup {
					continue
				}
				seen[e] = struct{}{}
				out = append(out, e)
			}
			return out
		}
		seen[e] = struct{}{}
	}
	return es
}

// streamChunk scores one chunk of A entities against the streamer —
// the per-worker unit of MatchParallel. The compiled rule's prefilter
// rejects pairs whose score upper bound cannot reach the threshold
// before any distance is computed.
func streamChunk(scorer *evalengine.Scorer, ps pairStreamer, chunk []*entity.Entity, threshold float64) []Link {
	var links []Link
	for _, ea := range chunk {
		ps.forA(ea, func(eb *entity.Entity) {
			if scorer.Bound(ea, eb) < threshold {
				return // the pair cannot reach the threshold: skip scoring
			}
			if score := scorer.Score(ea, eb); score >= threshold {
				links = append(links, Link{AID: ea.ID, BID: eb.ID, Score: score})
			}
		})
	}
	return links
}

// ---------------------------------------------------------------------------
// Per-strategy streamers

// keyedStreamer probes a batch inverted index (key → B entities) per A
// entity: the token and q-gram strategies differ only in the key
// function.
type keyedStreamer struct {
	byKey    map[string][]*entity.Entity
	keys     func(*entity.Entity) []string
	maxBlock int
}

func (s *keyedStreamer) forA(ea *entity.Entity, yield func(*entity.Entity)) {
	seen := make(map[*entity.Entity]struct{})
	for _, k := range s.keys(ea) {
		block := s.byKey[k]
		if !CapAllows(OthersInBlock(block, ea, s.maxBlock), s.maxBlock) {
			continue
		}
		for _, eb := range block {
			if eb.ID == ea.ID {
				continue
			}
			if _, dup := seen[eb]; dup {
				continue
			}
			seen[eb] = struct{}{}
			yield(eb)
		}
	}
}

// snStreamRec is one record of the sorted-neighborhood streamer's merged
// order — the same (key, ID)-sorted interleaving of both sources the
// batch windowed scan walks.
type snStreamRec struct {
	key string
	e   *entity.Entity
	isA bool
}

// snStreamer answers per-A-entity windows over the merged sorted order.
// The batch scan emits the pair of positions (i, j), i < j ≤ i+w, when
// exactly one side is an A record; seen from one A record at position p
// that is every B record within w positions on either side — which is
// what forA walks, reproducing the batch pair set exactly (including its
// dependence on interleaved A records occupying window slots).
type snStreamer struct {
	recs   []snStreamRec
	posOfA map[*entity.Entity][]int
	window int
}

func newSNStreamer(blk SortedNeighborhoodBlocker, a, b *entity.Source) *snStreamer {
	key := blk.Key
	if key == nil {
		key = DefaultSortKey
	}
	recs := make([]snStreamRec, 0, len(a.Entities)+len(b.Entities))
	for _, e := range a.Entities {
		recs = append(recs, snStreamRec{key: key(e), e: e, isA: true})
	}
	for _, e := range b.Entities {
		recs = append(recs, snStreamRec{key: key(e), e: e, isA: false})
	}
	sortSNStreamRecs(recs)
	pos := make(map[*entity.Entity][]int)
	for i, r := range recs {
		if r.isA {
			pos[r.e] = append(pos[r.e], i)
		}
	}
	return &snStreamer{recs: recs, posOfA: pos, window: blk.window()}
}

// sortSNStreamRecs orders records by (key, entity ID) — the exact order
// of the batch windowed scan, so window contents agree position for
// position.
func sortSNStreamRecs(recs []snStreamRec) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		return recs[i].e.ID < recs[j].e.ID
	})
}

func (s *snStreamer) forA(ea *entity.Entity, yield func(*entity.Entity)) {
	seen := make(map[*entity.Entity]struct{})
	for _, p := range s.posOfA[ea] {
		lo := p - s.window
		if lo < 0 {
			lo = 0
		}
		hi := p + s.window
		if hi > len(s.recs)-1 {
			hi = len(s.recs) - 1
		}
		for q := lo; q <= hi; q++ {
			if q == p {
				continue
			}
			r := s.recs[q]
			if r.isA || r.e.ID == ea.ID {
				continue
			}
			if _, dup := seen[r.e]; dup {
				continue
			}
			seen[r.e] = struct{}{}
			yield(r.e)
		}
	}
}

// multiStreamer unions member streamers with per-A-entity dedup — the
// streaming mirror of MultiPassBlocker + CandidatePairs dedup (with the
// A entity fixed, deduplicating pairs is deduplicating B partners).
type multiStreamer struct {
	members []pairStreamer
}

func (s *multiStreamer) forA(ea *entity.Entity, yield func(*entity.Entity)) {
	seen := make(map[*entity.Entity]struct{})
	for _, m := range s.members {
		m.forA(ea, func(eb *entity.Entity) {
			if _, dup := seen[eb]; dup {
				return
			}
			seen[eb] = struct{}{}
			yield(eb)
		})
	}
}

// genericStreamer is the fallback for unknown strategies: it runs the
// batch blocker once at construction and serves the deduplicated pairs
// grouped per A entity. Correct for any Blocker, but the memory
// streaming exists to avoid is paid anyway — mirror new strategies in
// newPairStreamer to stream them for real.
type genericStreamer struct {
	byA map[*entity.Entity][]*entity.Entity
}

func newGenericStreamer(bl Blocker, a, b *entity.Source, opts Options) *genericStreamer {
	byA := make(map[*entity.Entity][]*entity.Entity)
	for _, p := range CandidatePairs(bl, a, b, opts) {
		byA[p.A] = append(byA[p.A], p.B)
	}
	return &genericStreamer{byA: byA}
}

func (s *genericStreamer) forA(ea *entity.Entity, yield func(*entity.Entity)) {
	for _, eb := range s.byA[ea] {
		yield(eb)
	}
}
