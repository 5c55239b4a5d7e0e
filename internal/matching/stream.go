package matching

import (
	"sort"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
)

// The enumeration Match, MatchParallel, StreamPairs and CandidatePairs
// all run: B is loaded once into the strategy's enumerator (newEnumerator)
// and every A entity is probed with Each, so batch matching holds
// O(per-entity candidates) beyond the loaded B and scoring can push the
// compiled rule's prefilter (a cheap sound upper bound on the pair's
// score) down into the enumeration. The reference materializer of the
// tests pins the pair set for every strategy and cap
// (TestStreamPairsEqualCandidatePairs, FuzzBatchCandidates), and
// TestMatchStreamModeEquivalence pins the links.

// newEnumerator loads B into the strategy's batch enumerator. Token and
// q-gram blocking bulk-load B into their own BlockIndex — the index the
// matching service keeps per shard, so batch and online candidates are
// one implementation. Sorted neighborhood keeps the merged-order window
// of snStreamer, a different definition (see there). A multi-pass
// composite unions its members' enumerators through one ID-keyed seen
// set, exactly as MultiIndex.Each does. as and bs hold one entity per ID
// (uniqueEntities): the index keys entities by ID.
// The enumerator is immutable once built and safe for concurrent Each
// calls, which is what lets MatchParallel partition A across workers.
func newEnumerator(bl Blocker, as, bs []*entity.Entity) enumerator {
	switch blk := bl.(type) {
	case SortedNeighborhoodBlocker:
		return newSNStreamer(blk, as, bs)
	case MultiPassBlocker:
		members := make(passes, len(blk.Passes))
		for i, p := range blk.Passes {
			members[i] = newEnumerator(p, as, bs)
		}
		return members
	}
	bi := bl.newIndex()
	bi.BulkAdd(bs)
	return bi
}

// passes is the batch enumerator of a multi-pass composite.
type passes []enumerator

func (ps passes) Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	return eachUnion(ps, probe, maxBlock, seen, yield)
}

// StreamPairs pushes the blocker's candidate pairs for A×B to yield
// without ever materializing the global pair list: duplicates and self
// pairs (same entity ID) never appear, pairs arrive grouped per A entity
// in A's order, and the order of B partners within a group is
// unspecified. An ID listed twice in a source counts once, as its last
// version.
// CandidatePairs collects exactly this enumeration.
func StreamPairs(bl Blocker, a, b *entity.Source, opts Options, yield func(Pair)) {
	as, bs := uniqueEntities(a.Entities), uniqueEntities(b.Entities)
	opts.normalize(len(bs))
	en := newEnumerator(bl, as, bs)
	seen := make(map[string]struct{})
	for _, ea := range as {
		clear(seen)
		en.Each(ea, opts.MaxBlockSize, seen, func(eb *entity.Entity) bool {
			yield(Pair{A: ea, B: eb})
			return true
		})
	}
}

// uniqueEntities keeps one entity per ID: the last occurrence, at the
// position of the first. That is the version Source.Get returns and what
// Apply does with an ID upserted twice in one batch, so every strategy
// and MatchCartesian link against the same version, a repeat never
// produces its pairs twice, never counts twice toward a block size and
// never takes a second sorted-neighborhood window slot. The copy is only
// taken when a repeat actually exists.
func uniqueEntities(es []*entity.Entity) []*entity.Entity {
	at := make(map[string]int, len(es)) // ID → position in the result
	var out []*entity.Entity            // nil until the first repeat
	for i, e := range es {
		if j, dup := at[e.ID]; dup {
			if out == nil {
				out = append(make([]*entity.Entity, 0, len(es)), es[:i]...)
			}
			out[j] = e
			continue
		}
		at[e.ID] = len(at)
		if out != nil {
			out = append(out, e)
		}
	}
	if out == nil {
		return es
	}
	return out
}

// streamChunk scores one chunk of A entities against the enumerator —
// the per-worker unit of MatchParallel, with one seen set reused across
// the chunk. Each A entity is bound once; rbs holds the record of every
// B entity the enumerator can yield. The compiled rule's prefilter
// rejects pairs whose score upper bound cannot reach the threshold
// before any distance is computed.
func streamChunk(c *evalengine.Compiled, rbs map[*entity.Entity]*evalengine.Record, en enumerator, chunk []*entity.Entity, opts Options) []Link {
	var links []Link
	seen := make(map[string]struct{})
	for _, ea := range chunk {
		clear(seen)
		p := c.Bind(c.Record(ea))
		en.Each(ea, opts.MaxBlockSize, seen, func(eb *entity.Entity) bool {
			if score, ok := p.Score(rbs[eb], opts.Threshold); ok && score >= opts.Threshold {
				links = append(links, Link{AID: ea.ID, BID: eb.ID, Score: score})
			}
			return true
		})
	}
	return links
}

// ---------------------------------------------------------------------------
// Sorted neighborhood over the merged order

// snStreamRec is one record of the sorted-neighborhood streamer's merged
// order: both sources interleaved, sorted by (key, entity ID).
type snStreamRec struct {
	key string
	e   *entity.Entity
	isA bool
}

// snStreamer is batch sorted-neighborhood: one scan over the merged A∪B
// order (Hernández & Stolfo), pairing positions i < j ≤ i+w when exactly
// one side is an A record. Seen from one A record at position p that is
// every B record within w positions on either side, which is what Each
// walks.
//
// Sorted neighborhood has two definitions in this package, and they are
// equal only when A holds one entity. Here the other A records take up
// window slots. SortedNeighborhoodIndex, which the matching service
// queries, windows over the indexed entities alone. Loading B into the
// index and probing it with every A entity would therefore change batch
// results (seed 1, window 10):
//   - Cora: the blocking ablation's sorted-neighborhood pass goes from
//     17,826 to 37,470 candidates, and its two-pass multi-pass from
//     33,212 to 72,162. That breaks TestMultiPassBeatsTokenOnCora's bound
//     of a third of token blocking's 172,724.
//   - NYT: the ablation's sorted-neighborhood F1 drops from 0.474 to
//     0.426.
//   - cora-x, N = 10,000 self-join: sortedneighborhood links go from 4,052
//     to 4,636.
//
// So batch keeps the merged-order window, and the index keeps the
// per-probe one.
type snStreamer struct {
	recs   []snStreamRec
	posOfA map[*entity.Entity]int
	window int
}

func newSNStreamer(blk SortedNeighborhoodBlocker, as, bs []*entity.Entity) *snStreamer {
	key := blk.Key
	if key == nil {
		key = DefaultSortKey
	}
	recs := make([]snStreamRec, 0, len(as)+len(bs))
	for _, e := range as {
		recs = append(recs, snStreamRec{key: key(e), e: e, isA: true})
	}
	for _, e := range bs {
		recs = append(recs, snStreamRec{key: key(e), e: e, isA: false})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		return recs[i].e.ID < recs[j].e.ID
	})
	pos := make(map[*entity.Entity]int, len(as))
	for i, r := range recs {
		if r.isA {
			pos[r.e] = i
		}
	}
	return &snStreamer{recs: recs, posOfA: pos, window: blk.window()}
}

// Each has BlockIndex.Each's contract for an A entity of the merged
// order; there is no block cap to apply.
func (s *snStreamer) Each(ea *entity.Entity, _ int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	p, ok := s.posOfA[ea]
	if !ok {
		return true
	}
	for q := max(p-s.window, 0); q <= min(p+s.window, len(s.recs)-1); q++ {
		r := s.recs[q]
		if q == p || r.isA || r.e.ID == ea.ID {
			continue
		}
		if _, dup := seen[r.e.ID]; dup {
			continue
		}
		seen[r.e.ID] = struct{}{}
		if !yield(r.e) {
			return false
		}
	}
	return true
}
