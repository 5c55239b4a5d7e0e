package matching

import (
	"sort"

	"genlink/internal/entity"
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
// composite unions its members' enumerators through one slot set,
// exactly as the BlockIndex unions its passes. Every enumerator yields a
// B entity as its position in bs, which holds one entity per ID
// (uniqueEntities). It is immutable once built and safe for concurrent
// Each calls, which is what lets MatchParallel partition A across workers.
func newEnumerator(bl Blocker, as, bs []*entity.Entity) Enumerator {
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
	bi := NewBlockIndex(bl)
	bi.BulkAdd(bs)
	return bi
}

// passes is the batch enumerator of a multi-pass composite: the members
// in order, sharing seen, so each candidate is yielded once however many
// members propose it.
type passes []Enumerator

func (ps passes) Each(probe *entity.Entity, maxBlock int, seen *SlotSet, yield func(slot int32) bool) bool {
	for _, p := range ps {
		if !p.Each(probe, maxBlock, seen, yield) {
			return false
		}
	}
	return true
}

// StreamPairs pushes the blocker's candidate pairs for A×B to yield
// without ever materializing the global pair list: duplicates and self
// pairs (same entity ID) never appear, pairs arrive grouped per A entity
// in A's order, and the order of B partners within a group is
// unspecified. An ID listed twice in a source counts once, as its last
// version.
// CandidatePairs collects exactly this enumeration.
func StreamPairs(bl Blocker, a, b *entity.Source, opts Options, yield func(Pair)) {
	as, _ := uniqueEntities(a.Entities)
	bs, _ := uniqueEntities(b.Entities)
	opts.normalize(len(bs))
	en := newEnumerator(bl, as, bs)
	seen := new(SlotSet)
	for _, ea := range as {
		seen.Clear()
		en.Each(ea, opts.MaxBlockSize, seen, func(s int32) bool {
			yield(Pair{A: ea, B: bs[s]})
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
// taken when a repeat exists; at maps each ID to its position in out.
func uniqueEntities(es []*entity.Entity) (out []*entity.Entity, at map[string]int32) {
	at = make(map[string]int32, len(es)) // out stays nil until the first repeat
	for i, e := range es {
		if j, dup := at[e.ID]; dup {
			if out == nil {
				out = append(make([]*entity.Entity, 0, len(es)), es[:i]...)
			}
			out[j] = e
			continue
		}
		at[e.ID] = int32(len(at))
		if out != nil {
			out = append(out, e)
		}
	}
	if out == nil {
		return es, at
	}
	return out, at
}

// ---------------------------------------------------------------------------
// Sorted neighborhood over the merged order

// snStreamRec is one record of the sorted-neighborhood streamer's merged
// order: both sources interleaved, sorted by (key, entity ID). s is a B
// record's slot (its position in B) and −1 for an A record.
type snStreamRec struct {
	key string
	e   *entity.Entity
	s   int32
}

// snStreamer is batch sorted-neighborhood: one scan over the merged A∪B
// order (Hernández & Stolfo), pairing positions i < j ≤ i+w when exactly
// one side is an A record. Seen from one A record at position p that is
// every B record within w positions on either side, which is what Each
// walks.
//
// Sorted neighborhood has two definitions in this package, and they are
// equal only when A holds one entity. Here the other A records take up
// window slots. The BlockIndex's sorted-neighborhood pass, which the
// matching service queries, windows over the indexed entities alone.
// Loading B into the index and probing it with every A entity would
// therefore change batch results (seed 1, window 10):
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
	key := blk.sortKey()
	recs := make([]snStreamRec, 0, len(as)+len(bs))
	for _, e := range as {
		recs = append(recs, snStreamRec{key: key(e), e: e, s: -1})
	}
	for j, e := range bs {
		recs = append(recs, snStreamRec{key: key(e), e: e, s: int32(j)})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		return recs[i].e.ID < recs[j].e.ID
	})
	pos := make(map[*entity.Entity]int, len(as))
	for i, r := range recs {
		if r.s < 0 {
			pos[r.e] = i
		}
	}
	return &snStreamer{recs: recs, posOfA: pos, window: blk.window()}
}

// Each has BlockIndex.Each's contract for an A entity of the merged
// order; there is no block cap to apply.
func (s *snStreamer) Each(ea *entity.Entity, _ int, seen *SlotSet, yield func(slot int32) bool) bool {
	p, ok := s.posOfA[ea]
	if !ok {
		return true
	}
	for q := max(p-s.window, 0); q <= min(p+s.window, len(s.recs)-1); q++ {
		r := s.recs[q]
		if q == p || r.s < 0 || r.e.ID == ea.ID {
			continue
		}
		if seen.Add(r.s) && !yield(r.s) {
			return false
		}
	}
	return true
}
