package matching

import (
	"sort"
	"sync"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
)

// Enumerator pushes a probe's candidates out of whatever structure holds
// them, as slots: a BlockIndex's table slots, or positions in B for batch
// matching's snStreamer, passes and MatchPairs' per-A pair groups.
type Enumerator interface {
	// Each reads the structures in place and calls yield once per
	// candidate slot, in unspecified order, until yield returns false; it
	// reports whether it ran to completion. maxBlock > 0 caps key-block
	// sizes. Slots in seen are skipped and yielded ones added, so one set
	// passed to several enumerators over the same slots yields their
	// union once. yield must not write to the index. Nothing is copied
	// per block or allocated per candidate
	// (TestEachAllocsIndependentOfBlockSize).
	Each(probe *entity.Entity, maxBlock int, seen *SlotSet, yield func(slot int32) bool) bool
}

// ScoreCandidates is the one candidate-scoring loop of rule execution:
// Match, MatchParallel and MatchPairs score every A entity through it,
// and the matching service (internal/linkindex) scores every shard's
// share of a query through it. It binds the probe's record once (which
// builds its edit-distance patterns) and returns the links of the
// probe's candidates scoring ≥ threshold: the best k of them when
// k > 0, every one otherwise, in no particular order. records holds the
// scoring record of every entity cands can yield, indexed by its slot.
// pe is the probe's entity, which a blocker's enumeration reads; a rule
// index's reads only the record, and is handed nil by a caller that holds
// no entity.
//
// The one early exit is before the enumeration starts: a probe whose
// Upper() bound is below the threshold (it misses the properties of
// high-weight comparisons) enumerates nothing and reports scored ==
// false. None can exist inside the enumeration, because the floor is a
// score and Score ≤ bound ≤ Upper (TestMetamorphicPrefilterSoundness).
// Each candidate is deduplicated through one pooled slot set and scored
// only as far as its floor needs: the threshold, raised to the weakest
// held link's score once k links are held. Probe.Score declines only a
// candidate strictly below the floor, and an accepted score is
// bit-identical to Rule.Evaluate, so the result equals scoring every
// candidate in full; with k > 0 it is the same set whatever the
// enumeration order, because the link order is total (SortLinks).
func ScoreCandidates(c *evalengine.Compiled, probe *evalengine.Record, pe *entity.Entity, cands Enumerator, maxBlock int, records []*evalengine.Record, threshold float64, k int) (links []Link, scored bool) {
	p := c.Bind(probe)
	if p.Upper() < threshold {
		return nil, false
	}
	seen := slotSets.Get().(*SlotSet)
	defer func() {
		seen.Clear()
		slotSets.Put(seen)
	}()
	h := topK{k: k, links: make([]Link, 0, min(max(k, 0), 16))}
	cands.Each(pe, maxBlock, seen, func(s int32) bool {
		floor := threshold
		if k > 0 && len(h.links) == k {
			floor = max(floor, h.links[0].Score)
		}
		rec := records[s]
		if score, ok := p.Score(rec, floor); ok && score >= threshold {
			h.push(Link{AID: probe.ID(), BID: rec.ID(), Score: score})
		}
		return true
	})
	return h.links, true
}

// slotSets recycles the per-probe slot sets Each is handed: a set grows
// to its probe's candidate count and highest slot, so pooling makes it a
// steady-state cost. Whoever draws a set clears it before giving it back.
var slotSets = sync.Pool{New: func() any { return new(SlotSet) }}

// weaker reports whether a comes after b in the one link order every
// result is sorted by: descending score, then ascending AID, then
// ascending BID. For one probe's links (one AID) that is descending
// score, then ascending candidate ID.
func weaker(a, b Link) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.AID != b.AID {
		return a.AID > b.AID
	}
	return a.BID > b.BID
}

// SortLinks sorts links into the one link order (see weaker): what
// Match, MatchPairs, MatchCartesian and FilterOneToOne return and what
// the service's MergeTopK merges by. It is defined through the same
// comparison as the bounded heap's eviction, so the two cannot drift
// apart.
func SortLinks(links []Link) {
	sort.Slice(links, func(i, j int) bool { return weaker(links[j], links[i]) })
}

// topK keeps links: every one when k ≤ 0, otherwise the best k in a
// bounded min-heap whose root is the weakest link held, so scoring any
// number of candidates keeps at most k links in memory.
type topK struct {
	k     int
	links []Link
}

func (h *topK) push(l Link) {
	if h.k <= 0 {
		h.links = append(h.links, l)
		return
	}
	if len(h.links) < h.k {
		h.links = append(h.links, l)
		// Sift up.
		i := len(h.links) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !weaker(h.links[i], h.links[parent]) {
				break
			}
			h.links[i], h.links[parent] = h.links[parent], h.links[i]
			i = parent
		}
		return
	}
	if !weaker(h.links[0], l) {
		return // l loses to the weakest held link
	}
	// Replace the root and sift down.
	h.links[0] = l
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		weakest := i
		if left < len(h.links) && weaker(h.links[left], h.links[weakest]) {
			weakest = left
		}
		if right < len(h.links) && weaker(h.links[right], h.links[weakest]) {
			weakest = right
		}
		if weakest == i {
			return
		}
		h.links[i], h.links[weakest] = h.links[weakest], h.links[i]
		i = weakest
	}
}
