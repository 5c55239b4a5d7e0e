package linkindex

import (
	"sync"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// Candidate enumeration: the push counterpart of BlockIndex.Candidates.
// Each hands the same candidate set to a callback one entity at a time,
// in place, so the query path can prefilter and score without first
// materializing (and sorting) the full candidate slice — nothing is
// copied per block or allocated per candidate
// (TestEachAllocsIndependentOfBlockSize). The order is unspecified —
// TestDifferentialStreamVsMaterialize pins set equality with Candidates
// and with the batch blocker for every strategy, cap and interleaving,
// and FuzzCandidateStream pins the callback contract (no panics, no
// duplicates, nothing after a false return, batch equality on the
// quiescent corpus).
//
// Like every BlockIndex method, Each is NOT synchronized: it runs to
// completion under the caller's lock. ShardedIndex calls it inside one
// shard read-lock acquisition.

// seenPool recycles the per-query dedup sets. A query's seen set grows
// to the candidate count, so allocating one per query would dominate the
// query path's allocations; pooling makes the map a steady-state cost.
// Whoever draws a set clears it before giving it back.
var seenPool = sync.Pool{New: func() any { return make(map[string]struct{}) }}

// Each implements BlockIndex: the probe's key blocks are ranged in place,
// one at a time, deduplicating across blocks through seen. Oversized
// blocks are skipped by the shared cap policy (matching.CapAllows)
// exactly like Candidates.
func (x *keyedIndex) Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	for _, k := range x.keys(probe) {
		block := x.byKey[k]
		size := len(block)
		if _, self := block[probe.ID]; self {
			size--
		}
		if !matching.CapAllows(size, maxBlock) {
			continue
		}
		for id, cand := range block {
			if id == probe.ID {
				continue
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			if !yield(cand) {
				return false
			}
		}
	}
	return true
}

// Each implements BlockIndex: the probe's window of the order-maintained
// sorted list is read in place — no slice copy and no sort. The window
// arithmetic repeats Candidates' on purpose: Candidates is the reference
// the differentials compare this against, so the two share no code.
func (x *SortedNeighborhoodIndex) Each(probe *entity.Entity, _ int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	pos := x.lowerBound(x.key(probe), probe.ID)
	self := -1
	if k, ok := x.keyOf[probe.ID]; ok {
		self = x.lowerBound(k, probe.ID)
	}
	// Translate to coordinates of the list without the probe's record.
	m := len(x.recs)
	if self >= 0 {
		m--
		if self < pos {
			pos--
		}
	}
	lo := max(pos-x.window, 0)
	hi := min(pos+x.window, m) - 1
	for i := lo; i <= hi; i++ {
		full := i
		if self >= 0 && i >= self {
			full = i + 1
		}
		e := x.recs[full].e
		if _, dup := seen[e.ID]; dup {
			continue
		}
		seen[e.ID] = struct{}{}
		if !yield(e) {
			return false
		}
	}
	return true
}

// Each implements BlockIndex: the members are enumerated in order sharing
// seen, so later members skip what earlier members already yielded and
// each candidate is yielded exactly once however many members propose it.
func (x *MultiIndex) Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	for _, m := range x.members {
		if !m.Each(probe, maxBlock, seen, yield) {
			return false
		}
	}
	return true
}

// Each implements BlockIndex over the materialized Candidates:
// GenericIndex re-blocks the whole corpus per query anyway, so there is
// nothing to enumerate lazily.
func (x *GenericIndex) Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	for _, e := range x.Candidates(probe, maxBlock) {
		if _, dup := seen[e.ID]; dup {
			continue
		}
		seen[e.ID] = struct{}{}
		if !yield(e) {
			return false
		}
	}
	return true
}
