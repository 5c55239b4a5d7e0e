package linkindex

import (
	"slices"
	"sync"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/matching"
	"genlink/internal/similarity"
)

// The rule-derived edit-distance filter. When the served rule has a
// necessary levenshtein comparison at the index threshold
// (evalengine.Compiled.EditBound: every link has a distance of at most
// K between the probe's A-side values and the candidate's B-side
// values), each shard indexes its stored entities by the PassJoin
// segment keys of their B-side values (similarity.EditSegmentKeys), and
// a query scores only the blocker's candidates that share a key with the
// probe (similarity.EditProbeKeys). A candidate that shares none is
// further than K from the probe and could never reach the threshold, so
// the filter changes no answer: the blocker's candidates (Candidates)
// are what they were, and the links are those of scoring every one.

// editFilter is one shard's segment-key index: for each key, the slots
// of the stored entities holding it, as a chain of entries in one arena,
// and a map from each key to its chain's head. The arena grows by
// doubling and reuses freed entries, so a write allocates nothing per
// key, and it holds no pointer, so the garbage collector never scans it.
// It is written only by applyShardOps, under the shard's write lock.
type editFilter struct {
	heads   map[uint64]int32
	entries []editEntry
	free    int32 // the first free entry, chained through next; −1: none
}

// editEntry is one (key, slot) posting: the slot, and the next entry of
// the key's chain (−1 ends it).
type editEntry struct {
	slot, next int32
}

func newEditFilter() *editFilter {
	return &editFilter{heads: make(map[uint64]int32), free: -1}
}

// add records that slot s holds keys.
func (f *editFilter) add(keys []uint64, s int32) {
	if need := len(f.entries) + len(keys); need > cap(f.entries) {
		// Double, where append would grow a long arena by a quarter.
		f.entries = slices.Grow(f.entries, max(need, 2*cap(f.entries))-len(f.entries))
	}
	for _, key := range keys {
		head, ok := f.heads[key]
		if !ok {
			head = -1
		}
		entry := editEntry{slot: s, next: head}
		e := f.free
		if e >= 0 {
			f.free = f.entries[e].next
			f.entries[e] = entry
		} else {
			e = int32(len(f.entries))
			f.entries = append(f.entries, entry)
		}
		f.heads[key] = e
	}
}

// remove drops slot s from the chains of keys, the keys add recorded for
// it, and frees its entries; a key whose chain empties leaves the map.
func (f *editFilter) remove(keys []uint64, s int32) {
	for _, key := range keys {
		prev, e := int32(-1), f.heads[key]
		for f.entries[e].slot != s {
			prev, e = e, f.entries[e].next
		}
		switch next := f.entries[e].next; {
		case prev >= 0:
			f.entries[prev].next = next
		case next >= 0:
			f.heads[key] = next
		default:
			delete(f.heads, key)
		}
		f.entries[e] = editEntry{slot: -1, next: f.free}
		f.free = e
	}
}

// collect adds to keep every slot holding one of keys.
func (f *editFilter) collect(keys []uint64, keep *matching.SlotSet) {
	for _, key := range keys {
		if head, ok := f.heads[key]; ok {
			for e := head; e >= 0; e = f.entries[e].next {
				keep.Add(f.entries[e].slot)
			}
		}
	}
}

// storedKeys appends to dst the filter keys of a stored record: the
// segment keys of its B-side values. Removal re-derives them from the
// same record, which is immutable, instead of keeping them. A key the
// record holds twice (two values sharing a segment) gets two entries in
// its chain, and removal drops both.
func (ix *ShardedIndex) storedKeys(dst []uint64, r *evalengine.Record) []uint64 {
	return similarity.EditSegmentKeys(dst, ix.edit.Stored(r), ix.edit.K)
}

// probeKeys returns the filter keys of a probe record, nil when the
// index has no filter or when the probe's bound already misses the
// threshold: then every shard's ScoreCandidates returns before it
// enumerates, and collect over no keys costs nothing.
func (ix *ShardedIndex) probeKeys(r *evalengine.Record) []uint64 {
	if ix.edit == nil || ix.compiled.Bind(r).Upper() < ix.opts.Threshold {
		return nil
	}
	values, k := ix.edit.Probe(r), ix.edit.K
	// A value has at most (2K + 1)(K²/2 + K + 1) keys, one batch of them
	// per length within K of its own.
	keys := make([]uint64, 0, len(values)*(2*k+1)*(k*k/2+k+1))
	// A key repeats only where two of the windows hold equal
	// substrings; collect adds its slots once all the same.
	return similarity.EditProbeKeys(keys, values, k)
}

// filtered is the enumerator a filtered query scores: the blocker's
// candidates that are also in keep.
type filtered struct {
	blocks matching.Enumerator
	keep   *matching.SlotSet
}

func (f *filtered) Each(probe *entity.Entity, maxBlock int, seen *matching.SlotSet, yield func(slot int32) bool) bool {
	return f.blocks.Each(probe, maxBlock, seen, func(s int32) bool {
		return !f.keep.Has(s) || yield(s)
	})
}

// keepSets recycles the per-shard query's filter sets, as matching's
// pool recycles its seen sets.
var keepSets = sync.Pool{New: func() any { return new(matching.SlotSet) }}
