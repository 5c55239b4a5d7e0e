package matching

import (
	"slices"
	"sort"

	"genlink/internal/entity"
)

// BlockIndex is the mutable form of a Blocker: instead of proposing
// candidate pairs for two fixed sources, it maintains per-entity index
// structures under Add/Remove and answers Candidates for one probe entity
// at a time. Every Blocker builds its own (NewBlockIndex); batch matching
// bulk-loads B into one and probes it with every A entity, and
// internal/linkindex keeps one per shard.
//
// The contract the differential tests pin: for every probe,
// Candidates(probe, maxBlock) returns exactly the B-side entities the
// reference batch materializer proposes with the probe as the only A
// entity against the currently indexed entities minus the probe's own
// record ("remove, then query as an external entity"). Self matches are
// therefore never candidates, and an indexed probe does not inflate its
// own block sizes or occupy a slot of its own sorted-neighborhood window.
//
// Keys are sorted: Tokens and QGramKeys return each entity's keys sorted
// and unique, which is what lets the keyed indexes tell by one merge walk
// which of a probe's blocks hold its own record.
//
// Implementations are NOT synchronized: writes need the caller's lock,
// and Candidates/Each may run concurrently only with each other.
type BlockIndex interface {
	// Add indexes e. The caller guarantees e.ID is not currently indexed.
	Add(e *entity.Entity)
	// Remove unindexes e. e must be the same entity value that was added
	// (implementations record their keys at Add time, so an entity mutated
	// after Add is still removed cleanly).
	Remove(e *entity.Entity)
	BulkAdder
	// BulkRemove has Remove's contract for every element, in one pass
	// where the structure allows it.
	BulkRemove(es []*entity.Entity)
	// Candidates returns the indexed entities the strategy pairs with
	// probe, excluding the probe's own record, sorted by ID. maxBlock > 0
	// caps key-block sizes (stop-token suppression); ≤ 0 means unlimited.
	Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity
	// Each enumerates Candidates(probe, maxBlock) without materializing
	// it: the structures are read in place, yield is called once per
	// candidate, in unspecified order, until it returns false; Each
	// reports whether it ran to completion. IDs already in seen are
	// skipped and every yielded ID is recorded in it, so a caller passing
	// one (initially empty) set to several indexes gets their
	// deduplicated union. yield must not write to the index. Nothing is
	// copied per block or allocated per candidate
	// (TestEachAllocsIndependentOfBlockSize).
	Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool
	// Len returns the number of indexed entities.
	Len() int
	// Keys returns the number of key entries held (diagnostic: tokens,
	// q-grams, sorted-list records... depending on the strategy).
	Keys() int
}

// BulkAdder is the batch-load half of BlockIndex. BulkAdd has Add's
// contract for every element (no ID currently indexed, and IDs unique
// within the batch).
type BulkAdder interface {
	BulkAdd(es []*entity.Entity)
}

// NewBlockIndex returns an empty incremental index of the blocker's
// strategy: slot posting lists for token and q-gram blocking, an
// order-maintained sorted list for sorted-neighborhood, a MultiIndex for
// multi-pass composites.
func NewBlockIndex(bl Blocker) BlockIndex { return bl.newIndex() }

// ---------------------------------------------------------------------------
// Slot posting lists (token, q-gram)

// keyedIndex is the shared core of TokenIndex and QGramIndex. Every
// indexed entity holds an int32 slot (freed slots are reused), and every
// key maps to the posting list of the slots whose entity carries it. The
// lists hold no pointers, so the garbage collector never scans them.
// Add appends the slot to one list per key; Remove swap-removes it from
// each, fixing the moved slot's position by binary search in that
// slot's sorted keys — O(keys · log keys), whatever the block sizes.
type keyedIndex struct {
	keys     func(*entity.Entity) []string // sorted, unique
	postings map[string][]int32
	slots    []keyedSlot
	slotOf   map[string]int32 // entity ID → slot
	free     []int32
}

// keyedSlot is one indexed entity with the keys recorded at Add time, so
// Remove never re-derives keys from a possibly mutated entity. pos[i] is
// the slot's position in postings[keys[i]]. A free slot has no entity
// and no keys.
type keyedSlot struct {
	e    *entity.Entity
	keys []string
	pos  []int32
}

func newKeyedIndex(keys func(*entity.Entity) []string) *keyedIndex {
	return &keyedIndex{
		keys:     keys,
		postings: make(map[string][]int32),
		slotOf:   make(map[string]int32),
	}
}

// Add implements BlockIndex.
func (x *keyedIndex) Add(e *entity.Entity) {
	var s int32
	if n := len(x.free); n > 0 {
		s, x.free = x.free[n-1], x.free[:n-1]
	} else {
		s = int32(len(x.slots))
		x.slots = append(x.slots, keyedSlot{})
	}
	x.slotOf[e.ID] = s
	sl := &x.slots[s]
	sl.e, sl.keys = e, x.keys(e)
	sl.pos = slices.Grow(sl.pos, len(sl.keys))
	for _, k := range sl.keys {
		list := x.postings[k]
		sl.pos = append(sl.pos, int32(len(list)))
		x.postings[k] = append(list, s)
	}
}

// Remove implements BlockIndex.
func (x *keyedIndex) Remove(e *entity.Entity) {
	s, ok := x.slotOf[e.ID]
	if !ok {
		return
	}
	delete(x.slotOf, e.ID)
	sl := &x.slots[s]
	for i, k := range sl.keys {
		list := x.postings[k]
		last := int32(len(list) - 1)
		if last == 0 {
			delete(x.postings, k)
			continue
		}
		if p := sl.pos[i]; p != last {
			moved := &x.slots[list[last]]
			list[p] = list[last]
			j, _ := slices.BinarySearch(moved.keys, k)
			moved.pos[j] = p
		}
		x.postings[k] = list[:last]
	}
	*sl = keyedSlot{pos: sl.pos[:0]}
	x.free = append(x.free, s)
}

// BulkAdd implements BlockIndex: posting lists have no batch fast path.
func (x *keyedIndex) BulkAdd(es []*entity.Entity) {
	for _, e := range es {
		x.Add(e)
	}
}

// BulkRemove implements BlockIndex.
func (x *keyedIndex) BulkRemove(es []*entity.Entity) {
	for _, e := range es {
		x.Remove(e)
	}
}

// Candidates implements BlockIndex: Each, collected and sorted.
func (x *keyedIndex) Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity {
	var out []*entity.Entity
	x.Each(probe, maxBlock, make(map[string]struct{}), func(e *entity.Entity) bool {
		out = append(out, e)
		return true
	})
	SortByID(out)
	return out
}

// Each implements BlockIndex: the probe's posting lists are ranged in
// place, one at a time, deduplicating across lists through seen. A
// block's size is measured without the probe's own record (the
// CapAllows policy): both the probe's keys and the keys recorded for
// probe.ID are sorted, so one merge walk tells which blocks hold that
// record, and the record itself is skipped by its slot.
func (x *keyedIndex) Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	self, selfKeys := int32(-1), []string(nil)
	if s, ok := x.slotOf[probe.ID]; ok {
		self, selfKeys = s, x.slots[s].keys
	}
	for _, k := range x.keys(probe) {
		list := x.postings[k]
		size := len(list)
		for len(selfKeys) > 0 && selfKeys[0] < k {
			selfKeys = selfKeys[1:]
		}
		if len(selfKeys) > 0 && selfKeys[0] == k {
			size--
		}
		if !CapAllows(size, maxBlock) {
			continue
		}
		for _, s := range list {
			if s == self {
				continue
			}
			cand := x.slots[s].e
			if _, dup := seen[cand.ID]; dup {
				continue
			}
			seen[cand.ID] = struct{}{}
			if !yield(cand) {
				return false
			}
		}
	}
	return true
}

// Len implements BlockIndex.
func (x *keyedIndex) Len() int { return len(x.slotOf) }

// Keys implements BlockIndex.
func (x *keyedIndex) Keys() int { return len(x.postings) }

// TokenIndex is the index of TokenBlocker: posting lists keyed by
// lowercased value tokens.
type TokenIndex struct{ *keyedIndex }

// NewTokenIndex returns an empty token index.
func NewTokenIndex() TokenIndex {
	return TokenIndex{newKeyedIndex(Tokens)}
}

// QGramIndex is the index of QGramBlocker: posting lists keyed by
// character q-grams.
type QGramIndex struct{ *keyedIndex }

// NewQGramIndex returns an empty q-gram index (q ≤ 0 means 3).
func NewQGramIndex(q int) QGramIndex {
	return QGramIndex{newKeyedIndex(func(e *entity.Entity) []string {
		return QGramKeys(e, q)
	})}
}

// ---------------------------------------------------------------------------
// Sorted neighborhood

// snRec is one entry of the order-maintained sorted list.
type snRec struct {
	key string
	e   *entity.Entity
}

// SortedNeighborhoodIndex is the index of SortedNeighborhoodBlocker: an
// order-maintained list sorted by (sort key, entity ID). Add and Remove
// locate the position by binary search and shift the tail (O(log n)
// search + O(n) memmove — fine up to hundreds of thousands of entities;
// the constant is a single copy of pointer-sized records). Candidates
// virtually inserts the probe at its sorted position and returns the
// entities within the window on either side: the window is over the
// indexed entities alone, which is the batch scan's window for a
// singleton A source (see snStreamer for why batch matching with many A
// entities keeps its own merged-order window).
type SortedNeighborhoodIndex struct {
	window int
	key    func(*entity.Entity) string
	recs   []snRec
	keyOf  map[string]string // entity ID → sort key recorded at Add time
}

// NewSortedNeighborhoodIndex returns an empty sorted-neighborhood index
// (window ≤ 0 means 10, key nil means DefaultSortKey).
func NewSortedNeighborhoodIndex(window int, key func(*entity.Entity) string) *SortedNeighborhoodIndex {
	if window <= 0 {
		window = 10
	}
	if key == nil {
		key = DefaultSortKey
	}
	return &SortedNeighborhoodIndex{window: window, key: key, keyOf: make(map[string]string)}
}

// lowerBound returns the first position whose record sorts at or after
// (key, id).
func (x *SortedNeighborhoodIndex) lowerBound(key, id string) int {
	return sort.Search(len(x.recs), func(i int) bool {
		r := x.recs[i]
		if r.key != key {
			return r.key > key
		}
		return r.e.ID >= id
	})
}

// Add implements BlockIndex.
func (x *SortedNeighborhoodIndex) Add(e *entity.Entity) {
	k := x.key(e)
	x.keyOf[e.ID] = k
	pos := x.lowerBound(k, e.ID)
	x.recs = append(x.recs, snRec{})
	copy(x.recs[pos+1:], x.recs[pos:])
	x.recs[pos] = snRec{key: k, e: e}
}

// recLess is the sorted-list order: (sort key, entity ID).
func recLess(a, b snRec) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.e.ID < b.e.ID
}

// BulkAdd implements BlockIndex: sort the m new records, then merge them
// into the existing list with one backward pass — O(n + m·log m)
// instead of the O(n·m) memmoves of m repeated Adds, and never a full
// re-sort of the n existing records, so a small batch into a large
// shard costs one linear pass (the write pipeline routes even
// single-entity replacements through here).
func (x *SortedNeighborhoodIndex) BulkAdd(es []*entity.Entity) {
	if len(es) == 0 {
		return
	}
	add := make([]snRec, 0, len(es))
	for _, e := range es {
		k := x.key(e)
		x.keyOf[e.ID] = k
		add = append(add, snRec{key: k, e: e})
	}
	sort.Slice(add, func(i, j int) bool { return recLess(add[i], add[j]) })
	n := len(x.recs)
	x.recs = append(x.recs, add...)
	// Backward merge: old records occupy [0, n), add is sorted; filling
	// from the end never overwrites an unread old record.
	i, j := n-1, len(add)-1
	for w := len(x.recs) - 1; j >= 0; w-- {
		if i >= 0 && recLess(add[j], x.recs[i]) {
			x.recs[w] = x.recs[i]
			i--
		} else {
			x.recs[w] = add[j]
			j--
		}
	}
}

// BulkRemove implements BlockIndex: find each doomed record by binary
// search on its recorded (key, ID), then compact the list once from the
// first doomed position. O(m·log n) searches plus one copy of the tail
// instead of the O(n·m) memmoves of m repeated Removes, and no record
// outside the batch is hashed — the batch half of the Apply write
// pipeline.
func (x *SortedNeighborhoodIndex) BulkRemove(es []*entity.Entity) {
	doomed := make([]int, 0, len(es))
	for _, e := range es {
		k, ok := x.keyOf[e.ID]
		if !ok {
			continue
		}
		delete(x.keyOf, e.ID)
		if pos := x.lowerBound(k, e.ID); pos < len(x.recs) && x.recs[pos].e.ID == e.ID {
			doomed = append(doomed, pos)
		}
	}
	if len(doomed) == 0 {
		return
	}
	slices.Sort(doomed)
	w := doomed[0]
	for i, from := range doomed {
		to := len(x.recs)
		if i+1 < len(doomed) {
			to = doomed[i+1]
		}
		w += copy(x.recs[w:], x.recs[from+1:to])
	}
	clear(x.recs[w:])
	x.recs = x.recs[:w]
}

// Remove implements BlockIndex.
func (x *SortedNeighborhoodIndex) Remove(e *entity.Entity) {
	k, ok := x.keyOf[e.ID]
	if !ok {
		return
	}
	delete(x.keyOf, e.ID)
	pos := x.lowerBound(k, e.ID)
	if pos >= len(x.recs) || x.recs[pos].e.ID != e.ID {
		return
	}
	copy(x.recs[pos:], x.recs[pos+1:])
	x.recs[len(x.recs)-1] = snRec{}
	x.recs = x.recs[:len(x.recs)-1]
}

// Candidates implements BlockIndex. The probe's own record, if indexed,
// is skipped over entirely: positions are computed on the list without
// it, so the probe neither pairs with itself nor eats one of its own 2·w
// window slots.
func (x *SortedNeighborhoodIndex) Candidates(probe *entity.Entity, _ int) []*entity.Entity {
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
	lo := pos - x.window
	if lo < 0 {
		lo = 0
	}
	hi := pos + x.window - 1
	if hi > m-1 {
		hi = m - 1
	}
	var out []*entity.Entity
	for i := lo; i <= hi; i++ {
		full := i
		if self >= 0 && i >= self {
			full = i + 1
		}
		out = append(out, x.recs[full].e)
	}
	SortByID(out)
	return out
}

// Each implements BlockIndex: the probe's window of the sorted list is
// read in place — no slice copy and no sort. The window arithmetic
// repeats Candidates' on purpose: Candidates is the reference the
// differentials compare this against, so the two share no code.
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

// Len implements BlockIndex.
func (x *SortedNeighborhoodIndex) Len() int { return len(x.recs) }

// Keys implements BlockIndex.
func (x *SortedNeighborhoodIndex) Keys() int { return len(x.recs) }

// ---------------------------------------------------------------------------
// Multi-pass composite

// MultiIndex unions the candidates of several member indexes — the index
// of MultiPassBlocker (the MultiBlock idea of one index per similarity
// dimension). Every entity is added to and removed from all members; a
// candidate survives if any one member proposes it.
type MultiIndex struct {
	members []BlockIndex
}

// NewMultiIndex composes member indexes into a union.
func NewMultiIndex(members ...BlockIndex) *MultiIndex {
	return &MultiIndex{members: members}
}

// Add implements BlockIndex.
func (x *MultiIndex) Add(e *entity.Entity) {
	for _, m := range x.members {
		m.Add(e)
	}
}

// Remove implements BlockIndex.
func (x *MultiIndex) Remove(e *entity.Entity) {
	for _, m := range x.members {
		m.Remove(e)
	}
}

// BulkAdd implements BlockIndex, forwarding to each member's.
func (x *MultiIndex) BulkAdd(es []*entity.Entity) {
	for _, m := range x.members {
		m.BulkAdd(es)
	}
}

// BulkRemove implements BlockIndex, forwarding to each member's.
func (x *MultiIndex) BulkRemove(es []*entity.Entity) {
	for _, m := range x.members {
		m.BulkRemove(es)
	}
}

// Candidates implements BlockIndex as the deduplicated union of the
// members' candidates.
func (x *MultiIndex) Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity {
	seen := make(map[string]struct{})
	var out []*entity.Entity
	for _, m := range x.members {
		for _, cand := range m.Candidates(probe, maxBlock) {
			if _, dup := seen[cand.ID]; dup {
				continue
			}
			seen[cand.ID] = struct{}{}
			out = append(out, cand)
		}
	}
	SortByID(out)
	return out
}

// Each implements BlockIndex through eachUnion.
func (x *MultiIndex) Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	return eachUnion(x.members, probe, maxBlock, seen, yield)
}

// Len implements BlockIndex.
func (x *MultiIndex) Len() int {
	if len(x.members) == 0 {
		return 0
	}
	return x.members[0].Len()
}

// Keys implements BlockIndex.
func (x *MultiIndex) Keys() int {
	total := 0
	for _, m := range x.members {
		total += m.Keys()
	}
	return total
}

// eachUnion enumerates the members in order sharing seen, so later
// members skip what earlier members already yielded and each candidate
// is yielded exactly once however many members propose it — the
// multi-pass union of both the index and the batch enumeration.
func eachUnion[E Enumerator](members []E, probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool {
	for _, m := range members {
		if !m.Each(probe, maxBlock, seen, yield) {
			return false
		}
	}
	return true
}

// SortByID orders entities by ID: the deterministic order of every
// candidate list and of the service's entity listing.
func SortByID(es []*entity.Entity) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}
