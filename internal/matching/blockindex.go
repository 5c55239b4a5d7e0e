package matching

import (
	"cmp"
	"slices"
	"sort"

	"genlink/internal/entity"
)

// BlockIndex is the mutable form of a Blocker: instead of proposing
// candidate pairs for two fixed sources, it maintains per-entity index
// structures under writes and answers Candidates for one probe entity
// at a time. Every Blocker builds one (NewBlockIndex). It serves a rule
// without an edit bound: batch matching bulk-loads B into one and probes
// it with every A entity, and each shard of internal/linkindex keeps one
// as its CandidateIndex (a rule with an edit bound gets a RuleIndex
// there instead).
//
// The contract the differential tests pin: for every probe,
// Candidates(probe, maxBlock) returns exactly the B-side entities the
// reference batch materializer proposes with the probe as the only A
// entity against the currently indexed entities minus the probe's own
// record ("remove, then query as an external entity"). Self matches are
// therefore never candidates, and an indexed probe does not inflate its
// own block sizes or occupy a slot of its own sorted-neighborhood window.
//
// Each indexed entity holds an int32 slot of the index's one entity
// table: Each yields candidates as slots, and a caller keeping per-entity
// data (a shard's scoring records) keeps it in a slice indexed by slot.
//
// Keys are sorted: Tokens and qgramCodes return each entity's keys
// sorted and unique, which is what lets a keyed pass tell by one merge
// walk which of a probe's blocks hold its own record.
//
// The index is NOT synchronized: writes need the caller's lock, and
// Candidates/Each may run concurrently only with each other.
type BlockIndex interface {
	// Add indexes e. The caller guarantees e.ID is not currently indexed.
	Add(e *entity.Entity)
	BulkAdder
	// BulkRemove unindexes the entities with the given IDs and returns
	// the slots it freed; IDs not indexed, or listed twice, are skipped.
	BulkRemove(ids []string) []int32
	// Slot returns the slot of the indexed entity with the given ID.
	Slot(id string) (int32, bool)
	// Candidates returns the indexed entities the strategy pairs with
	// probe, excluding the probe's own record, sorted by ID. maxBlock > 0
	// caps key-block sizes (stop-token suppression); ≤ 0 means unlimited.
	Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity
	// Enumerator's Each enumerates Candidates(probe, maxBlock) as slots.
	Enumerator
	// Len returns the number of indexed entities.
	Len() int
	// Keys returns the size of the blocker's passes, summed (diagnostic):
	// a token or q-gram pass counts its distinct keys, a
	// sorted-neighborhood pass its records.
	Keys() int
}

// BulkAdder is the batch-load half of BlockIndex. BulkAdd has Add's
// contract for every element (no ID currently indexed, and IDs unique
// within the batch) and returns the slot each took. Freed slots are
// reused, and new ones are numbered in order: a fresh index loaded in
// one BulkAdd gives each entity its position in es.
type BulkAdder interface {
	BulkAdd(es []*entity.Entity) []int32
}

// NewBlockIndex returns an empty incremental index of the blocker's
// strategy: one entity table and one pass per strategy of the blocker
// (a multi-pass composite's members, in order).
func NewBlockIndex(bl Blocker) BlockIndex {
	return &blockIndex{table: newTable(), passes: bl.appendPasses(nil)}
}

// table is an index's entity table: it gives every indexed entity an
// int32 slot, and reuses freed slots. slotOf maps the entity ID to its
// slot; slots counts the slots ever taken, so new ones are numbered in
// order. Every pass keys by slot, so a write hashes the entity ID once
// however many passes there are, and the table is the only record of
// which entities are indexed.
type table struct {
	slotOf map[string]int32
	free   []int32
	slots  int32
}

func newTable() table { return table{slotOf: make(map[string]int32)} }

// grow makes room for n more IDs: an empty table's map is made for n.
func (t *table) grow(n int) {
	if len(t.slotOf) == 0 {
		t.slotOf = make(map[string]int32, n)
	}
}

// take gives id a slot, the last freed one if any.
func (t *table) take(id string) int32 {
	s := t.slots
	if n := len(t.free); n > 0 {
		s, t.free = t.free[n-1], t.free[:n-1]
	} else {
		t.slots++
	}
	t.slotOf[id] = s
	return s
}

// drop unindexes the IDs and returns their slots, skipping IDs not
// indexed or listed twice. The slots are not free until release: the
// passes read them first.
func (t *table) drop(ids []string) []int32 {
	slots := make([]int32, 0, len(ids))
	for _, id := range ids {
		if s, ok := t.slotOf[id]; ok {
			delete(t.slotOf, id)
			slots = append(slots, s)
		}
	}
	return slots
}

// release frees the slots drop returned.
func (t *table) release(slots []int32) { t.free = append(t.free, slots...) }

// Slot returns the slot of the indexed entity with the given ID
// (BlockIndex.Slot, and RuleIndex's).
func (t *table) Slot(id string) (int32, bool) {
	s, ok := t.slotOf[id]
	return s, ok
}

// Len returns the number of indexed entities (BlockIndex.Len, and
// RuleIndex's).
func (t *table) Len() int { return len(t.slotOf) }

// blockIndex is the one BlockIndex: an entity table and the blocker's
// passes over it, with ents holding the entity at each slot (nil when
// free). A candidate is yielded by the first pass that proposes it;
// later passes skip its slot through seen (the multi-pass union). A
// write tokenizes each entity once and a query its probe once, and every
// pass reads that one slice.
type blockIndex struct {
	table
	ents   []*entity.Entity
	passes []pass
}

// pass is one blocking strategy's structure over the table's slots:
// slot posting lists for token and q-gram blocking (keyedPass), a
// (key, slot) sorted list for sorted-neighborhood (snPass).
type pass interface {
	// add indexes the entities at slots, just taken in the table;
	// toks[i] is the Tokens of the entity at slots[i].
	add(x *blockIndex, slots []int32, toks [][]string)
	// remove unindexes slots; their entities are still in the table.
	remove(x *blockIndex, slots []int32)
	// each is Each for this pass; toks is the probe's Tokens and self is
	// the slot of the probe's own record, or -1 when probe.ID is not
	// indexed.
	each(x *blockIndex, probe *entity.Entity, toks []string, self int32, maxBlock int, seen *SlotSet, yield func(slot int32) bool) bool
	// keys is the pass's share of Keys.
	keys() int
}

// Add implements BlockIndex.
func (x *blockIndex) Add(e *entity.Entity) { x.BulkAdd([]*entity.Entity{e}) }

// BulkAdd implements BlockIndex: every entity takes a slot and is
// tokenized once, then every pass indexes the new slots at once.
func (x *blockIndex) BulkAdd(es []*entity.Entity) []int32 {
	slots := make([]int32, len(es))
	toks := make([][]string, len(es))
	for i, e := range es {
		slots[i] = x.take(e.ID)
		x.ents = grown(x.ents, int(x.slots))
		x.ents[slots[i]] = e
		toks[i] = Tokens(e)
	}
	for _, p := range x.passes {
		p.add(x, slots, toks)
	}
	return slots
}

// BulkRemove implements BlockIndex: every pass unindexes the entities'
// slots at once, then the table frees them.
func (x *blockIndex) BulkRemove(ids []string) []int32 {
	slots := x.drop(ids)
	for _, p := range x.passes {
		p.remove(x, slots)
	}
	for _, s := range slots {
		x.ents[s] = nil
	}
	x.release(slots)
	return slots
}

// Candidates implements BlockIndex: Each, collected and sorted.
func (x *blockIndex) Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity {
	var out []*entity.Entity
	x.Each(probe, maxBlock, new(SlotSet), func(s int32) bool {
		out = append(out, x.ents[s])
		return true
	})
	SortByID(out)
	return out
}

// Each implements BlockIndex: the probe tokenized once, then the passes
// in order, sharing seen, so each candidate is yielded once however many
// passes propose it.
func (x *blockIndex) Each(probe *entity.Entity, maxBlock int, seen *SlotSet, yield func(slot int32) bool) bool {
	self := int32(-1)
	if s, ok := x.slotOf[probe.ID]; ok {
		self = s
	}
	toks := Tokens(probe)
	for _, p := range x.passes {
		if !p.each(x, probe, toks, self, maxBlock, seen, yield) {
			return false
		}
	}
	return true
}

// Keys implements BlockIndex.
func (x *blockIndex) Keys() int {
	n := 0
	for _, p := range x.passes {
		n += p.keys()
	}
	return n
}

// SlotSet is the seen set Each deduplicates candidates through: a bitset
// over slots that also lists the slots it holds, so Clear zeroes only
// the words they set, O(members) however many slots the table has. The
// zero value is an empty set.
type SlotSet struct {
	bits    []uint64
	members []int32
}

// Add inserts slot s and reports whether it was not yet in the set.
func (ss *SlotSet) Add(s int32) bool {
	w, bit := int(s>>6), uint64(1)<<(s&63)
	ss.bits = grown(ss.bits, w+1)
	if ss.bits[w]&bit != 0 {
		return false
	}
	ss.bits[w] |= bit
	ss.members = append(ss.members, s)
	return true
}

// Clear empties the set.
func (ss *SlotSet) Clear() {
	for _, s := range ss.members {
		ss.bits[s>>6] = 0
	}
	ss.members = ss.members[:0]
}

// grown extends s with zero values to length n.
func grown[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// ---------------------------------------------------------------------------
// Slot posting lists (token, q-gram, rule)

// keyedPass is the pass of TokenBlocker (string keys: the tokens) and
// QGramBlocker (uint64 keys: the packed q-grams, packGram), and
// RuleIndex's one pass (uint64 keys a served rule derives from the
// entity): every key maps to the posting list of the slots whose entity
// carries it. A list's array holds its length and then its slots, with
// room to grow, so adding a slot to a key's list looks the key up once
// and writes the map only when the array moves to one twice its size;
// reading a list is the one lookup. The
// lists hold no pointers, so the garbage collector never scans them, and
// neither do a q-gram slot's keys. add appends the slot to one list per
// key; remove swap-removes it from each, fixing the moved slot's
// position by binary search in that slot's sorted keys — O(keys · log
// keys), whatever the block sizes.
type keyedPass[K cmp.Ordered] struct {
	keyFn    func(e *entity.Entity, toks []string) []K // toks: e's Tokens; sorted, unique; nil in RuleIndex
	postings map[K][]int32                             // key → [n, slot₁ … slotₙ, room]
	slots    []keyedSlot[K]                            // by table slot
}

// keyedSlot is one slot's keys, recorded at add time so remove never
// re-derives keys from a possibly mutated entity. pos[i] is the slot's
// position in postings[keys[i]]. A free slot has no keys.
type keyedSlot[K cmp.Ordered] struct {
	keys []K
	pos  []int32
}

func newKeyedPass[K cmp.Ordered](keyFn func(e *entity.Entity, toks []string) []K) *keyedPass[K] {
	return &keyedPass[K]{keyFn: keyFn, postings: make(map[K][]int32)}
}

// list returns the slots of key k's posting list, nil when no slot
// carries k.
func (p *keyedPass[K]) list(k K) []int32 {
	if l := p.postings[k]; l != nil {
		return l[1 : 1+l[0]]
	}
	return nil
}

func (p *keyedPass[K]) add(x *blockIndex, slots []int32, toks [][]string) {
	p.slots = grown(p.slots, len(x.ents))
	for i, s := range slots {
		p.put(s, p.keyFn(x.ents[s], toks[i]))
	}
}

// put indexes slot s, below len(p.slots), under keys, sorted and unique.
func (p *keyedPass[K]) put(s int32, keys []K) {
	sl := &p.slots[s]
	sl.keys = keys
	sl.pos = slices.Grow(sl.pos, len(keys))
	for _, k := range keys {
		l := p.postings[k]
		var n int32
		if l != nil {
			n = l[0]
		}
		if int(n)+1 >= len(l) {
			moved := make([]int32, max(2, 2*len(l)))
			copy(moved, l)
			l = moved
			p.postings[k] = l
		}
		l[0], l[n+1] = n+1, s
		sl.pos = append(sl.pos, n)
	}
}

func (p *keyedPass[K]) remove(_ *blockIndex, slots []int32) {
	for _, s := range slots {
		sl := &p.slots[s]
		for i, k := range sl.keys {
			l := p.postings[k]
			list := l[1 : 1+l[0]]
			last := int32(len(list) - 1)
			if last == 0 {
				delete(p.postings, k)
				continue
			}
			if q := sl.pos[i]; q != last {
				moved := &p.slots[list[last]]
				list[q] = list[last]
				j, _ := slices.BinarySearch(moved.keys, k)
				moved.pos[j] = q
			}
			l[0] = last
		}
		*sl = keyedSlot[K]{pos: sl.pos[:0]}
	}
}

// each ranges the probe's posting lists in place, one at a time. A
// block's size is measured without the probe's own record (the
// CapAllows policy): both the probe's keys and the keys recorded for
// its slot are sorted, so one merge walk tells which blocks hold that
// record, and the record itself is skipped by its slot.
func (p *keyedPass[K]) each(_ *blockIndex, probe *entity.Entity, toks []string, self int32, maxBlock int, seen *SlotSet, yield func(slot int32) bool) bool {
	var selfKeys []K
	if self >= 0 {
		selfKeys = p.slots[self].keys
	}
	for _, k := range p.keyFn(probe, toks) {
		list := p.list(k)
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
			if s != self && seen.Add(s) && !yield(s) {
				return false
			}
		}
	}
	return true
}

func (p *keyedPass[K]) keys() int { return len(p.postings) }

// ---------------------------------------------------------------------------
// Sorted neighborhood

// snPass is the pass of SortedNeighborhoodBlocker: an order-maintained
// list of (sort key, slot) sorted by (sort key, entity ID). add merges
// the new records in with one backward pass and remove compacts the list
// once from the first doomed position, both locating records by binary
// search — O(n) per batch, a single copy of the list's tail. each
// virtually inserts the probe at its sorted position and yields the
// entities within the window on either side: the window is over the
// indexed entities alone, which is the batch scan's window for a
// singleton A source (see snStreamer for why batch matching with many A
// entities keeps its own merged-order window).
type snPass struct {
	window int
	keyFn  func(*entity.Entity) string // nil: the joined Tokens (DefaultSortKey)
	recs   []snRec
	keyOf  []string // by table slot: the key recorded at add time
}

// snRec is one entry of the sorted list.
type snRec struct {
	key string
	s   int32
}

// sortKey is the sort key of e, whose Tokens are toks.
func (p *snPass) sortKey(e *entity.Entity, toks []string) string {
	if p.keyFn == nil {
		return joinTokens(toks)
	}
	return p.keyFn(e)
}

// less is the sorted-list order: (sort key, entity ID).
func (p *snPass) less(x *blockIndex, a, b snRec) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return x.ents[a.s].ID < x.ents[b.s].ID
}

// lowerBound returns the first position whose record sorts at or after
// (key, id).
func (p *snPass) lowerBound(x *blockIndex, key, id string) int {
	return sort.Search(len(p.recs), func(i int) bool {
		r := p.recs[i]
		if r.key != key {
			return r.key > key
		}
		return x.ents[r.s].ID >= id
	})
}

// add sorts the m new records, then merges them into the list with one
// backward pass — O(n + m·log m) instead of m memmoves, and never a full
// re-sort of the n existing records.
func (p *snPass) add(x *blockIndex, slots []int32, toks [][]string) {
	if len(slots) == 0 {
		return
	}
	p.keyOf = grown(p.keyOf, len(x.ents))
	add := make([]snRec, 0, len(slots))
	for i, s := range slots {
		k := p.sortKey(x.ents[s], toks[i])
		p.keyOf[s] = k
		add = append(add, snRec{key: k, s: s})
	}
	sort.Slice(add, func(i, j int) bool { return p.less(x, add[i], add[j]) })
	n := len(p.recs)
	p.recs = append(p.recs, add...)
	// Backward merge: old records occupy [0, n), add is sorted; filling
	// from the end never overwrites an unread old record.
	i, j := n-1, len(add)-1
	for w := len(p.recs) - 1; j >= 0; w-- {
		if i >= 0 && p.less(x, add[j], p.recs[i]) {
			p.recs[w] = p.recs[i]
			i--
		} else {
			p.recs[w] = add[j]
			j--
		}
	}
}

// remove finds each doomed record by binary search on its recorded
// (key, ID), then compacts the list once from the first doomed position.
func (p *snPass) remove(x *blockIndex, slots []int32) {
	if len(slots) == 0 {
		return
	}
	doomed := make([]int, 0, len(slots))
	for _, s := range slots {
		doomed = append(doomed, p.lowerBound(x, p.keyOf[s], x.ents[s].ID))
		p.keyOf[s] = ""
	}
	slices.Sort(doomed)
	w := doomed[0]
	for i, from := range doomed {
		to := len(p.recs)
		if i+1 < len(doomed) {
			to = doomed[i+1]
		}
		w += copy(p.recs[w:], p.recs[from+1:to])
	}
	clear(p.recs[w:])
	p.recs = p.recs[:w]
}

// each reads the probe's window of the sorted list in place. The probe's
// own record, if indexed, is skipped over entirely: positions are
// computed on the list without it (found by the key recorded for its
// slot, not the probe's), so the probe neither pairs with itself nor
// eats one of its own 2·w window slots.
func (p *snPass) each(x *blockIndex, probe *entity.Entity, toks []string, self int32, _ int, seen *SlotSet, yield func(slot int32) bool) bool {
	pos := p.lowerBound(x, p.sortKey(probe, toks), probe.ID)
	selfPos, m := -1, len(p.recs)
	if self >= 0 {
		selfPos, m = p.lowerBound(x, p.keyOf[self], probe.ID), m-1
		if selfPos < pos {
			pos--
		}
	}
	for i := max(pos-p.window, 0); i < min(pos+p.window, m); i++ {
		full := i
		if selfPos >= 0 && i >= selfPos {
			full++
		}
		if s := p.recs[full].s; seen.Add(s) && !yield(s) {
			return false
		}
	}
	return true
}

func (p *snPass) keys() int { return len(p.recs) }

// SortByID orders entities by ID: the deterministic order of every
// candidate list and of the service's entity listing.
func SortByID(es []*entity.Entity) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}
