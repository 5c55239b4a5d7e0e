package linkindex

import (
	"sort"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// BlockIndex is the mutable counterpart of a matching.Blocker: instead of
// proposing candidate pairs for two fixed sources in one batch pass, it
// maintains per-entity index structures under Add/Remove and answers
// Candidates for one probe entity at a time.
//
// The contract that the differential property test pins: for every probe,
// Candidates(probe, maxBlock) returns exactly the B-side entities of
// matching.CandidatePairs(blocker, {probe}, survivors∖{probe.ID}, opts) —
// the batch blocker run with the probe as the only A entity against the
// currently indexed entities minus the probe's own record ("remove, then
// query as an external entity"). Self matches are therefore never
// candidates, and an indexed probe does not inflate its own block sizes
// or occupy a slot of its own sorted-neighborhood window.
//
// Implementations are NOT synchronized; Index serializes access. Results
// are sorted by entity ID for determinism.
type BlockIndex interface {
	// Add indexes e. The caller guarantees e.ID is not currently indexed.
	Add(e *entity.Entity)
	// Remove unindexes e. e must be the same entity value that was added
	// (implementations record their keys at Add time, so an entity mutated
	// after Add is still removed cleanly).
	Remove(e *entity.Entity)
	// Candidates returns the indexed entities the strategy pairs with
	// probe, excluding the probe's own record. maxBlock > 0 caps key-block
	// sizes (stop-token suppression); ≤ 0 means unlimited.
	Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity
	// Each enumerates Candidates(probe, maxBlock) without materializing
	// it: yield is called once per candidate, in unspecified order, until
	// it returns false; Each reports whether it ran to completion. IDs
	// already in seen are skipped and every yielded ID is recorded in it,
	// so a caller passing one (initially empty) set to several indexes
	// gets their deduplicated union. Like the other methods it is not
	// synchronized: it runs to completion under the caller's lock, and
	// yield must not write to the index.
	Each(probe *entity.Entity, maxBlock int, seen map[string]struct{}, yield func(*entity.Entity) bool) bool
	// Len returns the number of indexed entities.
	Len() int
	// Keys returns the number of key entries held (diagnostic: tokens,
	// q-grams, sorted-list records... depending on the strategy).
	Keys() int
}

// BulkAdder is implemented by BlockIndexes with a batch-load fast path.
// BulkAdd has Add's contract for every element (no ID currently indexed,
// and IDs unique within the batch); bulkAdd falls back to per-entity Add
// for indexes that don't implement it.
type BulkAdder interface {
	BulkAdd(es []*entity.Entity)
}

// bulkAdd loads a batch through the index's fast path if it has one.
func bulkAdd(bi BlockIndex, es []*entity.Entity) {
	if ba, ok := bi.(BulkAdder); ok {
		ba.BulkAdd(es)
		return
	}
	for _, e := range es {
		bi.Add(e)
	}
}

// BulkRemover is implemented by BlockIndexes with a batch-unindex fast
// path. BulkRemove has Remove's contract for every element; bulkRemove
// falls back to per-entity Remove for indexes that don't implement it.
type BulkRemover interface {
	BulkRemove(es []*entity.Entity)
}

// bulkRemove unindexes a batch through the index's fast path if it has
// one.
func bulkRemove(bi BlockIndex, es []*entity.Entity) {
	if br, ok := bi.(BulkRemover); ok {
		br.BulkRemove(es)
		return
	}
	for _, e := range es {
		bi.Remove(e)
	}
}

// NewBlockIndex returns the incremental index matching a blocker
// strategy: inverted key maps for token and q-gram blocking, an
// order-maintained sorted list for sorted-neighborhood, a MultiIndex for
// multi-pass composites, and a generic re-blocking fallback for unknown
// strategies — so any matching.Blocker can be served incrementally,
// just not always at indexed speed.
func NewBlockIndex(bl matching.Blocker) BlockIndex {
	switch b := bl.(type) {
	case matching.TokenBlocker:
		return NewTokenIndex()
	case matching.QGramBlocker:
		return NewQGramIndex(b.Q)
	case matching.SortedNeighborhoodBlocker:
		return NewSortedNeighborhoodIndex(b.Window, b.Key)
	case matching.MultiPassBlocker:
		members := make([]BlockIndex, len(b.Passes))
		for i, p := range b.Passes {
			members[i] = NewBlockIndex(p)
		}
		return NewMultiIndex(members...)
	default:
		return NewGenericIndex(bl)
	}
}

// ---------------------------------------------------------------------------
// Inverted key maps (token, q-gram)

// keyedIndex is the shared inverted-map core of TokenIndex and
// QGramIndex: key → (entity ID → entity), plus the keys recorded for each
// entity at Add time so Remove never depends on re-deriving keys from a
// possibly-mutated entity.
type keyedIndex struct {
	keys   func(*entity.Entity) []string
	byKey  map[string]map[string]*entity.Entity
	keysOf map[string][]string
}

func newKeyedIndex(keys func(*entity.Entity) []string) *keyedIndex {
	return &keyedIndex{
		keys:   keys,
		byKey:  make(map[string]map[string]*entity.Entity),
		keysOf: make(map[string][]string),
	}
}

// Add implements BlockIndex.
func (x *keyedIndex) Add(e *entity.Entity) {
	ks := x.keys(e)
	x.keysOf[e.ID] = ks
	for _, k := range ks {
		block := x.byKey[k]
		if block == nil {
			block = make(map[string]*entity.Entity)
			x.byKey[k] = block
		}
		block[e.ID] = e
	}
}

// Remove implements BlockIndex.
func (x *keyedIndex) Remove(e *entity.Entity) {
	ks, ok := x.keysOf[e.ID]
	if !ok {
		return
	}
	delete(x.keysOf, e.ID)
	for _, k := range ks {
		block := x.byKey[k]
		delete(block, e.ID)
		if len(block) == 0 {
			delete(x.byKey, k)
		}
	}
}

// Candidates implements BlockIndex. Block sizes are measured without the
// probe's own record, mirroring a batch run over the corpus minus the
// probe: a block that is exactly at the cap must not flip to skipped just
// because the probe itself is a member.
func (x *keyedIndex) Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity {
	seen := make(map[string]struct{})
	var out []*entity.Entity
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
			out = append(out, cand)
		}
	}
	sortByID(out)
	return out
}

// Len implements BlockIndex.
func (x *keyedIndex) Len() int { return len(x.keysOf) }

// Keys implements BlockIndex.
func (x *keyedIndex) Keys() int { return len(x.byKey) }

// TokenIndex is the incremental form of matching.TokenBlocker: an
// inverted map from lowercased value tokens to the entities containing
// them.
type TokenIndex struct{ *keyedIndex }

// NewTokenIndex returns an empty token index.
func NewTokenIndex() TokenIndex {
	return TokenIndex{newKeyedIndex(matching.Tokens)}
}

// QGramIndex is the incremental form of matching.QGramBlocker: an
// inverted map from character q-grams to the entities containing them.
type QGramIndex struct{ *keyedIndex }

// NewQGramIndex returns an empty q-gram index (q ≤ 0 means 3).
func NewQGramIndex(q int) QGramIndex {
	return QGramIndex{newKeyedIndex(func(e *entity.Entity) []string {
		return matching.QGramKeys(e, q)
	})}
}

// ---------------------------------------------------------------------------
// Sorted neighborhood

// snRec is one entry of the order-maintained sorted list.
type snRec struct {
	key string
	e   *entity.Entity
}

// SortedNeighborhoodIndex is the incremental form of
// matching.SortedNeighborhoodBlocker: an order-maintained list sorted by
// (sort key, entity ID). Add and Remove locate the position by binary
// search and shift the tail (O(log n) search + O(n) memmove — fine up to
// hundreds of thousands of entities; the constant is a single copy of
// pointer-sized records). Candidates virtually inserts the probe at its
// sorted position and returns the entities within the window on either
// side, exactly the pairs the batch windowed scan would generate for a
// singleton A source.
type SortedNeighborhoodIndex struct {
	window int
	key    func(*entity.Entity) string
	recs   []snRec
	keyOf  map[string]string // entity ID → sort key recorded at Add time
}

// NewSortedNeighborhoodIndex returns an empty sorted-neighborhood index
// (window ≤ 0 means 10, key nil means matching.DefaultSortKey).
func NewSortedNeighborhoodIndex(window int, key func(*entity.Entity) string) *SortedNeighborhoodIndex {
	if window <= 0 {
		window = 10
	}
	if key == nil {
		key = matching.DefaultSortKey
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

// BulkAdd implements BulkAdder: sort the m new records, then merge them
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

// BulkRemove implements BulkRemover: mark every doomed record, then
// compact the list in one pass. O(n + m) instead of the O(n·m) memmoves
// of m repeated Removes — the batch half of the Apply write pipeline.
func (x *SortedNeighborhoodIndex) BulkRemove(es []*entity.Entity) {
	drop := make(map[string]struct{}, len(es))
	for _, e := range es {
		if _, ok := x.keyOf[e.ID]; ok {
			drop[e.ID] = struct{}{}
			delete(x.keyOf, e.ID)
		}
	}
	if len(drop) == 0 {
		return
	}
	kept := x.recs[:0]
	for _, r := range x.recs {
		if _, doomed := drop[r.e.ID]; !doomed {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(x.recs); i++ {
		x.recs[i] = snRec{}
	}
	x.recs = kept
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
	sortByID(out)
	return out
}

// Len implements BlockIndex.
func (x *SortedNeighborhoodIndex) Len() int { return len(x.recs) }

// Keys implements BlockIndex.
func (x *SortedNeighborhoodIndex) Keys() int { return len(x.recs) }

// ---------------------------------------------------------------------------
// Multi-pass composite

// MultiIndex unions the candidates of several member indexes — the
// incremental mirror of matching.MultiPassBlocker (the MultiBlock idea of
// one index per similarity dimension). Every entity is added to and
// removed from all members; a candidate survives if any one member
// proposes it.
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

// BulkAdd implements BulkAdder, forwarding each member's fast path.
func (x *MultiIndex) BulkAdd(es []*entity.Entity) {
	for _, m := range x.members {
		bulkAdd(m, es)
	}
}

// BulkRemove implements BulkRemover, forwarding each member's fast path.
func (x *MultiIndex) BulkRemove(es []*entity.Entity) {
	for _, m := range x.members {
		bulkRemove(m, es)
	}
}

// Remove implements BlockIndex.
func (x *MultiIndex) Remove(e *entity.Entity) {
	for _, m := range x.members {
		m.Remove(e)
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
	sortByID(out)
	return out
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

// ---------------------------------------------------------------------------
// Generic fallback

// GenericIndex adapts an arbitrary matching.Blocker with no incremental
// structure: it keeps the entities and re-runs the batch blocker with the
// probe as a singleton A source on every query. Correct for any strategy
// (the differential contract holds by construction) but O(corpus) per
// query — the fallback that lets Index wrap blockers it has never heard
// of.
type GenericIndex struct {
	bl       matching.Blocker
	entities map[string]*entity.Entity
}

// NewGenericIndex returns a generic re-blocking index over bl.
func NewGenericIndex(bl matching.Blocker) *GenericIndex {
	return &GenericIndex{bl: bl, entities: make(map[string]*entity.Entity)}
}

// Add implements BlockIndex.
func (x *GenericIndex) Add(e *entity.Entity) { x.entities[e.ID] = e }

// Remove implements BlockIndex.
func (x *GenericIndex) Remove(e *entity.Entity) { delete(x.entities, e.ID) }

// Candidates implements BlockIndex by running the batch blocker over
// {probe} × (indexed ∖ {probe.ID}).
func (x *GenericIndex) Candidates(probe *entity.Entity, maxBlock int) []*entity.Entity {
	a := entity.NewSource("probe")
	a.Add(probe)
	rest := make([]*entity.Entity, 0, len(x.entities))
	for id, e := range x.entities {
		if id == probe.ID {
			continue
		}
		rest = append(rest, e)
	}
	sortByID(rest)
	b := entity.NewSource("indexed")
	for _, e := range rest {
		b.Add(e)
	}
	opts := matching.Options{MaxBlockSize: maxBlock}
	if maxBlock <= 0 {
		opts.MaxBlockSize = -1 // CandidatePairs treats 0 as "derive default"
	}
	pairs := matching.CandidatePairs(x.bl, a, b, opts)
	out := make([]*entity.Entity, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, p.B)
	}
	sortByID(out)
	return out
}

// Len implements BlockIndex.
func (x *GenericIndex) Len() int { return len(x.entities) }

// Keys implements BlockIndex.
func (x *GenericIndex) Keys() int { return len(x.entities) }

// sortByID orders entities by ID (deterministic candidate output).
func sortByID(es []*entity.Entity) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}
