package matching

import (
	"fmt"
	"slices"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/similarity"
)

// CandidateSource is what serves a compiled rule's candidates at a
// threshold, as NewCandidateSource decides it: each shard of the
// matching service (internal/linkindex) keeps one of its indexes, and
// batch matching (MatchParallel) loads B into one. When the rule has a
// necessary levenshtein comparison at the threshold
// (evalengine.Compiled.EditBound: every link is within K edits between
// the probe's A-side and the candidate's B-side values), it is the rule
// index: a RuleIndex of the PassJoin segment keys of the stored records'
// B-side values (similarity.EditSegmentKeys). A probe enumerates the
// postings of its keys (similarity.EditProbeKeys), one of which every
// stored entity within K holds, and checks each candidate against the
// bound (EditBound.Within) in two steps: the values' letter-count
// sketches (similarity.SketchBound), a lower bound that rejects most
// candidates without reading their values, and then Myers' bounded
// distance on the survivors. Keys, sketch and Myers each drop only
// entities further than K, so the links are exactly those of scoring
// every stored entity. Otherwise it is the blocker's.
type CandidateSource interface {
	// String names the source: the rule index and its K, or the blocker.
	String() string
	// NewIndex returns an empty index of the source.
	NewIndex() CandidateIndex
	// StoredKeys returns what the index stores of recs, by position (nil
	// for a blocker): a pure function of the records, which a writer
	// derives before it takes its lock.
	StoredKeys(recs []*evalengine.Record) []Stored
	// ProbeKeys returns the keys a query of the probe enumerates, derived
	// once however many indexes it reads: nil for a blocker and for a
	// probe whose bound (Probe.Upper) misses the threshold.
	ProbeKeys(probe *evalengine.Record) []uint64
	// batch loads bs, whose records are rbs, to be probed with as; the
	// enumerators it returns yield positions in bs.
	batch(as, bs []*entity.Entity, rbs []*evalengine.Record) func(probe *evalengine.Record) Enumerator
}

// Stored is what a rule index stores of one record, derived by
// CandidateSource.StoredKeys: its segment keys, sorted and unique, and
// its indexed values with their shapes, which the index's check reads.
type Stored struct {
	Keys []uint64
	Edit similarity.EditSet
}

// CandidateIndex is a CandidateSource's mutable index: Slot, Len, Keys,
// BulkAdd and BulkRemove have BlockIndex's contracts, BulkAdd taking the
// entity versions, as the service stores them, with their records and
// the records' StoredKeys, and For returns the enumerator of a probe's
// candidates, keys being its ProbeKeys. Entity returns the entity at a
// live slot where the index keeps entities — a blocker's table builds
// them (entity.Encoded.Entity) for its enumeration — and nil where it
// keeps none: a rule index reads the records alone. Grow makes room for
// n more entities, so that a restore that knows its size sizes the
// entity table and the per-slot arrays once. Like BlockIndex it is NOT
// synchronized.
type CandidateIndex interface {
	Grow(n int)
	Slot(id string) (int32, bool)
	Len() int
	Keys() int
	BulkAdd(es []entity.Encoded, recs []*evalengine.Record, stored []Stored) []int32
	BulkRemove(ids []string) []int32
	For(probe *evalengine.Record, keys []uint64) Enumerator
	Entity(slot int32) *entity.Entity
}

// NewCandidateSource decides what serves the compiled rule c under
// opts: the rule index when c has an edit bound at opts.Threshold, and
// opts.Blocker otherwise. opts must be normalized: a nonzero threshold
// and a blocker.
func NewCandidateSource(c *evalengine.Compiled, opts Options) CandidateSource {
	if eb, ok := c.EditBound(opts.Threshold); ok {
		return &ruleSource{c: c, threshold: opts.Threshold, edit: eb}
	}
	return blockerSource{opts.Blocker}
}

// blockerSource is the source of a rule without an edit bound.
type blockerSource struct{ bl Blocker }

func (s blockerSource) String() string                         { return "blocker " + s.bl.Name() }
func (s blockerSource) NewIndex() CandidateIndex               { return blocks{NewBlockIndex(s.bl).(*blockIndex)} }
func (blockerSource) StoredKeys([]*evalengine.Record) []Stored { return nil }
func (blockerSource) ProbeKeys(*evalengine.Record) []uint64    { return nil }
func (s blockerSource) batch(as, bs []*entity.Entity, _ []*evalengine.Record) func(*evalengine.Record) Enumerator {
	en := newEnumerator(s.bl, as, bs)
	return func(*evalengine.Record) Enumerator { return en }
}

// blocks is a BlockIndex as a CandidateIndex.
type blocks struct{ *blockIndex }

func (x blocks) BulkAdd(es []entity.Encoded, _ []*evalengine.Record, _ []Stored) []int32 {
	ents := make([]*entity.Entity, len(es))
	for i := range es {
		ents[i] = es[i].Entity()
	}
	return x.blockIndex.BulkAdd(ents)
}

func (x blocks) For(*evalengine.Record, []uint64) Enumerator { return x.blockIndex }

// Grow implements CandidateIndex: the table and the entity slots.
func (x blocks) Grow(n int) {
	x.table.grow(n)
	x.ents = slices.Grow(x.ents, n)
}

func (x blocks) Entity(slot int32) *entity.Entity { return x.ents[slot] }

// ruleSource is the source of a rule with an edit bound.
type ruleSource struct {
	c         *evalengine.Compiled
	threshold float64
	edit      evalengine.EditBound
}

func (s *ruleSource) String() string {
	return fmt.Sprintf("rule index (levenshtein ≤ %d, verified)", s.edit.K)
}

func (s *ruleSource) NewIndex() CandidateIndex { return NewRuleIndex(&s.edit) }

// StoredKeys implements CandidateSource: the segment keys of each
// record's B-side values, sorted and unique, and the values' edit set,
// derived once per entity version.
func (s *ruleSource) StoredKeys(recs []*evalengine.Record) []Stored {
	k := s.edit.K
	stored := make([]Stored, len(recs))
	// The shapes of one-value sets share one array: RuleIndex.BulkAdd
	// copies such a shape out, so the array does not outlive the add.
	shapes := make([]similarity.EditShape, len(recs))
	for i, r := range recs {
		values := s.edit.Indexed(r)
		// A value has K + 1 keys, or one when it is no longer than K.
		ks := similarity.EditSegmentKeys(make([]uint64, 0, len(values)*(k+1)), values, k)
		slices.Sort(ks)
		stored[i].Keys = slices.Compact(ks)
		if len(values) == 1 {
			shapes[i] = similarity.NewEditShape(values[0])
			stored[i].Edit = similarity.EditSet{Values: values, Shapes: shapes[i : i+1]}
		} else {
			stored[i].Edit = similarity.NewEditSet(values)
		}
	}
	return stored
}

// ProbeKeys implements CandidateSource: the keys of the A-side values.
func (s *ruleSource) ProbeKeys(r *evalengine.Record) []uint64 {
	if s.c.Bind(r).Upper() < s.threshold {
		return nil
	}
	values, k := s.edit.Probe(r), s.edit.K
	// A value has at most (2K + 1)(K²/2 + K + 1) keys, one batch of them
	// per length within K of its own. A key repeats only where two of the
	// windows hold equal substrings; RuleIndex.Each yields its slots once
	// all the same.
	return similarity.EditProbeKeys(make([]uint64, 0, len(values)*(2*k+1)*(k*k/2+k+1)), values, k)
}

func (s *ruleSource) batch(_, _ []*entity.Entity, rbs []*evalengine.Record) func(*evalengine.Record) Enumerator {
	x := s.NewIndex()
	x.BulkAdd(nil, rbs, s.StoredKeys(rbs))
	return func(probe *evalengine.Record) Enumerator { return x.For(probe, s.ProbeKeys(probe)) }
}

// RuleIndex is the index of a rule with an edit bound: an entity table
// like a BlockIndex's with, in place of a blocker's passes, one pass of
// posting lists of uint64 keys (StoredKeys), and at each live slot the
// bound's B-side values of the record there (EditBound.Indexed) with
// each value's sketch and rune count, derived with the keys before the
// writer's lock (Stored.Edit), which For's enumerator checks. Each
// yields the slots holding any of a probe's keys, each once: all of
// them, with no block-size cap, because a cap would drop candidates the
// bound admits. The index derives no key itself and tokenizes nothing.
// Like BlockIndex it is NOT synchronized.
type RuleIndex struct {
	table
	pass    *keyedPass[uint64]
	edit    *evalengine.EditBound
	indexed indexedValues
}

// NewRuleIndex returns an empty rule index whose For checks candidates
// against eb. An index that Add and Each alone read needs none (nil).
func NewRuleIndex(eb *evalengine.EditBound) *RuleIndex {
	return &RuleIndex{table: newTable(), pass: newKeyedPass[uint64](nil), edit: eb}
}

// Add indexes the entity with the given ID under keys, sorted and
// unique, and returns the slot it took, as BlockIndex.BulkAdd does: the
// ID must not be indexed already, freed slots are reused and new ones
// numbered in order.
func (x *RuleIndex) Add(id string, keys []uint64) int32 {
	s := x.take(id)
	x.pass.slots = grown(x.pass.slots, int(x.slots))
	x.pass.put(s, keys)
	return s
}

// Grow implements CandidateIndex.
func (x *RuleIndex) Grow(n int) {
	x.table.grow(n)
	x.pass.slots = slices.Grow(x.pass.slots, n)
	x.indexed.one = slices.Grow(x.indexed.one, n)
	x.indexed.shape = slices.Grow(x.indexed.shape, n)
	x.indexed.many = slices.Grow(x.indexed.many, n)
}

// BulkAdd implements CandidateIndex: Add of each record's entity under
// its stored keys, recording its stored edit set. It keeps no entity.
func (x *RuleIndex) BulkAdd(_ []entity.Encoded, recs []*evalengine.Record, stored []Stored) []int32 {
	slots := make([]int32, len(recs))
	for i, r := range recs {
		slots[i] = x.Add(r.ID(), stored[i].Keys)
		x.indexed.set(slots[i], stored[i].Edit)
	}
	return slots
}

// BulkRemove unindexes the entities with the given IDs, dropping the
// keys recorded when they were added, and returns the slots it freed, as
// BlockIndex.BulkRemove does.
func (x *RuleIndex) BulkRemove(ids []string) []int32 {
	slots := x.drop(ids)
	x.pass.remove(nil, slots)
	for _, s := range slots {
		x.indexed.set(s, similarity.EditSet{})
	}
	x.release(slots)
	return slots
}

// Each calls yield once per slot holding one of keys, but the slot of
// the entity with ID self, if indexed, in unspecified order, until
// yield returns false; it reports whether it ran to completion. Slots in
// seen are skipped and yielded ones added, as Enumerator's Each does.
func (x *RuleIndex) Each(self string, keys []uint64, seen *SlotSet, yield func(slot int32) bool) bool {
	own, ok := x.slotOf[self]
	if !ok {
		own = -1
	}
	for _, k := range keys {
		for _, s := range x.pass.list(k) {
			if s != own && seen.Add(s) && !yield(s) {
				return false
			}
		}
	}
	return true
}

// Keys returns the number of distinct keys indexed (diagnostic).
func (x *RuleIndex) Keys() int { return x.pass.keys() }

// For implements CandidateIndex.
func (x *RuleIndex) For(probe *evalengine.Record, keys []uint64) Enumerator {
	return verified{x, probe, keys}
}

// Entity implements CandidateIndex: a rule index keeps no entity.
func (x *RuleIndex) Entity(int32) *entity.Entity { return nil }

// verified enumerates a RuleIndex for one probe: the slots holding one
// of the probe's keys, each once, but the probe's own, and of those only
// the ones whose indexed values are within K of the probe's. A slot is
// checked on its values' sketches first, and only one the sketches admit
// reads its values, for Myers' distance given their stored rune counts
// (EditBound.Within). The probe's sketches and Myers patterns are built
// when the enumeration starts, so a probe that exits early builds none.
type verified struct {
	x     *RuleIndex
	probe *evalengine.Record
	keys  []uint64
}

func (v verified) Each(_ *entity.Entity, _ int, seen *SlotSet, yield func(slot int32) bool) bool {
	if len(v.keys) == 0 {
		return true
	}
	within := v.x.edit.Within(v.probe)
	return v.x.Each(v.probe.ID(), v.keys, seen, func(s int32) bool {
		return !within(v.x.indexed.edit(s)) || yield(s)
	})
}

// indexedValues holds a value set per slot, as the EditSet the check
// reads, in slot-indexed arrays, so an enumeration checking a candidate
// reads the shape at its slot, and then the value's bytes only if the
// sketch there admits it, without touching its record: one and shape
// hold a set of exactly one value — the common case, read with no
// pointer to follow — and many any other set (nil at a slot of one
// value, whose shape has a negative rune count). A free slot holds the
// empty set.
type indexedValues struct {
	one   []string
	shape []similarity.EditShape
	many  []*similarity.EditSet
}

// noValues is the empty set as many holds it, set apart from nil.
var noValues = &similarity.EditSet{}

// manyShape marks a slot whose set is many's.
var manyShape = similarity.EditShape{Runes: -1}

// set records the set at slot s, growing the arrays to reach it.
func (iv *indexedValues) set(s int32, set similarity.EditSet) {
	if n := int(s) + 1; n > len(iv.one) {
		iv.one, iv.shape, iv.many = grown(iv.one, n), grown(iv.shape, n), grown(iv.many, n)
	}
	switch len(set.Values) {
	case 1:
		iv.one[s], iv.shape[s], iv.many[s] = set.Values[0], set.Shapes[0], nil
	case 0:
		iv.one[s], iv.shape[s], iv.many[s] = "", manyShape, noValues
	default:
		many := set
		iv.one[s], iv.shape[s], iv.many[s] = "", manyShape, &many
	}
}

// edit returns the set recorded at slot s.
func (iv *indexedValues) edit(s int32) similarity.EditSet {
	if iv.shape[s].Runes < 0 {
		return *iv.many[s]
	}
	return similarity.EditSet{Values: iv.one[s : s+1], Shapes: iv.shape[s : s+1]}
}
