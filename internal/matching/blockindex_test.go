package matching

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/similarity"
)

// The index differential: after ANY interleaving of Add/Update/Remove,
// BlockIndex.Each must yield exactly the reference materializer's
// candidates for the probe as the only A entity against the surviving
// entities minus the probe's own record, as a set, with no duplicates
// and regardless of an earlier enumeration having been stopped
// half-way, for every strategy and cap; Candidates must return the same
// set sorted by ID. The reference shares no code with the index, so it
// stays an independent oracle although Candidates is Each collected.
// The ShardedIndex-level differentials (internal/linkindex) build on
// this. TestRuleIndexDifferential holds the rule index to its own
// reference the same way.

// diffVocab is deliberately tiny so entities share tokens (big blocks,
// cap-skip paths) and sort keys collide (window tie-breaking paths).
var diffVocab = []string{
	"data", "graph", "learning", "systems", "parallel", "adaptive",
	"netwrk", "network", "analisys", "analysis", "kernel", "query",
}

func diffValue(rng *rand.Rand) string {
	switch rng.Intn(10) {
	case 0:
		return "" // empty values are legal and must not break keying
	case 1:
		return diffVocab[rng.Intn(len(diffVocab))]
	default:
		n := 1 + rng.Intn(3)
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += diffVocab[rng.Intn(len(diffVocab))]
		}
		return s
	}
}

func diffEntity(rng *rand.Rand, id string) *entity.Entity {
	e := entity.New(id)
	for _, p := range []string{"name", "title", "year"} {
		if rng.Float64() < 0.8 {
			if p == "year" {
				e.Add(p, fmt.Sprintf("%d", 1990+rng.Intn(6)))
			} else {
				e.Add(p, diffValue(rng))
				if rng.Float64() < 0.2 {
					e.Add(p, diffValue(rng)) // multi-valued
				}
			}
		}
	}
	return e
}

func diffStrategies() map[string]Blocker {
	return map[string]Blocker{
		"token":       TokenBlocking(),
		"qgram":       QGramBlocking(0),
		"sn-default":  SortedNeighborhood(4),
		"sn-property": SortedNeighborhoodBlocker{Window: 3, Key: PropertySortKey("name", "title")},
		"sn-reversed": SortedNeighborhoodBlocker{Window: 3, Key: ReversedKey(DefaultSortKey)},
		"multipass": MultiPass(
			TokenBlocking(),
			SortedNeighborhood(3),
			QGramBlocking(0),
		),
		// Keyed members only, one with a non-default q: the members'
		// enumerators share one seen set and no window is involved.
		"multipass-keyed": MultiPass(
			TokenBlocking(),
			QGramBlocking(2),
		),
	}
}

// referenceCandidates is the ground truth of the index differentials:
// the reference materializer with the probe as the only A entity against
// the surviving corpus minus the probe's own record, exactly the
// Candidates contract. maxBlock ≤ 0 means uncapped, as for the index.
func referenceCandidates(bl Blocker, probe *entity.Entity, survivors map[string]*entity.Entity, maxBlock int) []string {
	a := entity.NewSource("probe")
	a.Add(probe)
	b := entity.NewSource("survivors")
	for _, id := range sortedIDsOfMap(survivors) {
		if id != probe.ID {
			b.Add(survivors[id])
		}
	}
	if maxBlock == 0 {
		maxBlock = -1 // Options treats 0 as "derive a default"
	}
	ids := make(map[string]struct{})
	for _, p := range referencePairs(bl, a, b, Options{MaxBlockSize: maxBlock}) {
		ids[p.B.ID] = struct{}{}
	}
	return sortedIDs(ids)
}

func sortedIDs(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func idsOf(es []*entity.Entity) []string {
	set := make(map[string]struct{}, len(es))
	for _, e := range es {
		set[e.ID] = struct{}{}
	}
	return sortedIDs(set)
}

func sortedIDsOfMap(m map[string]*entity.Entity) []string {
	set := make(map[string]struct{}, len(m))
	for id := range m {
		set[id] = struct{}{}
	}
	return sortedIDs(set)
}

// eachIDs runs one Each over a fresh seen set, letting yield return
// false once it has been called stopAfter times (stopAfter < 0: never).
// It fails on a duplicate yield, on a yield after the false return and
// on a wrong completion flag, and returns the sorted IDs yielded.
func eachIDs(t *testing.T, bi BlockIndex, probe *entity.Entity, maxBlock, stopAfter int) []string {
	t.Helper()
	got := make(map[string]struct{})
	stopped := false
	done := bi.Each(probe, maxBlock, new(SlotSet), func(s int32) bool {
		e := bi.(*blockIndex).ents[s]
		if stopped {
			t.Fatalf("probe %s: Each yielded %s after yield returned false", probe.ID, e.ID)
		}
		if _, dup := got[e.ID]; dup {
			t.Fatalf("probe %s: Each yielded duplicate candidate %s", probe.ID, e.ID)
		}
		got[e.ID] = struct{}{}
		stopped = len(got) == stopAfter
		return !stopped
	})
	if done == stopped {
		t.Fatalf("probe %s: Each reported completion = %v after %d yields (stop after %d)", probe.ID, done, len(got), stopAfter)
	}
	return sortedIDs(got)
}

func TestDifferentialStreamVsMaterialize(t *testing.T) {
	for name, bl := range diffStrategies() {
		for _, maxBlock := range []int{-1, 0, 6} {
			t.Run(fmt.Sprintf("%s/cap=%d", name, maxBlock), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))*100 + int64(maxBlock)))
				bi := NewBlockIndex(bl)
				survivors := make(map[string]*entity.Entity)
				nextID := 0

				checkProbe := func(probe *entity.Entity) {
					t.Helper()
					want := referenceCandidates(bl, probe, survivors, maxBlock)
					if got := eachIDs(t, bi, probe, maxBlock, -1); !slicesEqual(got, want) {
						t.Fatalf("probe %s: enumerated candidates diverge from the reference materializer\n got: %v\nwant: %v",
							probe.ID, got, want)
					}
					if got := materialized(t, bi, probe, maxBlock); !slicesEqual(got, want) {
						t.Fatalf("probe %s: materialized candidates diverge from the reference materializer\n got: %v\nwant: %v",
							probe.ID, got, want)
					}
					// yield returns false after ⌊n/2⌋ candidates: exactly that
					// many yields, Each reports false, nothing afterwards
					// (eachIDs), and a fresh full enumeration is unharmed.
					if half := len(want) / 2; half > 0 {
						if part := eachIDs(t, bi, probe, maxBlock, half); len(part) != half {
							t.Fatalf("probe %s: stopped enumeration yielded %d candidates, want %d", probe.ID, len(part), half)
						}
					}
					if again := eachIDs(t, bi, probe, maxBlock, -1); !slicesEqual(again, want) {
						t.Fatalf("probe %s: enumeration after a stopped one diverges\n got: %v\nwant: %v",
							probe.ID, again, want)
					}
				}

				for op := 0; op < 80; op++ {
					ids := sortedIDsOfMap(survivors)
					switch {
					case len(ids) == 0 || rng.Float64() < 0.45:
						id := fmt.Sprintf("e%d", nextID)
						nextID++
						e := diffEntity(rng, id)
						bi.Add(e)
						survivors[id] = e
					case rng.Float64() < 0.5:
						id := ids[rng.Intn(len(ids))]
						e := diffEntity(rng, id)
						bi.BulkRemove([]string{id})
						bi.Add(e)
						survivors[id] = e
					default:
						id := ids[rng.Intn(len(ids))]
						bi.BulkRemove([]string{id})
						delete(survivors, id)
					}
					checkIndexInvariants(t, bi, len(survivors))

					if op%8 != 0 {
						continue
					}
					ids = sortedIDsOfMap(survivors)
					if len(ids) > 0 {
						checkProbe(survivors[ids[rng.Intn(len(ids))]])
						// A probe whose ID collides with a survivor but whose
						// value is a different version (the external-probe
						// self-exclusion paths).
						checkProbe(diffEntity(rng, ids[rng.Intn(len(ids))]))
					}
					checkProbe(diffEntity(rng, "external-probe"))
				}
			})
		}
	}
}

// checkIndexInvariants asserts the structure of bi after a write, with
// live entities indexed. The table: its ID → slot and slot → entity maps
// are inverse, and the free list holds exactly the slots without an
// entity, once each. A free slot holds no keys in any pass, and no list
// entry of any pass is a free slot. Posting lists: every live slot's
// recorded keys are its entity's keys, sorted and unique, and
// postings[keys[i]][pos[i]] is the slot itself; every list entry is such
// a position of a live slot, so no slot appears twice in one list and no
// list is empty. Sorted neighborhood: the list holds exactly the live
// slots, each under the key recorded for it, in strict (key, ID) order.
func checkIndexInvariants(t *testing.T, bi BlockIndex, live int) {
	t.Helper()
	if bi.Len() != live {
		t.Fatalf("Len() = %d, want %d", bi.Len(), live)
	}
	x := bi.(*blockIndex)
	if len(x.ents) != int(x.slots) {
		t.Fatalf("table: %d entity slots for %d slots taken", len(x.ents), x.slots)
	}
	free := checkTableInvariants(t, &x.table, live, func(s int32) string {
		if e := x.ents[s]; e != nil {
			return e.ID
		}
		return ""
	})
	for _, p := range x.passes {
		switch p := p.(type) {
		case *keyedPass[string]:
			checkKeyedInvariants(t, p, x.slots, free, func(s int32) []string { return p.keyFn(x.ents[s], Tokens(x.ents[s])) })
		case *keyedPass[uint64]:
			checkKeyedInvariants(t, p, x.slots, free, func(s int32) []uint64 { return p.keyFn(x.ents[s], Tokens(x.ents[s])) })
		case *snPass:
			checkSNInvariants(t, x, p, free)
		default:
			t.Fatalf("no invariant check for %T", p)
		}
	}
}

// checkTableInvariants asserts an entity table with live entities
// indexed, where idAt(s) is the ID of the entity at slot s, "" for a
// free slot: the ID → slot map and idAt are inverse, and the free list
// holds exactly the slots without an entity, once each. It returns the
// free slots.
func checkTableInvariants(t *testing.T, x *table, live int, idAt func(s int32) string) map[int32]bool {
	t.Helper()
	if len(x.slotOf) != live || int(x.slots) != live+len(x.free) {
		t.Fatalf("table: %d IDs, %d slots, %d free, want %d live", len(x.slotOf), x.slots, len(x.free), live)
	}
	free := make(map[int32]bool, len(x.free))
	for _, s := range x.free {
		if free[s] || idAt(s) != "" {
			t.Fatalf("table: free slot %d is listed twice or holds %q", s, idAt(s))
		}
		free[s] = true
	}
	for s := range x.slots {
		if id := idAt(s); !free[s] && (id == "" || x.slotOf[id] != s) {
			t.Fatalf("table: live slot %d holds %q, not its ID's slot", s, id)
		}
	}
	return free
}

// checkKeyedInvariants asserts a keyed pass over a table of slots
// slots, free of them free, where want(s) is the keys of the entity at
// live slot s.
func checkKeyedInvariants[K cmp.Ordered](t *testing.T, p *keyedPass[K], slots int32, free map[int32]bool, want func(s int32) []K) {
	t.Helper()
	if len(p.slots) != int(slots) {
		t.Fatalf("keyed: %d slots for a table of %d", len(p.slots), slots)
	}
	entries := 0
	for s, sl := range p.slots {
		if free[int32(s)] {
			if len(sl.keys) != 0 || len(sl.pos) != 0 {
				t.Fatalf("keyed: free slot %d holds keys %v", s, sl.keys)
			}
			continue
		}
		if !slices.IsSorted(sl.keys) || len(slices.Compact(slices.Clone(sl.keys))) != len(sl.keys) || len(sl.pos) != len(sl.keys) {
			t.Fatalf("keyed: slot %d keys %v are not sorted and unique, or have %d positions", s, sl.keys, len(sl.pos))
		}
		if w := want(int32(s)); !slices.Equal(sl.keys, w) {
			t.Fatalf("keyed: slot %d holds keys %v, its entity has %v", s, sl.keys, w)
		}
		for i, k := range sl.keys {
			if list := p.list(k); int(sl.pos[i]) >= len(list) || list[sl.pos[i]] != int32(s) {
				t.Fatalf("keyed: slot %d is not at position %d of %v's list %v", s, sl.pos[i], k, list)
			}
		}
		entries += len(sl.keys)
	}
	// Every live slot's keys are found at their recorded positions, so the
	// lists hold nothing else (no free slot, no repeat) iff their lengths
	// add up to the same count.
	total := 0
	for k := range p.postings {
		list := p.list(k)
		if len(list) == 0 {
			t.Fatalf("keyed: key %v has an empty list", k)
		}
		total += len(list)
	}
	if total != entries {
		t.Fatalf("keyed: posting lists hold %d entries, live slots record %d keys", total, entries)
	}
}

func checkSNInvariants(t *testing.T, x *blockIndex, p *snPass, free map[int32]bool) {
	t.Helper()
	for s, k := range p.keyOf {
		if free[int32(s)] && k != "" {
			t.Fatalf("sorted neighborhood: free slot %d keeps key %q", s, k)
		}
	}
	if len(p.recs) != len(x.slotOf) {
		t.Fatalf("sorted neighborhood: %d records for %d live slots", len(p.recs), len(x.slotOf))
	}
	// Strict order makes every listed slot distinct, so with as many
	// records as live slots the list holds each live slot exactly once.
	for i, r := range p.recs {
		if int(r.s) >= len(x.ents) || free[r.s] {
			t.Fatalf("sorted neighborhood: record %d lists slot %d, which is not live", i, r.s)
		}
		if r.key != p.keyOf[r.s] {
			t.Fatalf("sorted neighborhood: slot %d listed under key %q, recorded %q", r.s, r.key, p.keyOf[r.s])
		}
		if i > 0 && !p.less(x, p.recs[i-1], r) {
			t.Fatalf("sorted neighborhood: records %s and %s out of (key, ID) order", x.ents[p.recs[i-1].s].ID, x.ents[r.s].ID)
		}
	}
}

// materialized returns the IDs of bi.Candidates(probe, maxBlock) in the
// order given, failing unless they are strictly sorted by ID.
func materialized(t *testing.T, bi BlockIndex, probe *entity.Entity, maxBlock int) []string {
	t.Helper()
	cands := bi.Candidates(probe, maxBlock)
	ids := make([]string, len(cands))
	for i, e := range cands {
		if ids[i] = e.ID; i > 0 && ids[i-1] >= ids[i] {
			t.Fatalf("probe %s: Candidates not strictly sorted by ID at %s, %s", probe.ID, ids[i-1], ids[i])
		}
	}
	return ids
}

// TestBulkAddKeysPerEntity pins the shared tokenization of a write: after
// one BulkAdd of many entities into the default multipass index, every
// pass has recorded each entity's own keys (its Tokens, their packed
// q-grams, their joined sort key).
func TestBulkAddKeysPerEntity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := make([]*entity.Entity, 40)
	for i := range es {
		es[i] = diffEntity(rng, fmt.Sprintf("e%d", i))
	}
	x := NewBlockIndex(MultiPass()).(*blockIndex)
	x.BulkAdd(es)
	for _, e := range es {
		s, toks := x.slotOf[e.ID], Tokens(e)
		for _, p := range x.passes {
			switch p := p.(type) {
			case *keyedPass[string]:
				if got := p.slots[s].keys; !slices.Equal(got, toks) {
					t.Fatalf("%s: token keys %q, want %q", e.ID, got, toks)
				}
			case *keyedPass[uint64]:
				if got, want := p.slots[s].keys, qgramCodes(toks, 3); !slices.Equal(got, want) {
					t.Fatalf("%s: q-gram codes %x, want %x", e.ID, got, want)
				}
			case *snPass:
				if got, want := p.keyOf[s], DefaultSortKey(e); got != want {
					t.Fatalf("%s: sort key %q, want %q", e.ID, got, want)
				}
			}
		}
	}
}

// TestRemoveAfterMutation pins BulkRemove's contract: it unindexes the keys
// recorded at Add time, so an entity whose properties were mutated in
// place after Add still leaves no trace — no entity, no key, and no
// candidate for a probe carrying the old values.
func TestRemoveAfterMutation(t *testing.T) {
	for _, name := range sortedKeys(diffStrategies()) {
		t.Run(name, func(t *testing.T) {
			bi := NewBlockIndex(diffStrategies()[name])
			e := entity.New("e")
			e.Add("name", "graph learning")
			e.Add("title", "parallel systems")
			bi.Add(e)
			probe := entity.New("probe")
			probe.Add("name", "graph learning")
			probe.Add("title", "parallel systems")
			if got := bi.Candidates(probe, -1); len(got) != 1 {
				t.Fatalf("before removal: %d candidates, want e", len(got))
			}
			e.Set("name", "kernel query")
			delete(e.Properties, "title")
			bi.BulkRemove([]string{e.ID})
			if bi.Len() != 0 || bi.Keys() != 0 {
				t.Fatalf("after removal: Len() = %d, Keys() = %d, want 0 and 0", bi.Len(), bi.Keys())
			}
			if got := bi.Candidates(probe, -1); len(got) != 0 {
				t.Fatalf("after removal: candidates %v for the old values", idsOf(got))
			}
			checkIndexInvariants(t, bi, 0)
		})
	}
}

// diffRuleK is the edit bound of the rule-index differential: loose
// enough that diffVocab's words split into segments of one or two runes,
// which many values share, and an empty value has only its length key,
// so postings are shared, empty out and refill.
const diffRuleK = 3

// diffRuleKeys keys an entity as a served rule with a levenshtein bound
// keys its stored entities: the sorted, unique PassJoin segment keys of
// its names.
func diffRuleKeys(e *entity.Entity) []uint64 {
	keys := similarity.EditSegmentKeys(nil, e.Values("name"), diffRuleK)
	slices.Sort(keys)
	return slices.Compact(keys)
}

// TestRuleIndexDifferential is the index differential for RuleIndex:
// after any interleaving of batched adds, replacements and removals,
// Each yields for a probe's PassJoin probe keys exactly the survivors
// that hold one of them, but the probe's own ID, once each, and a stopped
// enumeration neither yields after its stop nor harms the next one. After
// every write the table and the pass hold their structure
// (checkTableInvariants, checkKeyedInvariants: every live slot keeps the
// keys it was added with), and removing every entity leaves no key.
func TestRuleIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := NewRuleIndex(nil)
	survivors := make(map[string]*entity.Entity)
	idAt := make(map[int32]string) // slot → ID, from Add's slots
	add := func(es []*entity.Entity) {
		for _, e := range es {
			survivors[e.ID] = e
			idAt[x.Add(e.ID, diffRuleKeys(e))] = e.ID
		}
	}
	remove := func(ids []string) {
		for _, id := range ids {
			delete(survivors, id)
		}
		for _, s := range x.BulkRemove(ids) {
			delete(idAt, s)
		}
	}
	check := func() {
		t.Helper()
		if x.Len() != len(survivors) {
			t.Fatalf("Len() = %d, want %d", x.Len(), len(survivors))
		}
		free := checkTableInvariants(t, &x.table, len(survivors), func(s int32) string { return idAt[s] })
		checkKeyedInvariants(t, x.pass, x.slots, free, func(s int32) []uint64 { return diffRuleKeys(survivors[idAt[s]]) })
	}
	each := func(probe *entity.Entity, stopAfter int) []string {
		t.Helper()
		keys := similarity.EditProbeKeys(nil, probe.Values("name"), diffRuleK)
		got := make(map[string]struct{})
		stopped := false
		done := x.Each(probe.ID, keys, new(SlotSet), func(s int32) bool {
			id := idAt[s]
			if _, dup := got[id]; stopped || dup {
				t.Fatalf("probe %s: Each yielded %s again or after a stop", probe.ID, id)
			}
			got[id] = struct{}{}
			stopped = len(got) == stopAfter
			return !stopped
		})
		if done == stopped {
			t.Fatalf("probe %s: Each reported completion = %v after %d yields (stop after %d)", probe.ID, done, len(got), stopAfter)
		}
		return sortedIDs(got)
	}
	checkProbe := func(probe *entity.Entity) {
		t.Helper()
		keys := similarity.EditProbeKeys(nil, probe.Values("name"), diffRuleK)
		want := make(map[string]struct{})
		for id, e := range survivors {
			if id != probe.ID && slices.ContainsFunc(diffRuleKeys(e), func(k uint64) bool { return slices.Contains(keys, k) }) {
				want[id] = struct{}{}
			}
		}
		if got := each(probe, -1); !slicesEqual(got, sortedIDs(want)) {
			t.Fatalf("probe %s: Each diverges from the survivors holding its keys\n got: %v\nwant: %v", probe.ID, got, sortedIDs(want))
		}
		if half := len(want) / 2; half > 0 && len(each(probe, half)) != half {
			t.Fatalf("probe %s: a stopped enumeration yielded other than %d", probe.ID, half)
		}
	}
	nextID := 0
	for op := 0; op < 150; op++ {
		ids := sortedIDsOfMap(survivors)
		var batch []*entity.Entity
		switch {
		case len(ids) == 0 || rng.Float64() < 0.45:
			for range 1 + rng.Intn(4) {
				batch = append(batch, diffEntity(rng, fmt.Sprintf("e%d", nextID)))
				nextID++
			}
			add(batch)
		case rng.Float64() < 0.5:
			id := ids[rng.Intn(len(ids))]
			remove([]string{id, id, "unknown"}) // a repeat and an unknown ID are skipped
			add([]*entity.Entity{diffEntity(rng, id)})
		default:
			remove([]string{ids[rng.Intn(len(ids))]})
		}
		check()
		if op%5 != 0 {
			continue
		}
		if ids = sortedIDsOfMap(survivors); len(ids) > 0 {
			checkProbe(survivors[ids[rng.Intn(len(ids))]])
			checkProbe(diffEntity(rng, ids[rng.Intn(len(ids))]))
		}
		checkProbe(diffEntity(rng, "external-probe"))
	}
	remove(sortedIDsOfMap(survivors))
	check()
	if x.Keys() != 0 {
		t.Fatalf("after removing every entity: Keys() = %d", x.Keys())
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEachAllocsIndependentOfBlockSize pins the hand-off's cost model:
// with a warm seen set and a no-op yield, a full Each over the built-in
// multipass index allocates exactly what extracting the probe's keys
// allocates (one Tokens call, and from those tokens the packed q-grams
// and the joined sort key) — the same number of objects whether the
// probe's blocks hold 200 candidates or 2,000. A per-block copy, a
// per-candidate cursor object or a second tokenization fails it.
func TestEachAllocsIndependentOfBlockSize(t *testing.T) {
	probe := entity.New("probe")
	probe.Add("name", "shared network analysis")
	allocs := func(n int) (perRun float64, yielded int) {
		bi := NewBlockIndex(MultiPass(
			TokenBlocking(), SortedNeighborhood(3), QGramBlocking(0)))
		for i := 0; i < n; i++ {
			e := entity.New(fmt.Sprintf("e%d", i))
			e.Add("name", "shared network analysis")
			bi.Add(e)
		}
		seen := new(SlotSet)
		yield := func(int32) bool { yielded++; return true }
		perRun = testing.AllocsPerRun(10, func() {
			seen.Clear()
			yielded = 0
			bi.Each(probe, -1, seen, yield)
		})
		return perRun, yielded
	}
	var sink int
	keys := testing.AllocsPerRun(10, func() {
		toks := Tokens(probe)
		sink += len(toks) + len(qgramCodes(toks, 3)) + len(joinTokens(toks))
	})
	small, ySmall := allocs(200)
	large, yLarge := allocs(2000)
	if ySmall != 200 || yLarge != 2000 {
		t.Fatalf("Each yielded %d and %d candidates, want 200 and 2000", ySmall, yLarge)
	}
	if small != keys || large != keys {
		t.Fatalf("Each allocated %.0f objects over 200 candidates and %.0f over 2,000; key extraction alone allocates %.0f (%d keys): the hand-off must not allocate per block or per candidate",
			small, large, keys, sink)
	}
}
