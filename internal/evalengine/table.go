package evalengine

import "genlink/internal/entity"

// entityTable is an interned, column-oriented view of the entities behind a
// fixed set of reference links. Every distinct entity pointer gets a dense
// id, each pair becomes an (idA, idB) tuple, and property values are pulled
// into per-property columns so the hot evaluation loops index dense slices
// instead of hashing property names in per-entity maps.
type entityTable struct {
	index    map[*entity.Entity]int32
	entities []*entity.Entity

	// pairA/pairB hold the interned ids of each reference pair, positives
	// first; numPos marks the boundary.
	pairA, pairB []int32
	numPos       int

	// aEnts/bEnts are the distinct entity ids appearing on each side —
	// value programs are only materialized for the side(s) that need them.
	aEnts, bEnts []int32

	// columns maps a property name to its value column, indexed by entity
	// id. Columns are built lazily on first use.
	columns map[string][][]string
}

// newEntityTable interns the entities and pairs of the reference links.
func newEntityTable(refs *entity.ReferenceLinks) *entityTable {
	t := &entityTable{
		index:   make(map[*entity.Entity]int32),
		columns: make(map[string][][]string),
	}
	if refs == nil {
		return t
	}
	seenA := make(map[int32]struct{})
	seenB := make(map[int32]struct{})
	addPair := func(p entity.Pair) {
		a, b := t.intern(p.A), t.intern(p.B)
		t.pairA = append(t.pairA, a)
		t.pairB = append(t.pairB, b)
		if _, ok := seenA[a]; !ok {
			seenA[a] = struct{}{}
			t.aEnts = append(t.aEnts, a)
		}
		if _, ok := seenB[b]; !ok {
			seenB[b] = struct{}{}
			t.bEnts = append(t.bEnts, b)
		}
	}
	for _, p := range refs.Positive {
		addPair(p)
	}
	t.numPos = len(t.pairA)
	for _, p := range refs.Negative {
		addPair(p)
	}
	return t
}

func (t *entityTable) intern(e *entity.Entity) int32 {
	if id, ok := t.index[e]; ok {
		return id
	}
	id := int32(len(t.entities))
	t.index[e] = id
	t.entities = append(t.entities, e)
	return id
}

func (t *entityTable) numPairs() int { return len(t.pairA) }

// fillMissing calls fill for every entity of the needed sides that done
// does not mark yet, and marks it.
func (t *entityTable) fillMissing(done []bool, need sides, fill func(id int32)) {
	var ids [2][]int32
	if need.a {
		ids[0] = t.aEnts
	}
	if need.b {
		ids[1] = t.bEnts
	}
	for _, side := range ids {
		for _, id := range side {
			if !done[id] {
				fill(id)
				done[id] = true
			}
		}
	}
}

// column returns the value column of a property, building it on first use.
// Callers must ensure all needed columns exist before reading them from
// multiple goroutines.
func (t *entityTable) column(prop string) [][]string {
	col, ok := t.columns[prop]
	if !ok {
		col = make([][]string, len(t.entities))
		for i, e := range t.entities {
			col[i] = e.Values(prop)
		}
		t.columns[prop] = col
	}
	return col
}

// columnGetter returns a property lookup bound to one entity id, reading
// from the prebuilt columns.
func (t *entityTable) columnGetter(id int32) func(prop string) []string {
	return func(prop string) []string {
		// Columns for every property referenced by a compiled program are
		// built before evaluation; a miss can only happen for properties
		// introduced by opaque rules, which never reach this path.
		return t.columns[prop][id]
	}
}
