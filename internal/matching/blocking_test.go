package matching

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"genlink/internal/entity"
)

func allBlockers() []Blocker {
	return []Blocker{
		TokenBlocking(),
		SortedNeighborhood(0),
		QGramBlocking(0),
		MultiPass(),
	}
}

// blockerOptions is one Options per blocker of allBlockers.
func blockerOptions() []Options {
	var out []Options
	for _, bl := range allBlockers() {
		out = append(out, Options{Blocker: bl})
	}
	return out
}

// Every strategy's links must be a subset of the cartesian links at the
// same threshold: blocking may only drop pairs, never invent or rescore.
func TestBlockerLinksSubsetOfCartesian(t *testing.T) {
	a, b := citySources(40)
	exact := MatchCartesian(normLabelRule(), a, b, Options{})
	inExact := make(map[Link]bool, len(exact))
	for _, l := range exact {
		inExact[l] = true
	}
	for _, bl := range allBlockers() {
		t.Run(bl.Name(), func(t *testing.T) {
			links := Match(normLabelRule(), a, b, Options{Blocker: bl})
			for _, l := range links {
				if !inExact[l] {
					t.Fatalf("blocker invented link %v absent from cartesian", l)
				}
			}
		})
	}
}

func TestCandidatePairsDedupAndSelfPairs(t *testing.T) {
	src := entity.NewSource("s")
	e1 := entity.New("e1")
	e1.Add("label", "alpha beta")
	e2 := entity.New("e2")
	e2.Add("label", "alpha beta") // shares two tokens with e1 → duplicate raw pairs
	src.Add(e1)
	src.Add(e2)
	pairs := CandidatePairs(TokenBlocking(), src, src, Options{MaxBlockSize: -1})
	if len(pairs) != 2 { // e1→e2 and e2→e1; self pairs removed, dupes collapsed
		t.Fatalf("pairs = %d, want 2: %v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if p.A.ID == p.B.ID {
			t.Fatalf("self pair survived: %v", p)
		}
	}
}

func TestSortedNeighborhoodFindsAdjacentKeys(t *testing.T) {
	a, b := citySources(30)
	pairs := CandidatePairs(SortedNeighborhood(4), a, b, Options{})
	found := make(map[string]bool)
	for _, p := range pairs {
		if p.A.ID[2:] == p.B.ID[2:] {
			found[p.A.ID] = true
		}
	}
	if len(found) != 30 {
		t.Fatalf("sorted neighborhood lost %d/30 true pairs", 30-len(found))
	}
	// Candidate count is bounded by (|A|+|B|)·window, unlike token blocking.
	if max := (30 + 30) * 4; len(pairs) > max {
		t.Fatalf("pairs = %d, want ≤ %d", len(pairs), max)
	}
}

func TestSortedNeighborhoodCustomKey(t *testing.T) {
	a := entity.NewSource("a")
	ea := entity.New("a1")
	ea.Add("name", "Berlin")
	ea.Add("junk", "zzzz")
	a.Add(ea)
	b := entity.NewSource("b")
	eb := entity.New("b1")
	eb.Add("name", "berlin")
	eb.Add("junk", "aaaa")
	b.Add(eb)
	bl := SortedNeighborhoodBlocker{Window: 1, Key: func(e *entity.Entity) string {
		if vs := e.Values("name"); len(vs) > 0 {
			return vs[0]
		}
		return ""
	}}
	pairs := CandidatePairs(bl, a, b, Options{})
	if len(pairs) != 1 {
		t.Fatalf("custom-key pairs = %d, want 1", len(pairs))
	}
}

func TestQGramSurvivesTypos(t *testing.T) {
	// A typo changes the token, so token blocking cannot block on it, but
	// most 3-grams survive.
	a := entity.NewSource("a")
	ea := entity.New("a1")
	ea.Add("label", "expressive")
	a.Add(ea)
	b := entity.NewSource("b")
	eb := entity.New("b1")
	eb.Add("label", "expresive") // dropped one 's'
	b.Add(eb)
	if pairs := CandidatePairs(TokenBlocking(), a, b, Options{MaxBlockSize: -1}); len(pairs) != 0 {
		t.Fatalf("token blocking should miss the typo pair, got %v", pairs)
	}
	if pairs := CandidatePairs(QGramBlocking(3), a, b, Options{MaxBlockSize: -1}); len(pairs) != 1 {
		t.Fatalf("qgram pairs = %d, want 1", len(pairs))
	}
}

func TestQGramShortTokensIndexedWhole(t *testing.T) {
	a := entity.NewSource("a")
	ea := entity.New("a1")
	ea.Add("label", "ab")
	a.Add(ea)
	b := entity.NewSource("b")
	eb := entity.New("b1")
	eb.Add("label", "ab")
	b.Add(eb)
	if pairs := CandidatePairs(QGramBlocking(3), a, b, Options{MaxBlockSize: -1}); len(pairs) != 1 {
		t.Fatalf("short-token pairs = %d, want 1", len(pairs))
	}
}

// TestQGramLengthLimit pins the packing limit: q up to 7 builds an
// index, and above it building the index panics with a message naming
// the limit, alone or inside a union.
func TestQGramLengthLimit(t *testing.T) {
	for q := -1; q <= maxQ; q++ {
		NewBlockIndex(QGramBlocking(q)).Add(entity.New("e"))
	}
	for name, build := range map[string]func(){
		"NewBlockIndex":  func() { NewBlockIndex(QGramBlocker{Q: maxQ + 1}) },
		"inside a union": func() { NewBlockIndex(MultiPass(TokenBlocking(), QGramBlocker{Q: 64})) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "above 7") {
					t.Errorf("%s: panic %q, want one naming the limit of 7", name, msg)
				}
			}()
			build()
		}()
	}
}

func TestMultiPassUnionsCandidates(t *testing.T) {
	// One pair only token blocking finds (identical rare token, keys sort
	// far apart) and one only q-gram finds (typo): the composite finds both.
	a := entity.NewSource("a")
	b := entity.NewSource("b")
	tok := entity.New("a/tok")
	tok.Add("label", "aardvark xylophone88")
	a.Add(tok)
	tokB := entity.New("b/tok")
	tokB.Add("label", "zebra xylophone88")
	b.Add(tokB)
	typo := entity.New("a/typo")
	typo.Add("label", "mississippi")
	a.Add(typo)
	typoB := entity.New("b/typo")
	typoB.Add("label", "missisippi")
	b.Add(typoB)
	opts := Options{MaxBlockSize: -1}
	bl := MultiPass(TokenBlocking(), SortedNeighborhoodBlocker{Window: 1}, QGramBlocking(3))
	pairs := CandidatePairs(bl, a, b, opts)
	want := map[[2]string]bool{
		{"a/tok", "b/tok"}:   false,
		{"a/typo", "b/typo"}: false,
	}
	for _, p := range pairs {
		key := [2]string{p.A.ID, p.B.ID}
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for key, ok := range want {
		if !ok {
			t.Fatalf("multipass missed %v (got %d pairs)", key, len(pairs))
		}
	}
}

func TestMultiPassDefaultComposite(t *testing.T) {
	bl := MultiPass()
	mp, ok := bl.(MultiPassBlocker)
	if !ok || len(mp.Passes) != 3 {
		t.Fatalf("default MultiPass should have 3 passes, got %#v", bl)
	}
}

func TestBlockerByName(t *testing.T) {
	for _, name := range BlockerNames() {
		if BlockerByName(name) == nil {
			t.Fatalf("BlockerByName(%q) = nil", name)
		}
	}
	if BlockerByName("nope") != nil {
		t.Fatal("unknown name should resolve to nil")
	}
}

func TestMatchWithEachBlockerIsDeterministic(t *testing.T) {
	a, b := citySources(25)
	for _, name := range BlockerNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			opts := Options{Blocker: BlockerByName(name)}
			l1 := Match(normLabelRule(), a, b, opts)
			l2 := Match(normLabelRule(), a, b, opts)
			if !reflect.DeepEqual(l1, l2) {
				t.Fatal("match output not deterministic")
			}
		})
	}
}

func TestMatchParallelPartitionsPairsEvenly(t *testing.T) {
	// A pathological skew: every entity shares one huge block. Under
	// entity partitioning one worker used to own the whole block; pair
	// partitioning must still produce identical results.
	a := entity.NewSource("a")
	b := entity.NewSource("b")
	for i := 0; i < 60; i++ {
		ea := entity.New(fmt.Sprint("a", i))
		ea.Add("label", fmt.Sprintf("shared item%02d", i))
		a.Add(ea)
		eb := entity.New(fmt.Sprint("b", i))
		eb.Add("label", fmt.Sprintf("shared item%02d", i))
		b.Add(eb)
	}
	r := normLabelRule()
	opts := Options{MaxBlockSize: -1}
	serial := Match(r, a, b, opts)
	for _, workers := range []int{2, 4, 7} {
		if got := MatchParallel(r, a, b, opts, workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d differs: %d vs %d links", workers, len(got), len(serial))
		}
	}
}

// TestRegistryName pins the blocker → registry-name inverse that snapshot
// persistence depends on: every registry default round-trips, and
// parameterized variants (which a bare name could not rebuild) map to "".
func TestRegistryName(t *testing.T) {
	for _, name := range BlockerNames() {
		if got := RegistryName(BlockerByName(name)); got != name {
			t.Fatalf("RegistryName(BlockerByName(%q)) = %q", name, got)
		}
	}
	for _, bl := range []Blocker{
		SortedNeighborhood(4),
		QGramBlocking(2),
		MultiPass(TokenBlocking()),
		SortedNeighborhoodBlocker{Window: 3, Key: PropertySortKey("name"), Label: "name"},
	} {
		if got := RegistryName(bl); got != "" {
			t.Fatalf("RegistryName(%s) = %q, want \"\" for non-default strategy", bl.Name(), got)
		}
	}
	if got := RegistryName(nil); got != "" {
		t.Fatalf("RegistryName(nil) = %q, want \"\"", got)
	}
}
