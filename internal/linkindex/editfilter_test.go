package linkindex

import (
	"math/rand"
	"slices"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// TestProbeKeysSkipEarlyExit pins that a probe whose bound already
// misses the threshold gets no filter keys: no shard enumerates for it,
// so none are derived or collected. The rule is a min over the name's
// edit distance and the titles' overlap, so a probe without a title has
// a bound of 0 however close a stored name is to its own.
func TestProbeKeysSkipEarlyExit(t *testing.T) {
	r := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(rule.NewProperty("name"), rule.NewProperty("name"), similarity.Levenshtein(), 2),
		rule.NewComparison(rule.NewProperty("title"), rule.NewProperty("title"), similarity.Jaccard(), 0.5)))
	ix := NewSharded(r, 2, matching.Options{Threshold: 0.5})
	if ix.edit == nil {
		t.Fatal("min(levenshtein θ 2, …) at T = 0.5 engages no filter")
	}
	titled, untitled := entity.New("a"), entity.New("b")
	titled.Set("name", "alice")
	titled.Set("title", "x")
	untitled.Set("name", "alice")
	if keys := ix.probeKeys(ix.compiled.Record(titled)); len(keys) == 0 {
		t.Error("a probe that can reach the threshold got no keys")
	}
	if keys := ix.probeKeys(ix.compiled.Record(untitled)); keys != nil {
		t.Errorf("an early-exit probe got %d keys", len(keys))
	}
}

// TestEditFilterChurn drives one edit filter through random adds and
// removes of slots holding random keys — a few hundred distinct keys, so
// chains share keys, empty out and reuse freed entries — and after every
// write holds it to a model of each key's slots (check), and collect to
// the union of the probed keys' slots.
func TestEditFilterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := newEditFilter()
	space := make([]uint64, 300)
	for i := range space {
		space[i] = rng.Uint64()
	}
	keysOf := make(map[int32][]uint64) // live slot → its keys
	for op := 0; op < 4000; op++ {
		s := int32(rng.Intn(120))
		if keys, ok := keysOf[s]; ok {
			f.remove(keys, s)
			delete(keysOf, s)
		} else {
			keys := make([]uint64, 1+rng.Intn(8))
			for i := range keys {
				keys[i] = space[rng.Intn(len(space))] // repeats allowed
			}
			f.add(keys, s)
			keysOf[s] = keys
		}
		want := make(map[uint64][]int32)
		for s, keys := range keysOf {
			for _, k := range keys {
				want[k] = append(want[k], s)
			}
		}
		if err := f.check(want); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		probe := space[:rng.Intn(20)]
		var keep matching.SlotSet
		f.collect(probe, &keep)
		for s := range int32(120) {
			hit := slices.ContainsFunc(keysOf[s], func(k uint64) bool { return slices.Contains(probe, k) })
			if keep.Has(s) != hit {
				t.Fatalf("op %d: collect has slot %d = %v, want %v", op, s, keep.Has(s), hit)
			}
		}
	}
}
