package matching

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// randomWordSource builds a source of n entities over a small shared
// vocabulary — enough value collisions to make blocks overlap, caps
// trigger and sorted-neighborhood windows crowd.
func randomWordSource(rng *rand.Rand, name string, n int) *entity.Source {
	vocab := []string{"data", "graph", "kernel", "network", "análisis", "query", "silk", "link", ""}
	src := entity.NewSource(name)
	for i := 0; i < n; i++ {
		e := entity.New(fmt.Sprintf("%s/%d", name, i))
		e.Add("label", vocab[rng.Intn(len(vocab))]+" "+vocab[rng.Intn(len(vocab))])
		if rng.Intn(2) == 0 {
			e.Add("title", vocab[rng.Intn(len(vocab))])
		}
		if rng.Intn(3) == 0 {
			e.Add("coord", fmt.Sprintf("%d %d", rng.Intn(5), rng.Intn(5)))
		}
		src.Add(e)
	}
	return src
}

// TestStreamPairsEqualCandidatePairs is the batch-layer differential:
// for every strategy and every cap, StreamPairs and CandidatePairs must
// yield exactly the reference materializer's pair set — no extras, no
// omissions, no duplicates. Covers A=B dedup shape, disjoint sources, and
// a source with the same entity pointer listed twice, which must block
// like the source without the repeat.
func TestStreamPairsEqualCandidatePairs(t *testing.T) {
	for _, bl := range allBlockers() {
		for _, maxBlock := range []int{-1, 0, 4} {
			t.Run(fmt.Sprintf("%s/cap=%d", bl.Name(), maxBlock), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(bl.Name()))*10 + int64(maxBlock)))
				a := randomWordSource(rng, "a", 30)
				b := randomWordSource(rng, "b", 25)
				// The same pointer twice in A: uniqueEntities must visit it
				// once, matching the batch path's Pair-level dedup.
				a.Add(a.Entities[0])
				opts := Options{Blocker: bl, MaxBlockSize: maxBlock}

				check := func(label string, a, b *entity.Source) {
					t.Helper()
					want := make(map[Pair]struct{})
					for _, p := range referencePairs(bl, uniqueSource(a), uniqueSource(b), opts) {
						want[p] = struct{}{}
					}
					if got := pairSet(t, CandidatePairs(bl, a, b, opts)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: CandidatePairs diverges from the reference: %d vs %d pairs", label, len(got), len(want))
					}
					got := make(map[Pair]struct{})
					StreamPairs(bl, a, b, opts, func(p Pair) {
						if _, dup := got[p]; dup {
							t.Fatalf("%s: StreamPairs yielded duplicate pair %s→%s", label, p.A.ID, p.B.ID)
						}
						got[p] = struct{}{}
					})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: streamed pair set diverges from the reference: %d streamed vs %d materialized",
							label, len(got), len(want))
					}
				}
				check("a×b", a, b)
				check("dedup a×a", a, a)
			})
		}
	}
}

// TestMatchStreamModeEquivalence pins the per-A-entity enumeration with
// pushdown bound as a pure execution strategy: Match and MatchParallel
// (one worker and several) must return link slices byte-identical to
// scoring the reference materializer's candidate list, for every strategy
// and cap. The rule has no edit bound, so the blocker serves it.
func TestMatchStreamModeEquivalence(t *testing.T) {
	r := normLabelRule()
	for _, bl := range allBlockers() {
		for _, maxBlock := range []int{-1, 3} {
			t.Run(fmt.Sprintf("%s/cap=%d", bl.Name(), maxBlock), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(bl.Name())) + int64(maxBlock)))
				a := randomWordSource(rng, "a", 40)
				b := randomWordSource(rng, "b", 35)
				opts := Options{Blocker: bl, MaxBlockSize: maxBlock}

				want := MatchPairs(r, referencePairs(bl, a, b, opts), opts)
				if got := Match(r, a, b, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("Match diverges from the materialized reference:\n got: %v\nwant: %v", got, want)
				}
				if got := MatchParallel(r, a, b, opts, 3); !reflect.DeepEqual(got, want) {
					t.Fatalf("MatchParallel diverges from the materialized reference:\n got: %v\nwant: %v", got, want)
				}
				if got := MatchParallel(r, a, b, opts, 1); !reflect.DeepEqual(got, want) {
					t.Fatalf("single-worker MatchParallel diverges from the materialized reference:\n got: %v\nwant: %v", got, want)
				}
			})
		}
	}
}

// TestRepeatedIDLinksLastVersion pins how batch matching reads a source
// that lists one ID twice: the entity is the last version, the one
// Source.Get returns and Apply keeps. Every strategy and MatchCartesian
// must link exactly like the source holding only the last versions —
// never the first version under the ID Source.Get resolves to the last.
func TestRepeatedIDLinksLastVersion(t *testing.T) {
	// r has an edit bound, so Match serves it from the rule index (the
	// ruleindex row); the strategies serve norm, its comparison over
	// normLevenshtein, which has none.
	r := rule.New(rule.NewComparison(rule.NewProperty("label"), rule.NewProperty("label"), similarity.Levenshtein(), 2))
	norm := rule.New(rule.NewComparison(rule.NewProperty("label"), rule.NewProperty("label"), similarity.NormalizedLevenshtein(), 0.2))
	labeled := func(id, label string) *entity.Entity {
		e := entity.New(id)
		e.Add("label", label)
		return e
	}
	source := func(name string, es ...*entity.Entity) *entity.Source {
		s := entity.NewSource(name)
		for _, e := range es {
			s.Add(e)
		}
		return s
	}
	// lastVersions is s with each ID once, as Source.Get resolves it, in
	// first-seen order.
	lastVersions := func(s *entity.Source) *entity.Source {
		out := entity.NewSource(s.Name)
		for _, e := range s.Entities {
			if out.Get(e.ID) == nil {
				out.Add(s.Get(e.ID))
			}
		}
		return out
	}

	a := source("a", labeled("a1", "graph learning"), labeled("a2", "parallel systems"))
	b := source("b", labeled("b1", "graph learning"), labeled("b1", "parallel systems"))
	rng := rand.New(rand.NewSource(7))
	ra, rb := randomWordSource(rng, "a", 30), randomWordSource(rng, "b", 25)
	for _, s := range []*entity.Source{ra, rb} {
		// Second versions of the first 8 IDs, listed after the first.
		for _, e := range randomWordSource(rng, s.Name, 8).Entities {
			s.Add(e)
		}
	}

	strategies := diffStrategies()
	names := append(sortedKeys(strategies), "cartesian", "ruleindex")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			match := func(a, b *entity.Source) []Link {
				switch name {
				case "cartesian":
					return MatchCartesian(r, a, b, Options{})
				case "ruleindex":
					return Match(r, a, b, Options{})
				}
				return Match(norm, a, b, Options{Blocker: strategies[name], MaxBlockSize: -1})
			}
			want := []Link{{AID: "a2", BID: "b1", Score: 1}}
			if got := match(a, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("repro: got %v, want %v", got, want)
			}
			linked := 0
			for _, c := range []struct {
				label string
				a, b  *entity.Source
			}{
				{"repeats in A", ra, lastVersions(rb)},
				{"repeats in B", lastVersions(ra), rb},
				{"self-join", rb, rb},
			} {
				got := match(c.a, c.b)
				want := match(lastVersions(c.a), lastVersions(c.b))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: links diverge from the last-version source\n got: %v\nwant: %v", c.label, got, want)
				}
				linked += len(want)
			}
			if name == "cartesian" && linked == 0 {
				t.Fatal("the random sources hold no links: every comparison is vacuous")
			}
		})
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pairSet collects pairs into a set, failing on a duplicate and on pairs
// that are not grouped per A entity (CandidatePairs' documented order).
func pairSet(t *testing.T, ps []Pair) map[Pair]struct{} {
	t.Helper()
	out := make(map[Pair]struct{}, len(ps))
	done := make(map[*entity.Entity]struct{})
	for i, p := range ps {
		if _, dup := out[p]; dup {
			t.Fatalf("duplicate pair %s→%s", p.A.ID, p.B.ID)
		}
		out[p] = struct{}{}
		if i > 0 && ps[i-1].A != p.A {
			done[ps[i-1].A] = struct{}{}
		}
		if _, closed := done[p.A]; closed {
			t.Fatalf("pairs of %s are not grouped", p.A.ID)
		}
	}
	return out
}

// uniqueSource is s without repeated entity pointers.
func uniqueSource(s *entity.Source) *entity.Source {
	out := entity.NewSource(s.Name)
	es, _ := uniqueEntities(s.Entities)
	for _, e := range es {
		out.Add(e)
	}
	return out
}
