package matching

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"genlink/internal/entity"
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
// and cap.
func TestMatchStreamModeEquivalence(t *testing.T) {
	r := labelRule()
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
	for _, e := range uniqueEntities(s.Entities) {
		out.Add(e)
	}
	return out
}
