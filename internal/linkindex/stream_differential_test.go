package linkindex_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// The stream-vs-materialize differential harness: after ANY interleaving
// of Add/Update/Remove, (1) BlockIndex.Each must yield exactly the
// materialized Candidates slice — and the batch blocker's candidates —
// as a set, with no duplicates and regardless of an earlier enumeration
// having been stopped half-way, for every strategy and cap; (2) the
// index must answer Query and QueryID exactly — order included — like
// the materializing reference (referenceQuery: every blocked candidate
// scored, thresholded, sorted, truncated), for every strategy × cap ×
// shard combination and for a rule with and without a pushdown bound.
// Runs under -race in CI alongside the other differential tests.

// eachIDs runs one Each over a fresh seen set, letting yield return
// false once it has been called stopAfter times (stopAfter < 0: never).
// It fails on a duplicate yield, on a yield after the false return and
// on a wrong completion flag, and returns the sorted IDs yielded.
func eachIDs(t *testing.T, bi linkindex.BlockIndex, probe *entity.Entity, maxBlock, stopAfter int) []string {
	t.Helper()
	got := make(map[string]struct{})
	stopped := false
	done := bi.Each(probe, maxBlock, make(map[string]struct{}), func(e *entity.Entity) bool {
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

// batchCap translates a raw BlockIndex cap (≤ 0: unlimited) into the
// batch blocker's (0: derive a default from the corpus, -1: unlimited).
func batchCap(maxBlock int) int {
	if maxBlock == 0 {
		return -1
	}
	return maxBlock
}

func TestDifferentialStreamVsMaterialize(t *testing.T) {
	for name, bl := range diffStrategies() {
		for _, maxBlock := range []int{-1, 0, 6} {
			t.Run(fmt.Sprintf("%s/cap=%d", name, maxBlock), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))*100 + int64(maxBlock)))
				bi := linkindex.NewBlockIndex(bl)
				survivors := make(map[string]*entity.Entity)
				nextID := 0

				checkProbe := func(probe *entity.Entity) {
					t.Helper()
					want := idsOf(bi.Candidates(probe, maxBlock))
					got := eachIDs(t, bi, probe, maxBlock, -1)
					if !equalIDs(got, want) {
						t.Fatalf("probe %s: enumerated candidates diverge from materialized\n got: %v\nwant: %v",
							probe.ID, got, want)
					}
					if batch := batchCandidates(bl, probe, survivors, batchCap(maxBlock)); !equalIDs(got, batch) {
						t.Fatalf("probe %s: enumerated candidates diverge from the batch blocker\n got: %v\nwant: %v",
							probe.ID, got, batch)
					}
					// yield returns false after ⌊n/2⌋ candidates: exactly that
					// many yields, Each reports false, nothing afterwards
					// (eachIDs), and a fresh full enumeration is unharmed.
					if half := len(want) / 2; half > 0 {
						if part := eachIDs(t, bi, probe, maxBlock, half); len(part) != half {
							t.Fatalf("probe %s: stopped enumeration yielded %d candidates, want %d", probe.ID, len(part), half)
						}
					}
					if again := eachIDs(t, bi, probe, maxBlock, -1); !equalIDs(again, want) {
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
						old := survivors[id]
						e := diffEntity(rng, id)
						bi.Remove(old)
						bi.Add(e)
						survivors[id] = e
					default:
						id := ids[rng.Intn(len(ids))]
						bi.Remove(survivors[id])
						delete(survivors, id)
					}

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

// equalLinks reports exact equality, order included.
func equalLinks(a, b []matching.Link) bool {
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

// opaqueSim is an extension operator kind the compiler cannot compile:
// a rule rooted in it scores by the tree-walk and gets no prefilter.
type opaqueSim struct{ rule.SimilarityOp }

func (o opaqueSim) CloneSim() rule.SimilarityOp { return o }

// referenceQuery is the materializing oracle of the query path: score
// every candidate blocking proposes, keep those reaching the threshold,
// order by (score desc, BID asc), truncate to k (k ≤ 0 keeps all).
func referenceQuery(ix *linkindex.ShardedIndex, scorer *evalengine.Scorer, probe *entity.Entity, k int) []matching.Link {
	var links []matching.Link
	for _, cand := range ix.Candidates(probe) {
		if score := scorer.Score(probe, cand); score >= rule.MatchThreshold {
			links = append(links, matching.Link{AID: probe.ID, BID: cand.ID, Score: score})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Score != links[j].Score {
			return links[i].Score > links[j].Score
		}
		return links[i].BID < links[j].BID
	})
	if k > 0 && len(links) > k {
		links = links[:k]
	}
	return links
}

func TestDifferentialStreamQueryVsMaterializedQuery(t *testing.T) {
	// The one query path is pinned in both regimes: with a pushdown bound
	// (the compiled rule) and without one (an opaque rule scored by the
	// tree-walk, for which every candidate reaches Score).
	rules := []struct {
		name      string
		r         *rule.Rule
		prefilter bool
	}{
		{"prefilter", diffRule(), true},
		{"opaque", rule.New(opaqueSim{diffRule().Root}), false},
	}
	for _, rc := range rules {
		compiled := evalengine.Compile(rc.r)
		if got := compiled.Scorer().HasPrefilter(); got != rc.prefilter {
			t.Fatalf("rule %s: HasPrefilter = %v, want %v", rc.name, got, rc.prefilter)
		}
		for name, bl := range diffStrategies() {
			for _, maxBlock := range []int{-1, 0, 6} {
				for _, shards := range []int{1, 2, 5} {
					t.Run(fmt.Sprintf("%s/%s/cap=%d/shards=%d", rc.name, name, maxBlock, shards), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(len(name))*1000 + int64(maxBlock)*10 + int64(shards)))
						ix := linkindex.NewSharded(rc.r, shards, matching.Options{Blocker: bl, MaxBlockSize: maxBlock})
						scorer := compiled.Scorer()
						survivors := make(map[string]*entity.Entity)
						nextID := 0

						checkProbe := func(probe *entity.Entity) {
							t.Helper()
							for _, k := range []int{0, 1, 3} {
								want := referenceQuery(ix, scorer, probe, k)
								got := ix.Query(probe, k)
								if !equalLinks(got, want) {
									t.Fatalf("probe %s k=%d: Query diverges from the materialized reference\n got: %v\nwant: %v",
										probe.ID, k, got, want)
								}
							}
							var wantL []matching.Link
							stored := ix.Get(probe.ID)
							if stored != nil {
								wantL = referenceQuery(ix, scorer, stored, 3)
							}
							gotL, gotOK := ix.QueryID(probe.ID, 3)
							if gotOK != (stored != nil) || !equalLinks(gotL, wantL) {
								t.Fatalf("QueryID(%s): (%v,%v) vs materialized reference (%v,%v)",
									probe.ID, gotL, gotOK, wantL, stored != nil)
							}
						}

						for op := 0; op < 60; op++ {
							ids := sortedIDsOfMap(survivors)
							switch {
							case len(ids) == 0 || rng.Float64() < 0.45:
								id := fmt.Sprintf("e%d", nextID)
								nextID++
								e := diffEntity(rng, id)
								ix.Add(e)
								survivors[id] = e
							case rng.Float64() < 0.5:
								id := ids[rng.Intn(len(ids))]
								e := diffEntity(rng, id)
								ix.Update(e)
								survivors[id] = e
							default:
								id := ids[rng.Intn(len(ids))]
								ix.Remove(id)
								delete(survivors, id)
							}

							if op%10 != 0 {
								continue
							}
							ids = sortedIDsOfMap(survivors)
							if len(ids) > 0 {
								checkProbe(survivors[ids[rng.Intn(len(ids))]])
							}
							checkProbe(diffEntity(rng, "external-probe"))
						}

						// A probe with none of the rule's properties caps every
						// comparison at 0: with a pushdown bound each shard
						// answers before enumerating anything (the one early exit,
						// counted once per shard); without one nothing exits
						// early. Either way the answer is the oracle's: empty.
						bare := entity.New("bare-probe")
						before := ix.Stats().StreamEarlyExits
						if got, want := ix.Query(bare, 3), referenceQuery(ix, scorer, bare, 3); len(want) != 0 || !equalLinks(got, want) {
							t.Fatalf("bare probe: Query = %v, materialized reference = %v, want both empty", got, want)
						}
						wantExits := int64(0)
						if rc.prefilter {
							wantExits = int64(shards)
						}
						if exits := ix.Stats().StreamEarlyExits - before; exits != wantExits {
							t.Fatalf("bare probe: StreamEarlyExits rose by %d, want %d (%d shards, prefilter=%v)",
								exits, wantExits, shards, rc.prefilter)
						}
					})
				}
			}
		}
	}
}

// TestEachAllocsIndependentOfBlockSize pins the hand-off's cost model:
// with a warm seen set and a no-op yield, a full Each over the built-in
// multipass index allocates exactly what extracting the probe's keys
// allocates (tokens, q-grams, sort key) — the same number of objects
// whether the probe's blocks hold 200 candidates or 2,000. A per-block
// copy or a per-candidate cursor object fails it.
func TestEachAllocsIndependentOfBlockSize(t *testing.T) {
	probe := entity.New("probe")
	probe.Add("name", "shared network analysis")
	allocs := func(n int) (perRun float64, yielded int) {
		bi := linkindex.NewBlockIndex(matching.MultiPass(
			matching.TokenBlocking(), matching.SortedNeighborhood(3), matching.QGramBlocking(0)))
		for i := 0; i < n; i++ {
			e := entity.New(fmt.Sprintf("e%d", i))
			e.Add("name", "shared network analysis")
			bi.Add(e)
		}
		seen := make(map[string]struct{})
		yield := func(*entity.Entity) bool { yielded++; return true }
		perRun = testing.AllocsPerRun(10, func() {
			clear(seen)
			yielded = 0
			bi.Each(probe, -1, seen, yield)
		})
		return perRun, yielded
	}
	var sink int
	keys := testing.AllocsPerRun(10, func() {
		sink += len(matching.Tokens(probe)) + len(matching.QGramKeys(probe, 0)) + len(matching.DefaultSortKey(probe))
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
