package linkindex_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// partitionInvariant names the strategies whose sharded candidate union
// is EXACTLY the single-shard candidate set when blocks are uncapped:
// keyed posting lists (token, q-gram — a key's global block is the disjoint
// union of its per-shard blocks). Sorted-neighborhood strategies are
// windowed per shard and produce a superset instead (see the superset
// test below); multipass inherits whichever its members do, so one of
// keyed members only is exact too.
var partitionInvariant = map[string]bool{
	"token":           true,
	"qgram":           true,
	"multipass-keyed": true,
}

// sortLinksLike orders links the way Query does: descending score, ties
// by ascending candidate ID.
func sortLinksLike(links []matching.Link) {
	sort.Slice(links, func(i, j int) bool {
		if links[i].Score != links[j].Score {
			return links[i].Score > links[j].Score
		}
		return links[i].BID < links[j].BID
	})
}

// linksEqual compares two link slices including order.
func linksEqual(a, b []matching.Link) bool {
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

// checkInternal pins the invariants every Query result must satisfy
// regardless of sharding: descending scores (ties by ascending BID), no
// duplicates, no self link, nothing below the threshold, and every score
// equal to the interpreted rule on the live pair.
func checkInternal(t *testing.T, r *rule.Rule, probe *entity.Entity, survivors map[string]*entity.Entity, links []matching.Link) {
	t.Helper()
	seen := make(map[string]bool, len(links))
	for i, l := range links {
		if l.AID != probe.ID {
			t.Fatalf("link AID = %q, want probe %q", l.AID, probe.ID)
		}
		if l.BID == probe.ID {
			t.Fatalf("self link %+v", l)
		}
		if seen[l.BID] {
			t.Fatalf("duplicate candidate %q: %v", l.BID, links)
		}
		seen[l.BID] = true
		if l.Score < rule.MatchThreshold {
			t.Fatalf("sub-threshold link %+v", l)
		}
		if i > 0 {
			prev := links[i-1]
			if prev.Score < l.Score || (prev.Score == l.Score && prev.BID > l.BID) {
				t.Fatalf("result order violated at %d: %v", i, links)
			}
		}
		if want := r.Evaluate(probe, survivors[l.BID]); l.Score != want {
			t.Fatalf("link %+v score diverges from interpreted rule %v", l, want)
		}
	}
}

// shardedBatchCandidates is the ground truth of the sharded contract:
// each shard is an independent single-shard index over its partition, so
// the expected candidate set is the union over shards of the batch
// blocker run on that partition (minus the probe's own record), with an
// explicit cap M applied as ⌈M/N⌉ per shard and a derived cap (0)
// derived per partition — mirroring the documented cap semantics.
func shardedBatchCandidates(bl matching.Blocker, probe *entity.Entity, survivors map[string]*entity.Entity, ix *linkindex.ShardedIndex, maxBlock int) []string {
	perShardCap := maxBlock
	if maxBlock > 0 {
		perShardCap = (maxBlock + ix.Shards() - 1) / ix.Shards()
	}
	union := make(map[string]struct{})
	for s := 0; s < ix.Shards(); s++ {
		partition := make(map[string]*entity.Entity)
		for id, e := range survivors {
			if linkindex.PartitionOf(id, ix.Shards()) == s {
				partition[id] = e
			}
		}
		for _, id := range batchCandidates(bl, probe, partition, perShardCap) {
			union[id] = struct{}{}
		}
	}
	return sortedIDs(union)
}

// TestDifferentialShardedVsSingleShard is the sharding differential: a
// ShardedIndex and a single-shard Index receive identical random
// Add/Update/Remove interleavings for every blocker strategy and cap
// setting. At every probe point the sharded candidates and query results
// must equal the union-of-independent-partitions ground truth (batch
// blocking per shard partition, interpreted rule scoring) exactly; for
// partition-invariant strategies with uncapped blocks they must
// additionally be literally identical to the single-shard index (same
// pairs, same scores, same order up to the deterministic tie-break); for
// uncapped sorted-neighborhood and multipass they must be a
// score-agreeing superset of the single-shard results. The bounded
// per-shard top-k heap is pinned against the full k=0 result.
func TestDifferentialShardedVsSingleShard(t *testing.T) {
	r := diffRule()
	for name, bl := range diffStrategies() {
		for _, shards := range []int{2, 5} {
			for _, maxBlock := range []int{-1, 0, 6} {
				exact := partitionInvariant[name] && maxBlock == -1
				t.Run(fmt.Sprintf("%s/shards=%d/cap=%d", name, shards, maxBlock), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))*10_000 + int64(shards)*100 + int64(maxBlock)))
					opts := matching.Options{Blocker: bl, MaxBlockSize: maxBlock}
					single := linkindex.New(r, opts)
					sharded := linkindex.NewSharded(r, shards, opts)
					survivors := make(map[string]*entity.Entity)
					nextID := 0

					checkProbe := func(probe *entity.Entity) {
						t.Helper()
						shardedLinks := sharded.Query(probe, 0)
						checkInternal(t, r, probe, survivors, shardedLinks)

						// Candidates ≡ per-partition batch blocking.
						wantCands := shardedBatchCandidates(bl, probe, survivors, sharded, maxBlock)
						if gotCands := idsOf(sharded.Candidates(probe)); !equalIDs(gotCands, wantCands) {
							t.Fatalf("probe %s: sharded candidates diverge from per-partition batch blocker\n got: %v\nwant: %v",
								probe.ID, gotCands, wantCands)
						}
						// Query ≡ interpreted scoring of those candidates.
						var want []matching.Link
						for _, id := range wantCands {
							if s := r.Evaluate(probe, survivors[id]); s >= rule.MatchThreshold {
								want = append(want, matching.Link{AID: probe.ID, BID: id, Score: s})
							}
						}
						sortLinksLike(want)
						if !linksEqual(shardedLinks, want) {
							t.Fatalf("probe %s: sharded links diverge from scored ground truth\n got: %v\nwant: %v",
								probe.ID, shardedLinks, want)
						}

						singleLinks := single.Query(probe, 0)
						if exact && !linksEqual(singleLinks, shardedLinks) {
							t.Fatalf("probe %s: sharded links diverge from single-shard\n single: %v\nsharded: %v",
								probe.ID, singleLinks, shardedLinks)
						}
						if maxBlock < 0 {
							// Uncapped: every single-shard link appears in the
							// sharded result with an identical score (equality
							// for partition-invariant strategies, the window
							// superset for sorted-neighborhood members).
							byID := make(map[string]float64, len(shardedLinks))
							for _, l := range shardedLinks {
								byID[l.BID] = l.Score
							}
							for _, l := range singleLinks {
								score, ok := byID[l.BID]
								if !ok {
									t.Fatalf("probe %s: sharded result lost single-shard link %+v\nsharded: %v",
										probe.ID, l, shardedLinks)
								}
								if score != l.Score {
									t.Fatalf("probe %s: score of %s diverges: single %v, sharded %v",
										probe.ID, l.BID, l.Score, score)
								}
							}
						}
						// Bounded-heap top-k ≡ truncated full result.
						topk := sharded.Query(probe, 3)
						wantTop := shardedLinks
						if len(wantTop) > 3 {
							wantTop = wantTop[:3]
						}
						if !linksEqual(topk, wantTop) {
							t.Fatalf("probe %s: top-3 %v, want prefix of full result %v", probe.ID, topk, shardedLinks)
						}
					}

					for op := 0; op < 80; op++ {
						ids := sortedIDsOfMap(survivors)
						switch {
						case len(ids) == 0 || rng.Float64() < 0.45:
							id := fmt.Sprintf("e%d", nextID)
							nextID++
							e := diffEntity(rng, id)
							single.Add(e)
							sharded.Add(e)
							survivors[id] = e
						case rng.Float64() < 0.5:
							id := ids[rng.Intn(len(ids))]
							e := diffEntity(rng, id)
							single.Update(e)
							sharded.Update(e)
							survivors[id] = e
						default:
							id := ids[rng.Intn(len(ids))]
							if single.Remove(id) != sharded.Remove(id) {
								t.Fatalf("Remove(%s) presence diverges", id)
							}
							delete(survivors, id)
						}
						if single.Len() != sharded.Len() {
							t.Fatalf("Len diverges: single %d, sharded %d", single.Len(), sharded.Len())
						}

						if op%8 != 0 {
							continue
						}
						ids = sortedIDsOfMap(survivors)
						if len(ids) > 0 {
							checkProbe(survivors[ids[rng.Intn(len(ids))]])
						}
						checkProbe(diffEntity(rng, "external-probe"))
					}
				})
			}
		}
	}
}

// TestShardedSupersetOfSingleShard pins the documented recall guarantee
// in isolation: for uncapped sorted-neighborhood strategies, a per-shard
// window of size w is a superset of the global window's in-shard pairs
// (the shard's sorted list is a subsequence of the global one), so the
// sharded candidate set contains every single-shard candidate — and the
// uncapped multipass union inherits the guarantee from its members.
func TestShardedSupersetOfSingleShard(t *testing.T) {
	cases := map[string]struct {
		bl       matching.Blocker
		maxBlock int
	}{
		"sn-window":   {matching.SortedNeighborhood(4), -1},
		"sn-property": {matching.SortedNeighborhoodBlocker{Window: 3, Key: matching.PropertySortKey("name", "title")}, -1},
		"sn-reversed": {matching.SortedNeighborhoodBlocker{Window: 5, Key: matching.ReversedKey(matching.DefaultSortKey)}, -1},
		"multipass":   {matching.MultiPass(), -1},
	}
	r := diffRule()
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			opts := matching.Options{Blocker: tc.bl, MaxBlockSize: tc.maxBlock}
			single := linkindex.New(r, opts)
			sharded := linkindex.NewSharded(r, 4, opts)
			var corpus []*entity.Entity
			for i := 0; i < 150; i++ {
				corpus = append(corpus, diffEntity(rng, fmt.Sprintf("s%d", i)))
			}
			single.BulkLoad(corpus)
			sharded.BulkLoad(corpus)
			for i := 0; i < 150; i += 7 {
				probe := corpus[i]
				shardedSet := make(map[string]struct{})
				for _, id := range idsOf(sharded.Candidates(probe)) {
					shardedSet[id] = struct{}{}
				}
				for _, id := range idsOf(single.Candidates(probe)) {
					if _, ok := shardedSet[id]; !ok {
						t.Fatalf("probe %s: single-shard candidate %s missing from sharded set (%d single, %d sharded)",
							probe.ID, id, len(single.Candidates(probe)), len(shardedSet))
					}
				}
			}
		})
	}
}

// TestApplyBatchSemantics pins the write pipeline's contract: per-ID
// last-upsert-wins, delete-beats-upsert within one batch, upsert counts
// distinct IDs, delete counts only previously present IDs — and the
// resulting corpus and query answers are identical to applying the same
// logical ops one at a time.
func TestApplyBatchSemantics(t *testing.T) {
	r := diffRule()
	rng := rand.New(rand.NewSource(7))
	opts := matching.Options{Blocker: matching.MultiPass()}
	batched := linkindex.NewSharded(r, 3, opts)
	individual := linkindex.NewSharded(r, 3, opts)

	for _, ix := range []*linkindex.ShardedIndex{batched, individual} {
		ix.BulkLoad([]*entity.Entity{
			diffEntity(rand.New(rand.NewSource(1)), "keep"),
			diffEntity(rand.New(rand.NewSource(2)), "replace"),
			diffEntity(rand.New(rand.NewSource(3)), "drop"),
		})
	}

	newV1 := diffEntity(rng, "new")
	newV2 := diffEntity(rng, "new") // later occurrence must win
	replaceV := diffEntity(rng, "replace")
	ghost := diffEntity(rng, "ghost") // upserted AND deleted in one batch

	res := batched.Apply(linkindex.Batch{
		Upserts: []*entity.Entity{newV1, replaceV, ghost, newV2},
		Deletes: []string{"drop", "ghost", "absent", "drop"},
	})
	// Distinct upserts: new, replace (ghost is deleted). Deletes that were
	// present before the batch: drop (ghost never materializes, absent was
	// never there, the repeated drop counts once).
	if res.Upserted != 2 || res.Deleted != 1 {
		t.Fatalf("ApplyResult = %+v, want Upserted=2 Deleted=1", res)
	}

	individual.Update(replaceV)
	individual.Add(newV2)
	individual.Remove("drop")

	if batched.Len() != individual.Len() {
		t.Fatalf("Len: batched %d, individual %d", batched.Len(), individual.Len())
	}
	if batched.Get("ghost") != nil {
		t.Fatal("ghost (upserted then deleted in one batch) materialized")
	}
	if got := batched.Get("new"); got != newV2 {
		t.Fatalf("new = %v, want the later batch occurrence", got)
	}
	be, ie := batched.Entities(), individual.Entities()
	if !equalIDs(idsOf(be), idsOf(ie)) {
		t.Fatalf("corpus diverges: batched %v, individual %v", idsOf(be), idsOf(ie))
	}
	for _, e := range be {
		probe := diffEntity(rand.New(rand.NewSource(int64(len(e.ID)))), "probe")
		if !linksEqual(batched.Query(probe, 0), individual.Query(probe, 0)) {
			t.Fatalf("query answers diverge after batch vs individual application")
		}
	}
}

// TestShardedConcurrentApplyQueryRace is the race-enabled fan-out test:
// Apply batches, single-op writes, fan-out queries, stats, snapshots and
// entity listings all hammer one 4-shard index concurrently. Each writer
// owns a disjoint ID range so the final corpus is deterministic; after
// quiescing, the sharded index must answer exactly like a fresh
// single-shard index over the final corpus (token blocking uncapped is
// partition-invariant, so equality is exact).
func TestShardedConcurrentApplyQueryRace(t *testing.T) {
	r := diffRule()
	opts := matching.Options{Blocker: matching.TokenBlocking(), MaxBlockSize: -1}
	ix := linkindex.NewSharded(r, 4, opts)

	const writers, perWriter = 3, 20
	finals := make([]map[string]*entity.Entity, writers)
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		finals[w] = make(map[string]*entity.Entity)
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			final := finals[w]
			for i := 0; i < 120; i++ {
				id := fmt.Sprintf("w%d-%d", w, rng.Intn(perWriter))
				switch rng.Intn(4) {
				case 0: // batched upserts + deletes
					other := fmt.Sprintf("w%d-%d", w, rng.Intn(perWriter))
					e := diffEntity(rng, id)
					ix.Apply(linkindex.Batch{Upserts: []*entity.Entity{e}, Deletes: []string{other}})
					final[id] = e
					if other != id {
						delete(final, other)
					} else {
						delete(final, id)
					}
				case 1:
					e := diffEntity(rng, id)
					ix.Add(e)
					final[id] = e
				case 2:
					e := diffEntity(rng, id)
					ix.Update(e)
					final[id] = e
				case 3:
					ix.Remove(id)
					delete(final, id)
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		readWG.Add(1)
		go func(g int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 150; i++ {
				probe := diffEntity(rng, fmt.Sprintf("w%d-%d", rng.Intn(writers), rng.Intn(perWriter)))
				links := ix.Query(probe, 5)
				seen := make(map[string]bool)
				for j, l := range links {
					if l.BID == probe.ID {
						t.Errorf("self link %+v", l)
					}
					if seen[l.BID] {
						t.Errorf("duplicate candidate %q", l.BID)
					}
					seen[l.BID] = true
					if l.Score < rule.MatchThreshold {
						t.Errorf("sub-threshold link %+v", l)
					}
					if j > 0 && links[j-1].Score < l.Score {
						t.Errorf("scores not descending: %v", links)
					}
				}
				st := ix.Stats()
				sum := 0
				for _, n := range st.ShardEntities {
					sum += n
				}
				if sum != st.Entities {
					t.Errorf("shard sizes %v sum to %d, want %d", st.ShardEntities, sum, st.Entities)
				}
				ix.Entities()
			}
		}(g)
	}
	// One goroutine snapshots while writes are in flight: per-shard locks
	// must make this safe even though the cross-shard cut is relaxed.
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				ix.WriteSnapshot(discard{})
			}
		}
	}()

	readWG.Wait()
	writeWG.Wait()
	close(stop)
	<-snapDone
	if t.Failed() {
		return
	}

	// Quiescent equality against a fresh single-shard index.
	corpus := make(map[string]*entity.Entity)
	for _, final := range finals {
		for id, e := range final {
			corpus[id] = e
		}
	}
	if ix.Len() != len(corpus) {
		t.Fatalf("final Len = %d, want %d", ix.Len(), len(corpus))
	}
	single := linkindex.New(r, opts)
	for _, e := range corpus {
		single.Add(e)
	}
	for id := range corpus {
		got, ok := ix.QueryID(id, 0)
		if !ok {
			t.Fatalf("QueryID(%s) unknown on sharded index", id)
		}
		want, _ := single.QueryID(id, 0)
		if !linksEqual(got, want) {
			t.Fatalf("quiescent QueryID(%s): sharded %v, single %v", id, got, want)
		}
	}
}

// discard is an io.Writer swallowing snapshot bytes in the race test.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
