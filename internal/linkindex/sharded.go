package linkindex

import (
	"runtime"
	"sync"
	"sync/atomic"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// ShardedIndex is the storage layer of the matching service: the entity
// corpus is hash-partitioned over N shards, each owning an index of the
// rule's matching.CandidateSource and, by the index's slot, the scoring
// record of every stored entity (an evalengine.Record, built once per
// entity version at write time), behind a per-shard RWMutex. Writes touch only the shards their entity IDs hash to, so writes to
// different shards proceed in parallel and a write never stalls queries
// against the other N−1 shards. Queries fan out across all shards
// concurrently, score each shard's candidates through
// matching.ScoreCandidates (the one scoring loop, with a bounded top-k
// heap), and merge the per-shard winners.
//
// # Candidate semantics under sharding
//
// Each shard behaves exactly like an independent single-shard index over
// its partition — same code path, same per-partition cap derivation —
// and the index unions the per-shard candidate sets. Concretely:
//
//   - Partition-invariant strategies (token and q-gram posting lists
//     with no block-size cap): a key's global block is the disjoint
//     union of its per-shard blocks, so the union is exactly the
//     single-shard candidate set and query results are identical to an
//     unsharded Index.
//   - Sorted neighborhood: each shard keeps its own sorted list, and a
//     probe takes a window of w on either side per shard. The shard's
//     list is a subsequence of the global sorted list, so any entity
//     within w global positions of the probe is within ≤ w positions in
//     its shard's list: the per-shard windows are a superset of the
//     global window's in-shard pairs. Recall never drops; up to
//     2·w·(N−1) extra candidates may appear.
//   - Block-size caps (stop-token suppression) apply per shard. An
//     explicit cap M becomes ⌈M/N⌉ per shard. A derived cap (zero
//     MaxBlockSize) is matching.DefaultMaxBlockSize of the shard's own
//     partition, n_s/20 + 50: its n/20 part divides across the shards,
//     its +50 floor does not, so N shards together admit key blocks of
//     up to about n/20 + 50·N entities where one shard stops at
//     n/20 + 50. A sharded index therefore scores blocks a single-shard
//     index suppresses, and answers differ: over 400 Cora entities under
//     a max of three comparisons, 114 (multipass), 146 (token) and 161
//     (q-gram) of 400 QueryID answers differ between 1 and 3 shards, and
//     none with MaxBlockSize -1. That is one reason a corpus keeps the
//     shard count it was created with; ROADMAP item 26 plans to remove
//     the served cap.
//
// TestDifferentialShardedVsSingleShard pins the union-of-independent-
// partitions contract exactly (per-partition batch blocking as ground
// truth) for every strategy and cap, plus literal sharded ≡ single-shard
// equality for the partition-invariant strategies;
// TestShardedSupersetOfSingleShard pins the sorted-neighborhood window
// superset. All of this is about rules without an edit bound: a rule
// index's candidates are a pure function of the probe and the stored
// entities, so its links are exactly those of scoring every stored
// entity (TestServedEqualsBruteForce), as batch matching's are.
//
// # Isolation semantics
//
// Every method is safe for concurrent use. Writes and queries are
// serialized per shard: a query observes a consistent snapshot of each
// shard, and Apply installs a batch's per-shard group atomically with
// respect to queries. Across shards there is no global barrier — a query
// racing an Apply may see the batch applied in some shards and not yet in
// others. Once writes quiesce, results are exactly those of the final
// corpus (the race-enabled fan-out test pins the invariants every
// intermediate read must satisfy, and quiescent equality).
type ShardedIndex struct {
	rule     *rule.Rule
	compiled *evalengine.Compiled
	opts     matching.Options
	shards   []*shard
	// source serves the rule's candidates: every shard keeps one of its
	// indexes.
	source matching.CandidateSource
	count  atomic.Int64 // total entities across shards
	// streamEarlyExits counts per-shard queries answered without
	// enumerating a candidate (probe bound below threshold).
	streamEarlyExits atomic.Int64
}

// shard is one partition: a single-mutex miniature of the retired
// monolithic index. Its candidate index's entity table is the shard's
// only map from ID to slot; records holds, at each live slot, the
// scoring record of the entity there (Record.Entity is the entity
// itself) and nil at each free slot, so the entity and its record are
// installed and replaced together.
type shard struct {
	mu      sync.RWMutex
	index   matching.CandidateIndex
	records []*evalengine.Record
}

// NewSharded returns an empty index with the given shard count (≤ 0 means
// one shard per two CPUs: max(1, runtime.GOMAXPROCS(0)/2)) serving the
// given rule from its matching.CandidateSource; snapshots and every
// restore keep the count (SnapshotVersion). Every query pays its
// fixed costs — the probe's index-key lookups, a pattern build, a
// goroutine and a merge — once per shard, while writes, snapshots and
// recovery build records on every core whatever the shard count, so the
// default keeps shards few. opts follows matching.Options semantics, but
// a zero MaxBlockSize derives the stop-token cap from the current corpus
// size. New(r, opts) is the single-shard special case.
func NewSharded(r *rule.Rule, shards int, opts matching.Options) *ShardedIndex {
	if shards <= 0 {
		shards = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if opts.Threshold == 0 {
		opts.Threshold = rule.MatchThreshold
	}
	if opts.Blocker == nil {
		opts.Blocker = matching.TokenBlocking()
	}
	c := evalengine.Compile(r)
	ix := &ShardedIndex{rule: r, compiled: c, opts: opts, shards: make([]*shard, shards), source: matching.NewCandidateSource(c, opts)}
	for i := range ix.shards {
		ix.shards[i] = &shard{index: ix.source.NewIndex()}
	}
	return ix
}

// CandidateSource names what serves the rule's candidates: the rule
// index under its edit bound, or the blocker.
func (ix *ShardedIndex) CandidateSource() string { return ix.source.String() }

// Rule returns the linkage rule the index scores with.
func (ix *ShardedIndex) Rule() *rule.Rule { return ix.rule }

// Shards returns the number of hash partitions.
func (ix *ShardedIndex) Shards() int { return len(ix.shards) }

// PartitionOf returns the partition owning the given entity ID among
// parts partitions — the FNV-1a placement function shared by every layer
// that hash-partitions by entity ID: ShardedIndex shards within one
// process, and the scale-out router (internal/linkrouter) partitioning
// entity IDs across leader/replica groups. A router over N groups whose
// group g holds a ShardedIndex places IDs exactly where PartitionOf(id, N)
// says, so cross-node placement is a pure function of (ID, group count).
func PartitionOf(id string, parts int) int {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % uint32(parts))
}

// shardOf returns the index of the shard owning the given entity ID — a
// pure function of (ID, shard count).
func (ix *ShardedIndex) shardOf(id string) int {
	return PartitionOf(id, len(ix.shards))
}

// Add inserts e into the corpus, replacing any entity with the same ID
// (Add of a known ID is an update). It is Apply of a one-upsert batch, so
// only e's shard is locked and the write is atomic with respect to
// queries of that shard. The index takes ownership of e: do not mutate it
// afterwards without calling Update.
func (ix *ShardedIndex) Add(e *entity.Entity) {
	ix.Apply(Batch{Upserts: []*entity.Entity{e}})
}

// Update replaces the entity with e.ID by e: the block structures are
// re-keyed and e's scoring record replaces the old version's. Always
// pass a freshly built entity value — mutating a stored entity (as
// returned by Get) in place is a data race against concurrent queries,
// which read entity properties under only the read lock, and its record
// would keep scoring the old values.
func (ix *ShardedIndex) Update(e *entity.Entity) {
	ix.Add(e)
}

// Remove deletes the entity with the given ID and reports whether it was
// present. It is Apply of a one-delete batch.
func (ix *ShardedIndex) Remove(id string) bool {
	return ix.Apply(Batch{Deletes: []string{id}}).Deleted > 0
}

// Batch is one group of writes for Apply. Within a batch, the last
// upsert of an ID wins over earlier upserts of the same ID, and a delete
// of an ID wins over any upsert of it (deletes are applied last).
type Batch struct {
	// Upserts are entities to add or replace, like Update.
	Upserts []*entity.Entity
	// Deletes are entity IDs to remove; unknown IDs are ignored.
	Deletes []string
}

// ApplyResult summarizes one Apply call.
type ApplyResult struct {
	// Upserted counts distinct IDs added or replaced (an ID repeated
	// within the batch counts once; an ID also deleted counts zero).
	Upserted int
	// Deleted counts IDs that were present before the batch and are gone
	// after it.
	Deleted int
}

// shardOps is one partition's resolved slice of a Batch: the final op
// per ID in first-seen upsert order (a nil upsert slot marks an ID a
// later delete won over). buildRecords drops the nil slots and sets recs
// and keys, the fresh versions' scoring records and index keys by
// position.
type shardOps struct {
	part    int
	upserts []*entity.Entity
	pos     map[string]int
	deletes []string
	recs    []*evalengine.Record
	keys    [][]uint64
}

// partitionOps resolves a batch to one final op per ID — later upsert
// occurrences win, a delete beats an upsert of the same ID — grouped by
// PartitionOf(id, parts). Apply, the replay pipeline and SplitBatch all
// start from it, so every write, in-process or routed across nodes,
// shares one batch semantics. Only touched partitions get a group, in
// first-touch order.
func partitionOps(b Batch, parts int) []*shardOps {
	byPart := make([]*shardOps, parts)
	var groups []*shardOps
	groupFor := func(id string) *shardOps {
		p := PartitionOf(id, parts)
		g := byPart[p]
		if g == nil {
			g = &shardOps{part: p, pos: make(map[string]int)}
			byPart[p] = g
			groups = append(groups, g)
		}
		return g
	}
	for _, e := range b.Upserts {
		g := groupFor(e.ID)
		if i, dup := g.pos[e.ID]; dup {
			g.upserts[i] = e // later batch occurrence wins
			continue
		}
		g.pos[e.ID] = len(g.upserts)
		g.upserts = append(g.upserts, e)
	}
	for _, id := range b.Deletes {
		g := groupFor(id)
		if i, up := g.pos[id]; up {
			g.upserts[i] = nil // delete beats upsert of the same ID
			delete(g.pos, id)
		}
		g.deletes = append(g.deletes, id)
	}
	return groups
}

// SplitBatch resolves a batch with Apply's exact dedup semantics — later
// upsert occurrences of an ID win, a delete beats an upsert of the same
// ID — and groups the resolved ops by PartitionOf(id, parts). Only
// partitions the batch touches appear in the result. The scale-out
// router splits client write batches across partition groups with this,
// so a batch routed over N groups lands exactly as it would through one
// N-shard Apply (the differential router tests pin that equality).
func SplitBatch(b Batch, parts int) map[int]Batch {
	out := make(map[int]Batch)
	for _, g := range partitionOps(b, parts) {
		var pb Batch
		for _, e := range g.upserts {
			if e != nil {
				pb.Upserts = append(pb.Upserts, e)
			}
		}
		pb.Deletes = g.deletes
		out[g.part] = pb
	}
	return out
}

// recordChunk is the fewest fresh versions buildRecords builds records
// for on one goroutine. A record and its index keys take microseconds per
// entity, a goroutine's spawn and join about one, so a chunk of 16 keeps
// the fork cost a few percent of the work: a routed write of a few
// entities builds inline, and a 64-entity batch splits across the cores.
const recordChunk = 16

// buildRecords builds the records and index keys
// (CandidateSource.StoredKeys, from the records' values) of g's fresh
// versions: pure functions of the entities, built without a lock, in
// chunks of at least recordChunk versions on up to GOMAXPROCS
// goroutines, so a batch, a snapshot section or a replayed record builds
// on every core however few shards there are. Apply runs it and then
// installShardOps for each touched shard; the replay pipeline runs the
// two on a goroutine each per shard, so one record's build overlaps the
// previous record's install.
func (ix *ShardedIndex) buildRecords(g *shardOps) {
	fresh := g.upserts[:0]
	for _, e := range g.upserts {
		if e != nil {
			fresh = append(fresh, e)
		}
	}
	g.upserts = fresh
	g.recs = make([]*evalengine.Record, len(fresh))
	g.keys = make([][]uint64, len(fresh))
	chunks := max(1, min(runtime.GOMAXPROCS(0), len(fresh)/recordChunk))
	parallel(chunks, func(c int) {
		lo, hi := c*len(fresh)/chunks, (c+1)*len(fresh)/chunks
		for i := lo; i < hi; i++ {
			g.recs[i] = ix.compiled.Record(fresh[i])
		}
		copy(g.keys[lo:hi], ix.source.StoredKeys(g.recs[lo:hi]))
	})
}

// installShardOps installs one shard's built ops (buildRecords) under
// its write lock — old versions leave the index through BulkRemove, new
// versions enter through BulkAdd — and reports the distinct upserts and
// deletes performed. It is the only code that writes a shard's records,
// its index and the entity count, so they stay in lockstep by
// construction. It may run concurrently for different shards; per shard
// it is atomic with respect to queries.
func (ix *ShardedIndex) installShardOps(g *shardOps) (upserted, deleted int) {
	sh := ix.shards[g.part]
	fresh, recs, keys := g.upserts, g.recs, g.keys
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Deleted and replaced versions leave in one BulkRemove; the two ID
	// sets are disjoint, because a delete beats an upsert of the same ID.
	gone := append(make([]string, 0, len(g.deletes)+len(fresh)), g.deletes...)
	replaced := 0
	for _, e := range fresh {
		if _, ok := sh.index.Slot(e.ID); ok {
			gone = append(gone, e.ID)
			replaced++
		}
	}
	freed := sh.index.BulkRemove(gone)
	taken := sh.index.BulkAdd(recs, keys)
	for _, s := range freed {
		sh.records[s] = nil
	}
	for i, s := range taken {
		for int(s) >= len(sh.records) {
			sh.records = append(sh.records, nil)
		}
		sh.records[s] = recs[i]
	}
	deleted = len(freed) - replaced
	ix.count.Add(int64(len(fresh) - replaced - deleted))
	return len(fresh), deleted
}

// Apply is the write path of Add, Update, Remove, BulkLoad, the durable
// layer's commit step (logged writes, shipped records, backfill), a
// follower's re-bootstrap and snapshot restore; WAL replay alone runs
// the same two steps, buildRecords and then installShardOps, through
// its own per-shard pipeline (replay.go). Writes are grouped per
// shard, shards are written in parallel, each group's records are built
// on every core before the lock, and each shard takes its write lock
// exactly once, where installShardOps removes old versions in one
// BulkRemove and adds new ones in one BulkAdd. The batch semantics are
// Batch's: the last upsert of an ID wins and a delete beats an upsert.
// Per shard the batch is atomic with respect to queries; across shards
// there is no barrier, so a racing query may see it in some shards first
// (see the isolation notes on ShardedIndex).
func (ix *ShardedIndex) Apply(b Batch) ApplyResult {
	groups := partitionOps(b, len(ix.shards))
	var upserted, deleted atomic.Int64
	parallel(len(groups), func(i int) {
		ix.buildRecords(groups[i])
		u, d := ix.installShardOps(groups[i])
		upserted.Add(int64(u))
		deleted.Add(int64(d))
	})
	return ApplyResult{Upserted: int(upserted.Load()), Deleted: int(deleted.Load())}
}

// BulkLoad adds every entity through the Apply write pipeline — the fast
// path for seeding a corpus. Entities whose IDs are already indexed — or
// repeated within the batch — replace the earlier version, like Update.
// It returns the number of distinct entities applied (an ID repeated
// within the batch counts once).
func (ix *ShardedIndex) BulkLoad(entities []*entity.Entity) int {
	return ix.Apply(Batch{Upserts: entities}).Upserted
}

// Len returns the current corpus size.
func (ix *ShardedIndex) Len() int { return int(ix.count.Load()) }

// Get returns the stored entity with the given ID, or nil. The returned
// entity must not be mutated (use Update with a fresh value).
func (ix *ShardedIndex) Get(id string) *entity.Entity {
	sh := ix.shards[ix.shardOf(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s, ok := sh.index.Slot(id); ok {
		return sh.records[s].Entity()
	}
	return nil
}

// entities returns the shard's stored entities in slot order, read under
// its read lock.
func (sh *shard) entities() []*entity.Entity {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]*entity.Entity, 0, sh.index.Len())
	for _, r := range sh.records {
		if r != nil {
			out = append(out, r.Entity())
		}
	}
	return out
}

// Entities returns a snapshot of the corpus sorted by ID. Each shard is
// read under its lock; see the isolation notes for cross-shard semantics.
func (ix *ShardedIndex) Entities() []*entity.Entity {
	out := make([]*entity.Entity, 0, ix.Len())
	for _, sh := range ix.shards {
		out = append(out, sh.entities()...)
	}
	matching.SortByID(out)
	return out
}

// Stats returns a point-in-time summary.
func (ix *ShardedIndex) Stats() Stats {
	st := Stats{
		Blocker:          ix.opts.Blocker.Name(),
		Candidates:       ix.source.String(),
		Threshold:        ix.opts.Threshold,
		Shards:           len(ix.shards),
		ShardEntities:    make([]int, len(ix.shards)),
		StreamEarlyExits: ix.streamEarlyExits.Load(),
	}
	for i, sh := range ix.shards {
		sh.mu.RLock()
		st.Entities += sh.index.Len()
		st.Keys += sh.index.Keys()
		st.ShardEntities[i] = sh.index.Len()
		sh.mu.RUnlock()
	}
	return st
}

// maxBlock resolves Options.MaxBlockSize into shard sh's cap for one
// probe, under the shard lock. An explicit cap M > 0 becomes ⌈M/N⌉ per
// shard: a key over-represented in the corpus is over-represented in
// each ~1/N partition (see ShardedIndex). 0 derives the cap as
// matching.Options.normalize does, from the shard's partition minus the
// probe's own record, so its +50 floor is per shard. Negative is
// uncapped. A rule index caps nothing.
func (ix *ShardedIndex) maxBlock(sh *shard, probe *entity.Entity) int {
	switch m := ix.opts.MaxBlockSize; {
	case m > 0:
		return (m + len(ix.shards) - 1) / len(ix.shards)
	case m < 0:
		return 0 // BlockIndex treats ≤0 as uncapped
	}
	n := sh.index.Len()
	if _, ok := sh.index.Slot(probe.ID); ok {
		n--
	}
	return matching.DefaultMaxBlockSize(n)
}

// Candidates returns the indexed entities a query scores for the probe,
// sorted by ID — the pre-scoring half of Query, exposed so candidate
// generation is observable (and differentially testable) on its own:
// under an edit bound, every stored entity within K edits of the probe
// on the bound's values (none when its bound misses the threshold);
// otherwise the ones blocking proposes, unioned over the shards (see
// ShardedIndex). The probe's own record (same ID) is never one.
func (ix *ShardedIndex) Candidates(probe *entity.Entity) []*entity.Entity {
	rec := ix.compiled.Record(probe)
	keys := ix.source.ProbeKeys(rec)
	perShard := make([][]*entity.Entity, len(ix.shards))
	parallel(len(ix.shards), func(i int) {
		sh := ix.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		sh.index.For(rec, keys).Each(probe, ix.maxBlock(sh, probe), new(matching.SlotSet), func(s int32) bool {
			perShard[i] = append(perShard[i], sh.records[s].Entity())
			return true
		})
	})
	var out []*entity.Entity
	for _, cands := range perShard {
		out = append(out, cands...)
	}
	matching.SortByID(out)
	return out
}

// Query matches the probe against the corpus and returns the top-k links
// with score ≥ the threshold, ordered by descending score then candidate
// ID (AID is always probe.ID). k ≤ 0 returns every link above the
// threshold. The probe need not be indexed; if it is, its own record is
// excluded. The probe's scoring record is built once and shared by the
// shards, which are queried in parallel; each scores its candidates
// through matching.ScoreCandidates, the loop batch matching runs too,
// keeping its best k, and MergeTopK merges the per-shard winners.
func (ix *ShardedIndex) Query(probe *entity.Entity, k int) []matching.Link {
	rec := ix.compiled.Record(probe)
	keys := ix.source.ProbeKeys(rec)
	perShard := make([][]matching.Link, len(ix.shards))
	parallel(len(ix.shards), func(i int) {
		perShard[i] = ix.query(ix.shards[i], rec, keys, k)
	})
	return MergeTopK(perShard, k)
}

// MergeTopK merges per-partition result lists into the one link order
// (matching.SortLinks: for one probe, descending score, ties broken by
// ascending candidate ID), truncated to k when k > 0. It is the merge
// step of the sharded Query fan-out, exported because the cross-node
// contract is the same one: a router fanning a top-k query out to
// partition groups merges the per-group winners with exactly this
// function, so routed results equal one big index's (each input list
// need only contain that partition's top k).
func MergeTopK(perShard [][]matching.Link, k int) []matching.Link {
	var links []matching.Link
	for _, ls := range perShard {
		links = append(links, ls...)
	}
	matching.SortLinks(links)
	if k > 0 && len(links) > k {
		links = links[:k:k]
	}
	return links
}

// QueryID matches the stored entity with the given ID against the rest
// of the corpus. It reports false if the ID is not indexed. The home
// shard's read lock is held from the lookup to the end of the home
// shard's portion of the query, so the probe version always matches its
// own shard's corpus (at N=1 this is the full lookup+query atomicity of
// the retired monolithic index); the other shards follow the usual
// relaxed cross-shard isolation. The home shard's portion runs in the
// same fan-out as the others, so a stored-ID query waits for the slowest
// shard, not for the home shard and then the rest. Holding the home lock
// while the other shards take theirs cannot deadlock: writers take one
// shard lock at a time. Every shard scores against the home shard's
// stored record of the probe.
func (ix *ShardedIndex) QueryID(id string, k int) ([]matching.Link, bool) {
	hi := ix.shardOf(id)
	home := ix.shards[hi]
	home.mu.RLock()
	s, ok := home.index.Slot(id)
	if !ok {
		home.mu.RUnlock()
		return nil, false
	}
	probe := home.records[s]
	keys := ix.source.ProbeKeys(probe)
	perShard := make([][]matching.Link, len(ix.shards))
	parallel(len(ix.shards), func(i int) {
		if i != hi {
			perShard[i] = ix.query(ix.shards[i], probe, keys, k)
			return
		}
		defer home.mu.RUnlock()
		perShard[i] = ix.queryLocked(home, probe, keys, k)
	})
	return MergeTopK(perShard, k), true
}

// parallel runs f(0), …, f(n-1) and returns when all have returned:
// one goroutine per item when there is more than one item and the
// runtime can run goroutines in parallel, inline otherwise. A
// single-shard query or a one-chunk write spawns nothing, and on a
// GOMAXPROCS=1 runtime sequential calls do the same work without the
// spawn/join overhead. Query fan-out and Apply run one item per shard;
// buildRecords and the sectioned snapshot encode and restore size their
// items by GOMAXPROCS, so the write side's parallelism follows the
// cores, not the shard count.
func parallel(n int, f func(i int)) {
	if n <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// query answers shard sh's share of a Query under its read lock,
// returning its top-k links (all links above the threshold for k ≤ 0).
// keys are the probe's index keys (CandidateSource.ProbeKeys).
func (ix *ShardedIndex) query(sh *shard, probe *evalengine.Record, keys []uint64, k int) []matching.Link {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return ix.queryLocked(sh, probe, keys, k)
}

// queryLocked is query with the shard lock already held: the shard's
// index enumerates the probe's candidates into matching.ScoreCandidates,
// the one candidate-scoring loop, which keeps the shard's top k (every
// link for k ≤ 0), exactly those of scoring every candidate Candidates
// returns. A probe whose bound already misses the threshold enumerates
// nothing and counts as an early exit.
func (ix *ShardedIndex) queryLocked(sh *shard, probe *evalengine.Record, keys []uint64, k int) []matching.Link {
	cands := sh.index.For(probe, keys)
	links, scored := matching.ScoreCandidates(ix.compiled, probe, cands, ix.maxBlock(sh, probe.Entity()), sh.records, ix.opts.Threshold, k)
	if !scored {
		ix.streamEarlyExits.Add(1)
	}
	return links
}
