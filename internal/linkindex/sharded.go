package linkindex

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// ShardedIndex is the storage layer of the matching service: the entity
// corpus is hash-partitioned over N shards, each owning its own record
// map (every stored entity next to its evalengine.Record, built once per
// entity version at write time) and BlockIndex behind a per-shard
// RWMutex.
// Writes touch only the shards their entity IDs hash to, so writes to
// different shards proceed in parallel and a write never stalls queries
// against the other N−1 shards. Queries fan out across all shards
// concurrently, keep a bounded top-k heap per shard, and merge the
// per-shard winners.
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
//   - Block-size caps (stop-token suppression): caps apply per shard. An
//     explicit cap M becomes ⌈M/N⌉ per shard and a derived cap derives
//     from the partition size, because a stop token over-represented in
//     the corpus is over-represented in every ~1/N partition — applying
//     the global cap per shard would let every stop block slip under it
//     and multiply query cost by N. Under hash imbalance a capped
//     sharded index may therefore keep or skip a borderline block
//     differently than a single-shard index; suppression strength is
//     preserved, membership of borderline blocks is not guaranteed.
//
// TestDifferentialShardedVsSingleShard pins the union-of-independent-
// partitions contract exactly (per-partition batch blocking as ground
// truth) for every strategy and cap, plus literal sharded ≡ single-shard
// equality for the partition-invariant strategies;
// TestShardedSupersetOfSingleShard pins the sorted-neighborhood window
// superset.
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
	count    atomic.Int64 // total entities across shards
	// streamEarlyExits counts per-shard queries answered without
	// enumerating a candidate (probe bound below threshold).
	streamEarlyExits atomic.Int64
}

// shard is one partition: a single-mutex miniature of the retired
// monolithic index. records maps each stored entity's ID to the scoring
// record of its current version (Record.Entity is the entity itself), so
// the entity and its record are installed and replaced together.
type shard struct {
	mu       sync.RWMutex
	records  map[string]*evalengine.Record
	blocks   matching.BlockIndex
	compiled *evalengine.Compiled
	// earlyExits points at the owning index's counter.
	earlyExits *atomic.Int64
}

// NewSharded returns an empty index with the given shard count (≤ 0 means
// runtime.GOMAXPROCS(0)) serving the given rule. opts follows
// matching.Options semantics: zero Threshold means rule.MatchThreshold,
// nil Blocker means token blocking, zero MaxBlockSize derives the
// stop-token cap from the current total corpus size, negative means
// uncapped. New(r, opts) is the single-shard special case.
func NewSharded(r *rule.Rule, shards int, opts matching.Options) *ShardedIndex {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if opts.Threshold == 0 {
		opts.Threshold = rule.MatchThreshold
	}
	if opts.Blocker == nil {
		opts.Blocker = matching.TokenBlocking()
	}
	compiled := evalengine.Compile(r)
	ix := &ShardedIndex{rule: r, compiled: compiled, opts: opts, shards: make([]*shard, shards)}
	for i := range ix.shards {
		ix.shards[i] = &shard{
			records:    make(map[string]*evalengine.Record),
			blocks:     matching.NewBlockIndex(opts.Blocker),
			compiled:   compiled,
			earlyExits: &ix.streamEarlyExits,
		}
	}
	return ix
}

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

// shardFor routes an entity ID to its owning shard.
func (ix *ShardedIndex) shardFor(id string) *shard {
	return ix.shards[ix.shardOf(id)]
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
// later delete won over).
type shardOps struct {
	part    int
	upserts []*entity.Entity
	pos     map[string]int
	deletes []string
}

// partitionBatch resolves a batch to one final op per ID — later upsert
// occurrences win, a delete beats an upsert of the same ID — grouped by
// the owning shard. Apply and the replay pipeline both start from it, so
// every write shares one batch semantics.
func (ix *ShardedIndex) partitionBatch(b Batch) []*shardOps {
	return partitionOps(b, len(ix.shards))
}

// partitionOps is partitionBatch for an arbitrary partition count —
// shared with SplitBatch so in-process sharding and cross-node routing
// resolve a batch identically. Only touched partitions get a group, in
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

// applyShardOps installs one shard's resolved ops under its write lock —
// old versions leave the block structures through the bulk-remove fast
// path, new versions enter through the BulkAdd merge path —
// and reports the distinct upserts and deletes performed. The fresh
// versions' scoring records are built before the lock is taken: records
// are pure functions of the entity, so building them needs no shard
// state. It is the only code that writes a shard's record map, block
// index and the entity count, so those three stay in lockstep by
// construction; its callers are Apply and the replay pipeline. Callers
// may run it concurrently for different shards; per shard it is atomic
// with respect to queries.
func (ix *ShardedIndex) applyShardOps(g *shardOps) (upserted, deleted int) {
	sh := ix.shards[g.part]
	fresh := g.upserts[:0]
	recs := make([]*evalengine.Record, 0, len(g.upserts))
	for _, e := range g.upserts {
		if e != nil {
			fresh = append(fresh, e)
			recs = append(recs, ix.compiled.Record(e))
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var olds []*entity.Entity
	seenDel := make(map[string]struct{}, len(g.deletes))
	for _, id := range g.deletes {
		if _, dup := seenDel[id]; dup {
			continue
		}
		seenDel[id] = struct{}{}
		if old, ok := sh.records[id]; ok {
			olds = append(olds, old.Entity())
			delete(sh.records, id)
			deleted++
			ix.count.Add(-1)
		}
	}
	for _, e := range fresh {
		if old, ok := sh.records[e.ID]; ok {
			olds = append(olds, old.Entity())
		} else {
			ix.count.Add(1)
		}
	}
	sh.blocks.BulkRemove(olds)
	for i, e := range fresh {
		sh.records[e.ID] = recs[i]
	}
	sh.blocks.BulkAdd(fresh)
	return len(fresh), deleted
}

// Apply is the one way into a shard: Add, Update, Remove, BulkLoad, the
// durable layer, backfill and snapshot restore all write through it.
// Writes are grouped per shard, shards are written in parallel, and each
// shard takes its write lock exactly once — old versions leave the block
// structures through the bulk-remove fast path and new versions enter
// through the BulkAdd merge path, so a batched upsert never pays the
// per-record sorted-neighborhood memmove. The batch semantics are
// Batch's: the last upsert of an ID wins and a delete beats an upsert.
// Per shard the batch is atomic with respect to queries; across shards
// there is no barrier, so a racing query may see it in some shards first
// (see the isolation notes on ShardedIndex).
func (ix *ShardedIndex) Apply(b Batch) ApplyResult {
	groups := ix.partitionBatch(b)
	var upserted, deleted atomic.Int64
	parallel(len(groups), func(i int) {
		u, d := ix.applyShardOps(groups[i])
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
	sh := ix.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.records[id]; r != nil {
		return r.Entity()
	}
	return nil
}

// Entities returns a snapshot of the corpus sorted by ID. Each shard is
// read under its lock; see the isolation notes for cross-shard semantics.
func (ix *ShardedIndex) Entities() []*entity.Entity {
	out := make([]*entity.Entity, 0, ix.Len())
	for _, sh := range ix.shards {
		sh.mu.RLock()
		for _, r := range sh.records {
			out = append(out, r.Entity())
		}
		sh.mu.RUnlock()
	}
	sortByID(out)
	return out
}

// Stats returns a point-in-time summary.
func (ix *ShardedIndex) Stats() Stats {
	st := Stats{
		Blocker:          ix.opts.Blocker.Name(),
		Threshold:        ix.opts.Threshold,
		Shards:           len(ix.shards),
		ShardEntities:    make([]int, len(ix.shards)),
		StreamEarlyExits: ix.streamEarlyExits.Load(),
	}
	for i, sh := range ix.shards {
		sh.mu.RLock()
		st.Entities += len(sh.records)
		st.Keys += sh.blocks.Keys()
		st.ShardEntities[i] = len(sh.records)
		sh.mu.RUnlock()
	}
	return st
}

// shardMaxBlockCfg translates Options.MaxBlockSize into the per-shard
// cap configuration: an explicit cap M > 0 becomes ⌈M/N⌉ per shard (a
// key over-represented in the corpus is over-represented in each ~1/N
// partition, so proportional caps preserve stop-token suppression
// instead of letting every global stop block slip under the cap in all N
// shards), 0 stays 0 (each shard derives its cap from its own partition
// size, exactly like a single-shard index over that partition), and
// negative stays negative (uncapped).
func (ix *ShardedIndex) shardMaxBlockCfg() int {
	m := ix.opts.MaxBlockSize
	if m <= 0 {
		return m
	}
	return (m + len(ix.shards) - 1) / len(ix.shards)
}

// effectiveMaxBlock resolves the shard's cap for one probe under the
// shard lock, as matching.Options.normalize does, with the shard's
// partition (minus the probe's own record) as the B source.
func (sh *shard) effectiveMaxBlock(probe *entity.Entity, cfg int) int {
	switch {
	case cfg > 0:
		return cfg
	case cfg < 0:
		return 0 // BlockIndex treats ≤0 as uncapped
	default:
		n := len(sh.records)
		if _, ok := sh.records[probe.ID]; ok {
			n--
		}
		return matching.DefaultMaxBlockSize(n)
	}
}

// Candidates returns the indexed entities blocking proposes for the
// probe, sorted by ID — the pre-scoring half of Query, exposed so
// blocking quality is observable (and differentially testable) on its
// own. The probe's own record (same ID) is never a candidate. With more
// than one shard the result is the union of the per-shard candidate sets
// (see the candidate-semantics notes on ShardedIndex).
func (ix *ShardedIndex) Candidates(probe *entity.Entity) []*entity.Entity {
	cfg := ix.shardMaxBlockCfg()
	perShard := make([][]*entity.Entity, len(ix.shards))
	parallel(len(ix.shards), func(i int) {
		sh := ix.shards[i]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		perShard[i] = sh.blocks.Candidates(probe, sh.effectiveMaxBlock(probe, cfg))
	})
	var out []*entity.Entity
	for _, cands := range perShard {
		out = append(out, cands...)
	}
	sortByID(out)
	return out
}

// Query matches the probe against the corpus and returns the top-k links
// with score ≥ the threshold, ordered by descending score then candidate
// ID (AID is always probe.ID). k ≤ 0 returns every link above the
// threshold. The probe need not be indexed; if it is, its own record is
// excluded. The probe's scoring record is built once and shared by the
// shards, which are queried in parallel, each keeping a bounded top-k
// heap; the per-shard winners are merged.
func (ix *ShardedIndex) Query(probe *entity.Entity, k int) []matching.Link {
	cfg := ix.shardMaxBlockCfg()
	rec := ix.compiled.Record(probe)
	perShard := make([][]matching.Link, len(ix.shards))
	parallel(len(ix.shards), func(i int) {
		perShard[i] = ix.shards[i].query(rec, k, cfg, ix.opts.Threshold)
	})
	return MergeTopK(perShard, k)
}

// MergeTopK merges per-partition result lists into the final
// deterministic order — descending score, ties broken by ascending
// candidate ID — truncated to k when k > 0. It is the merge step of the
// sharded Query fan-out, exported because the cross-node contract is the
// same one: a router fanning a top-k query out to partition groups
// merges the per-group winners with exactly this function, so routed
// results equal one big index's (each input list need only contain that
// partition's top k).
func MergeTopK(perShard [][]matching.Link, k int) []matching.Link {
	var links []matching.Link
	for _, ls := range perShard {
		links = append(links, ls...)
	}
	sortLinks(links)
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
	cfg := ix.shardMaxBlockCfg()
	hi := ix.shardOf(id)
	home := ix.shards[hi]
	home.mu.RLock()
	probe := home.records[id]
	if probe == nil {
		home.mu.RUnlock()
		return nil, false
	}
	perShard := make([][]matching.Link, len(ix.shards))
	parallel(len(ix.shards), func(i int) {
		if i != hi {
			perShard[i] = ix.shards[i].query(probe, k, cfg, ix.opts.Threshold)
			return
		}
		defer home.mu.RUnlock()
		perShard[i] = home.queryLocked(probe, k, cfg, ix.opts.Threshold)
	})
	return MergeTopK(perShard, k), true
}

// parallel runs f(0), …, f(n-1) and returns when all have returned:
// one goroutine per item when there is more than one item and the
// runtime can run goroutines in parallel, inline otherwise. A
// single-shard query or a one-shard write spawns nothing, and on a
// GOMAXPROCS=1 runtime sequential calls do the same work without the
// spawn/join overhead. Query fan-out, Apply's per-shard writes and the
// sectioned snapshot encode and restore all go through it.
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

// query answers one shard's share of a Query under the shard read lock,
// returning its top-k links (all links above the threshold for k ≤ 0).
func (sh *shard) query(probe *evalengine.Record, k, maxBlockCfg int, threshold float64) []matching.Link {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.queryLocked(probe, k, maxBlockCfg, threshold)
}

// queryLocked is query with the shard lock already held: the probe's
// record is bound once (which builds its edit-distance patterns), and the
// block index pushes each candidate (matching.BlockIndex.Each) into the
// bound score → heap body below, which scores the candidate's stored
// record only as far as the floor needs: the threshold, raised to the
// heap's weakest score once the heap holds k links. Probe.Score starts
// from the pushdown prefilter's bound, tightens it comparison by
// comparison, and bounds the edit distance by the largest one that can
// still reach the floor. The one early exit is before the enumeration
// starts (probe bound < threshold); none can exist inside it, because the
// heap floor is a Score and Score ≤ Bound ≤ Upper
// (TestMetamorphicPrefilterSoundness). Results are exactly those of
// scoring every materialized candidate (Candidates): Score declines only
// a candidate whose score is strictly below the floor, so only
// candidates the threshold or the heap would reject anyway are skipped,
// and an accepted score is bit-identical to the full one — and the
// per-shard top-k set is enumeration-order independent because
// (score, BID) is a total order.
func (sh *shard) queryLocked(probe *evalengine.Record, k, maxBlockCfg int, threshold float64) []matching.Link {
	handle := sh.compiled.Bind(probe)
	// Upper bound over every possible candidate: a probe whose value
	// sets already cap the score below the threshold (e.g. missing
	// the properties of high-weight comparisons) answers without
	// enumerating a single candidate.
	if handle.Upper() < threshold {
		sh.earlyExits.Add(1)
		return nil
	}
	seen := seenPool.Get().(map[string]struct{})
	defer func() {
		clear(seen)
		seenPool.Put(seen)
	}()
	pe := probe.Entity()
	// k > 0 keeps the best k in a bounded heap; k ≤ 0 keeps every link.
	h := newTopK(k, min(max(k, 0), 16))
	sh.blocks.Each(pe, sh.effectiveMaxBlock(pe, maxBlockCfg), seen, func(cand *entity.Entity) bool {
		floor := threshold
		if k > 0 && len(h.links) == k {
			floor = max(floor, h.links[0].Score)
		}
		if score, ok := handle.Score(sh.records[cand.ID], floor); ok && score >= threshold {
			l := matching.Link{AID: pe.ID, BID: cand.ID, Score: score}
			if k > 0 {
				h.push(l)
			} else {
				h.links = append(h.links, l)
			}
		}
		return true
	})
	return h.links
}

// seenPool recycles the per-query dedup sets Each is handed. A query's
// seen set grows to the candidate count, so allocating one per query
// would dominate the query path's allocations; pooling makes the map a
// steady-state cost. Whoever draws a set clears it before giving it back.
var seenPool = sync.Pool{New: func() any { return make(map[string]struct{}) }}

// sortByID orders entities by ID (deterministic candidate output).
func sortByID(es []*entity.Entity) {
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
}

// sortLinks orders links by descending score, then ascending candidate
// ID — the deterministic result order of Query. Defined through weaker
// so the per-shard heap's eviction order and the final merge order are
// one definition and cannot drift apart.
func sortLinks(links []matching.Link) {
	sort.Slice(links, func(i, j int) bool {
		return weaker(links[j], links[i])
	})
}

// topK is a bounded min-heap of links: the root is the weakest link held
// (lowest score, ties broken toward the lexicographically larger BID, the
// inverse of the result order), so a shard scoring any number of
// candidates keeps at most k links in memory.
type topK struct {
	k     int
	links []matching.Link
}

func newTopK(k, capHint int) *topK {
	return &topK{k: k, links: make([]matching.Link, 0, capHint)}
}

// weaker reports whether a loses to b in the final result order.
func weaker(a, b matching.Link) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.BID > b.BID
}

func (h *topK) push(l matching.Link) {
	if len(h.links) < h.k {
		h.links = append(h.links, l)
		// Sift up.
		i := len(h.links) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !weaker(h.links[i], h.links[parent]) {
				break
			}
			h.links[i], h.links[parent] = h.links[parent], h.links[i]
			i = parent
		}
		return
	}
	if !weaker(h.links[0], l) {
		return // l loses to the weakest held link
	}
	// Replace the root and sift down.
	h.links[0] = l
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		weakest := i
		if left < len(h.links) && weaker(h.links[left], h.links[weakest]) {
			weakest = left
		}
		if right < len(h.links) && weaker(h.links[right], h.links[weakest]) {
			weakest = right
		}
		if weakest == i {
			return
		}
		h.links[i], h.links[weakest] = h.links[weakest], h.links[i]
		i = weakest
	}
}
