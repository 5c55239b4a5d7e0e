// Package linkindex turns batch record linkage into an online service:
// a mutable, concurrency-safe, sharded index over an evolving entity
// corpus that answers top-k match queries through a learned linkage rule
// without ever re-blocking the whole corpus.
//
// The paper's execution pipeline (learn rule → block → score) assumes two
// fixed sources. A production linkage service sees the opposite regime:
// entities arrive, change and disappear continuously, and each query
// ("which indexed entities match this one?") must be answered online. The
// package keeps internal/matching as the single source of
// candidate-generation semantics and adds the storage layer around it:
//
//   - Candidates come from the rule's matching.CandidateSource, which
//     batch matching loads B into too: when the rule makes a levenshtein
//     comparison necessary at the threshold (evalengine.EditBound), a
//     rule index whose links are exactly those of scoring every stored
//     entity (TestServedEqualsBruteForce); otherwise (a max, a normalized
//     Levenshtein, a bound past the cap, …) the blocker's own
//     matching.BlockIndex: one entity table and one slot-keyed pass per
//     strategy of the blocker, unioned for multi-pass. Differential
//     property tests pin the index's candidates ≡ the batch blocker on the
//     surviving entity set under any interleaving of Add/Update/Remove.
//     No index is persisted: Apply maintains it, and restore and
//     followers rebuild it through Apply, WAL replay through the same
//     build and install steps.
//   - ShardedIndex hash-partitions the corpus over N shards, each owning
//     a candidate index and its records behind a per-shard RWMutex.
//     The index's entity table is the shard's one ID table, and by that
//     table's slot the shard holds every stored entity version as its
//     canonical bytes (exactly json.Marshal's, entity.Encoded) and its
//     evalengine.Record, the scoring record built once per entity
//     version when the version is written, so queries score stored
//     records and never invalidate anything, and the log, snapshots and
//     entity bodies write the bytes without marshaling. Queries fan out across
//     shards in parallel and merge per-shard bounded top-k heaps; writes
//     lock only the shards they touch, and the Apply pipeline groups a
//     batch of upserts and deletes per shard so block structures load
//     through their bulk fast paths. Index is the N=1 case of the same
//     code path (the original single-mutex monolith is retired). See the
//     ShardedIndex documentation for the sharded candidate semantics —
//     identical to single-shard for partition-invariant strategies, a
//     recall-preserving superset for sorted-neighborhood windows, and
//     per-shard block caps that admit blocks a single shard suppresses —
//     and the per-shard isolation contract.
//   - Durability: DurableIndex wraps a ShardedIndex with a segmented,
//     CRC-checked write-ahead log — every Apply is logged before it is
//     applied (fsync per batch or interval group-commit), snapshots are
//     taken automatically on policy, and the log segments a snapshot
//     covers are compacted away. Recover loads the newest
//     valid snapshot and replays the log tail, stopping cleanly at a
//     torn final record, so a crash loses at most the unacknowledged
//     write in flight.
//   - Snapshots: a durable directory is the one writer of snapshot files
//     (NewDurable's genesis snapshot, DurableIndex.Snapshot, a follower's
//     verbatim copy of its leader's). A snapshot records the corpus, rule,
//     options and shard count, and RestoreFrom, Recover and a follower
//     rebuild the index from it alone, so a restart does not lose the
//     index or move its answers. NewDurable refuses what no reader could
//     rebuild: a rule that fails rule.Validate, or a blocker with no
//     registry name.
//
// cmd/genlinkd serves a ShardedIndex over HTTP; pkg/genlinkapi re-exports
// the package as NewIndex/NewShardedIndex/RestoreIndex/OpenDurableIndex.
package linkindex

import (
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// The block indexes live in internal/matching, next to the blockers they
// implement. These three names remain here only because the benchmark
// rig (benchmark/layers.go) builds per-shard block indexes through
// linkindex, and the rig is kept unchanged so its runs stay comparable
// across commits.
type (
	// BlockIndex is matching.BlockIndex.
	BlockIndex = matching.BlockIndex
	// BulkAdder is matching.BulkAdder.
	BulkAdder = matching.BulkAdder
)

// NewBlockIndex is matching.NewBlockIndex.
func NewBlockIndex(bl matching.Blocker) BlockIndex { return matching.NewBlockIndex(bl) }

// Index is a mutable matching service over one entity corpus: entities
// are added, updated and removed individually, and Query matches a probe
// entity against the current corpus through the linkage rule, returning
// the top-k links. All methods are safe for concurrent use.
//
// Index is the single-shard case of ShardedIndex — one partition, one
// lock, no query fan-out goroutines — kept as the name for callers that
// don't care about sharding. The corpus is "dedup-shaped": one set of
// entities matched against itself, the way a service deduplicates a live
// database. A probe never matches its own record (same entity ID).
type Index = ShardedIndex

// Stats is a point-in-time summary of an index.
type Stats struct {
	// Entities is the current corpus size.
	Entities int
	// Keys sums the shards' index sizes (matching.CandidateIndex.Keys).
	Keys int
	// Blocker names the configured blocking strategy, which serves the
	// candidates only of a rule without an edit bound.
	Blocker string
	// Candidates names what serves them: ShardedIndex.CandidateSource.
	Candidates string
	// Threshold is the minimum score Query emits.
	Threshold float64
	// Shards is the number of hash partitions (1 for New).
	Shards int
	// ShardEntities is the per-shard corpus size, in shard order.
	ShardEntities []int
	// StreamEarlyExits counts per-shard queries answered without
	// enumerating a candidate: the probe's attainable-score bound was
	// below the threshold.
	StreamEarlyExits int64
}

// New returns an empty single-shard index serving the given rule —
// NewSharded(r, 1, opts). opts follows matching.Options semantics: zero
// Threshold means rule.MatchThreshold, nil Blocker means token blocking,
// zero MaxBlockSize derives the stop-token cap from the current corpus
// size (so the cap tracks growth), negative means uncapped.
func New(r *rule.Rule, opts matching.Options) *Index {
	return NewSharded(r, 1, opts)
}
