// Package genlinkapi is the stable public facade of the GenLink library.
//
// It re-exports the pieces a downstream user needs to learn and execute
// expressive linkage rules:
//
//   - building data sources and reference links (entities, CSV, N-Triples)
//   - learning a linkage rule with the GenLink genetic programming
//     algorithm (Isele & Bizer, PVLDB 5(11), 2012)
//   - evaluating rules (precision, recall, F-measure, MCC) through a
//     compiled, memoizing evaluation engine (see NewEvalEngine)
//   - executing rules over whole sources with pluggable blocking
//     (token, sorted-neighborhood, q-gram, multi-pass), serial or parallel
//   - serving rules online over a mutable corpus: NewIndex returns an
//     incremental, concurrency-safe matching index with Add/Update/Remove
//     and top-k Query (see cmd/genlinkd for the HTTP server around it)
//   - the six synthetic evaluation datasets of the paper
//
// Quickstart:
//
//	ds := genlinkapi.Dataset("Restaurant", 1)
//	cfg := genlinkapi.DefaultConfig()
//	cfg.PopulationSize = 100
//	result, err := genlinkapi.Learn(cfg, ds.Refs)
//	fmt.Println(result.Best.Render())
package genlinkapi

import (
	"io"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/evalx"
	"genlink/internal/genlink"
	"genlink/internal/linkindex"
	"genlink/internal/linkrouter"
	"genlink/internal/matching"
	"genlink/internal/rdf"
	"genlink/internal/rule"
	"genlink/internal/tabular"
)

// Core data model.
type (
	// Entity is a record with multi-valued properties.
	Entity = entity.Entity
	// Source is a collection of entities.
	Source = entity.Source
	// Pair is an (a, b) entity pair.
	Pair = entity.Pair
	// Link is a reference link between entity ids.
	Link = entity.Link
	// ReferenceLinks bundles positive and negative reference links.
	ReferenceLinks = entity.ReferenceLinks
	// DataSet is a complete matching task.
	DataSet = entity.Dataset
)

// Rule representation.
type (
	// Rule is an expressive linkage rule (operator tree).
	Rule = rule.Rule
	// PropertyOp retrieves property values.
	PropertyOp = rule.PropertyOp
	// TransformOp applies a data transformation.
	TransformOp = rule.TransformOp
	// ComparisonOp compares two value operators.
	ComparisonOp = rule.ComparisonOp
	// AggregationOp combines similarity operators.
	AggregationOp = rule.AggregationOp
)

// Learner types.
type (
	// Config holds the GenLink parameters (Table 4 defaults).
	Config = genlink.Config
	// Result is a learning outcome.
	Result = genlink.Result
	// PropertyPair is a discovered compatible property pair.
	PropertyPair = genlink.PropertyPair
)

// Evaluation types.
type (
	// Confusion is a binary confusion matrix over reference links.
	Confusion = evalx.Confusion
	// EngineOptions tunes a compiled evaluation engine: its one field,
	// Workers, bounds evaluation parallelism (see NewEvalEngine). Cache
	// sizes are fixed constants of the engine.
	EngineOptions = evalengine.Options
	// EvalEngine batch-evaluates rules over a fixed link set with
	// cross-generation memoization.
	EvalEngine = evalengine.Engine
	// EvalCounts is the engine's confusion count (convertible to
	// Confusion).
	EvalCounts = evalengine.Counts
	// CompiledRule is a rule compiled into flat programs, shareable across
	// goroutines.
	CompiledRule = evalengine.Compiled
	// RuleScorer scores entity pairs against a compiled rule with
	// per-entity value-set caching. It is safe for concurrent use; its
	// methods are Score, Bound and Invalidate (call Invalidate after
	// mutating a scored entity in place).
	RuleScorer = evalengine.Scorer
)

// Matching types.
type (
	// MatchOptions tunes whole-source rule execution.
	MatchOptions = matching.Options
	// MatchedLink is a scored link produced by rule execution.
	MatchedLink = matching.Link
	// Blocker generates candidate pairs for rule execution. The strategy
	// set is closed: TokenBlocking, SortedNeighborhood, QGramBlocking and
	// MultiPass, in any parameterization and composition.
	Blocker = matching.Blocker
	// CandidatePair is an entity pair proposed by a Blocker.
	CandidatePair = matching.Pair
)

// Incremental matching service types.
type (
	// Index is a mutable, concurrency-safe matching index over one entity
	// corpus: Add/Update/Remove entities online and Query for the top-k
	// matches of a probe entity, scored through the compiled rule engine.
	// Index is the single-shard case of the sharded storage layer; see
	// NewShardedIndex for hash-partitioned shards with parallel query
	// fan-out.
	Index = linkindex.Index
	// IndexStats summarizes an Index (corpus size, key entries, strategy,
	// shard count and per-shard sizes).
	IndexStats = linkindex.Stats
	// IndexBatch is one group of writes for Index.Apply: upserts plus
	// deletes, installed per shard under a single lock acquisition.
	IndexBatch = linkindex.Batch
	// IndexApplyResult counts the distinct upserts and deletes an
	// Index.Apply call performed.
	IndexApplyResult = linkindex.ApplyResult
	// IndexRestoreOptions tunes RestoreIndex: the blocker to use when the
	// snapshot's strategy is not a registry name.
	IndexRestoreOptions = linkindex.RestoreOptions
	// DurableIndex wraps an Index with a segmented write-ahead log and
	// auto-snapshot compaction — the one persistence mode: every mutation
	// is logged before it is applied, a snapshot is taken whenever
	// SnapshotEvery log records are not yet covered by one, and recovery
	// replays snapshot + log tail (through the shard-parallel pipeline)
	// after a crash.
	DurableIndex = linkindex.DurableIndex
	// DurableIndexOptions tunes the log (fsync policy, segment size), the
	// records-based auto-snapshot trigger and recovery's custom blocker.
	DurableIndexOptions = linkindex.DurableOptions
	// DurableIndexMetrics is a point-in-time summary of the durability
	// subsystem (log records/segments, snapshot coverage).
	DurableIndexMetrics = linkindex.DurableMetrics
	// RecoveryStats reports what OpenDurableIndex recovery did (snapshot
	// loaded, records replayed, torn tail, duration).
	RecoveryStats = linkindex.RecoveryStats
	// FsyncPolicy selects when the write-ahead log makes acknowledged
	// writes durable: FsyncBatch or FsyncInterval.
	FsyncPolicy = linkindex.FsyncPolicy
	// Follower tails a leader's WAL stream into a local durable index:
	// crash-safe read replica with manual Promote.
	Follower = linkindex.Follower
	// FollowerOptions configures OpenFollower (leader address, local
	// directory, durability tuning).
	FollowerOptions = linkindex.FollowerOptions
	// ReplicationStatus is a follower's point-in-time replication
	// standing (applied seq, leader seq, lag).
	ReplicationStatus = linkindex.ReplicationStatus
)

// ErrBackfillActive is returned by DurableIndex.Snapshot while a
// backfill session is open. DurableIndex.Backfill applies a batch
// through the per-shard parallel pipeline without write-ahead logging
// and opens the session; DurableIndex.CommitBackfill makes the whole
// load durable with one atomic snapshot barrier. A crash before the
// commit recovers the pre-backfill state.
var ErrBackfillActive = linkindex.ErrBackfillActive

// Write-ahead-log fsync policies, in decreasing durability order: fsync
// before acknowledging every batch; group-commit every 100 ms. Under
// both, an acknowledged batch has reached the OS and survives a process
// crash.
const (
	FsyncBatch    = linkindex.FsyncBatch
	FsyncInterval = linkindex.FsyncIntervalPolicy
)

// NewEntity returns an entity with the given id.
func NewEntity(id string) *Entity { return entity.New(id) }

// NewSource returns an empty data source.
func NewSource(name string) *Source { return entity.NewSource(name) }

// Resolve materializes reference links against two sources.
func Resolve(a, b *Source, links []Link) (*ReferenceLinks, error) {
	return entity.Resolve(a, b, links)
}

// GenerateNegatives derives negative links by cross-pairing positives
// (Section 6.1 of the paper).
func GenerateNegatives(positive []Pair) []Pair {
	return entity.GenerateNegatives(positive)
}

// DefaultConfig returns the paper's Table 4 parameters.
func DefaultConfig() Config { return genlink.DefaultConfig() }

// Learn runs the GenLink algorithm on training links.
func Learn(cfg Config, train *ReferenceLinks) (*Result, error) {
	return genlink.NewLearner(cfg).Learn(train)
}

// LearnWithValidation additionally tracks validation F-measure per
// iteration.
func LearnWithValidation(cfg Config, train, val *ReferenceLinks) (*Result, error) {
	return genlink.NewLearner(cfg).LearnWithValidation(train, val)
}

// Evaluate computes the confusion matrix of a rule over reference links.
// Evaluation runs through the compiled engine, which classifies every
// pair exactly as the interpreted Rule.Matches would.
func Evaluate(r *Rule, refs *ReferenceLinks) Confusion {
	return evalx.Evaluate(r, refs)
}

// NewEvalEngine returns a compiled evaluation engine over a fixed set of
// reference links. Callers that score many rules against the same links —
// hyper-parameter sweeps, active-learning committees — should reuse one
// engine so value sets and distances are memoized across calls:
//
//	eng := genlinkapi.NewEvalEngine(refs, genlinkapi.EngineOptions{})
//	for _, r := range rules {
//		conf := genlinkapi.Confusion(eng.Evaluate(r))
//		...
//	}
func NewEvalEngine(refs *ReferenceLinks, opts EngineOptions) *EvalEngine {
	return evalengine.New(refs, opts)
}

// CompileRule compiles a rule into flat post-order programs. The compiled
// form is immutable; derive a RuleScorer with Scorer() to score arbitrary
// entity pairs with per-entity value-set caching — one scorer may be
// shared by any number of goroutines. Prefilter() reports whether the
// rule admits a score bound (nil when RuleScorer.Bound is always +Inf).
func CompileRule(r *Rule) *CompiledRule { return evalengine.Compile(r) }

// Match executes a rule over two whole sources. A rule with a necessary
// levenshtein comparison is served from a rule index, whatever the
// blocker, and its links equal MatchCartesian's; any other rule uses the
// blocker selected in opts (token blocking by default), and MaxBlockSize
// applies to it alone. The served Index makes the same choice.
func Match(r *Rule, a, b *Source, opts MatchOptions) []MatchedLink {
	return matching.Match(r, a, b, opts)
}

// MatchParallel is Match with the A entities partitioned across workers
// (≤0 means GOMAXPROCS). Results are identical to Match.
func MatchParallel(r *Rule, a, b *Source, opts MatchOptions, workers int) []MatchedLink {
	return matching.MatchParallel(r, a, b, opts, workers)
}

// MatchCartesian executes a rule over the full cross product — exact but
// quadratic. It anchors blocking-quality measurements.
func MatchCartesian(r *Rule, a, b *Source, opts MatchOptions) []MatchedLink {
	return matching.MatchCartesian(r, a, b, opts)
}

// NewIndex returns an empty incremental matching index serving the given
// rule — the online counterpart of Match. Entities enter the corpus with
// Index.Add/Update/BulkLoad and leave with Index.Remove; Index.Query
// matches a probe against the current corpus and returns the top-k links
// without re-blocking anything. opts follows MatchOptions semantics (zero
// Threshold means the rule match threshold, nil Blocker means token
// blocking). All Index methods are safe for concurrent use; queries run
// concurrently and serialize only against writes.
//
// Match and an Index take their candidates from the same source: a rule
// with a necessary levenshtein comparison is served from a rule index,
// whose links equal MatchCartesian's, in both. For any other rule the
// blocker's incremental candidates are differentially tested to be
// identical to running the batch Blocker with the probe as the only A
// entity against the same surviving corpus. Switching a pipeline from
// Match to an Index therefore changes latency, not semantics, for a rule
// index and for token, q-gram and multi-pass composites of them; a
// sorted-neighborhood pass differs when A holds more than one entity,
// because batch windows run over the merged A∪B order and the index
// windows over the corpus alone.
func NewIndex(r *Rule, opts MatchOptions) *Index {
	return linkindex.New(r, opts)
}

// NewShardedIndex returns an empty incremental matching index whose
// corpus is hash-partitioned over one shard per two CPUs
// (max(1, runtime.GOMAXPROCS(0)/2)), decided once: snapshots record the
// count and every restore, recovery and follower keeps it on any host.
// Each shard holds its own candidate index and scoring records behind
// its own lock: writes to different shards proceed in
// parallel and never stall queries against the other shards, and
// queries fan out across shards concurrently, merging per-shard top-k
// results. A batched write builds its records on every core however
// many shards there are, so more shards buy write isolation, not write
// throughput, and cost each query a pass per shard. NewIndex is the
// single-shard case of the same code path.
//
// Candidate semantics under sharding: identical to a single-shard Index
// for a rule index and for token and q-gram blocking without block-size
// caps; for sorted-neighborhood passes each shard applies the window to
// its own partition, which yields a superset of the single-shard
// candidates (recall never drops — a per-shard window of size w contains
// every in-shard entity of the global window). See the
// linkindex.ShardedIndex documentation for the full contract.
func NewShardedIndex(r *Rule, opts MatchOptions) *Index {
	return linkindex.NewSharded(r, 0, opts)
}

// RestoreIndex rebuilds an index from a snapshot file written by
// Index.SnapshotTo: the corpus, rule, options and shard count are
// restored and the block structures rebuilt, so queries against the
// restored index answer exactly like the snapshotted one. There is one
// snapshot format (version 2); any other version is rejected. To carry a
// standalone snapshot file into a durable directory, return
// RestoreIndex(file, …) from OpenDurableIndex's build func; to reshard,
// BulkLoad its Entities into a fresh NewShardedIndex.
func RestoreIndex(path string, o IndexRestoreOptions) (*Index, error) {
	return linkindex.RestoreFrom(path, o)
}

// OpenDurableIndex opens dir as a crash-safe index. When dir already
// holds durable state (snapshots, log segments) the state is recovered —
// newest valid snapshot plus log-tail replay, tolerating a torn final
// record — and build is not called. Otherwise build supplies the fresh
// index to wrap (so an expensive startup, like learning a rule, is paid
// only on first boot). Every mutation through the returned DurableIndex
// is write-ahead logged before it is applied; see FsyncBatch /
// FsyncInterval for the durability trade-offs and DurableIndexOptions
// for the auto-snapshot + compaction policy.
func OpenDurableIndex(dir string, build func() (*Index, error), o DurableIndexOptions) (*DurableIndex, RecoveryStats, error) {
	return linkindex.OpenDurable(dir, build, o)
}

// FsyncPolicyByName resolves a flag value ("batch", "interval") to its
// FsyncPolicy. It reports false for unknown names.
func FsyncPolicyByName(name string) (FsyncPolicy, bool) {
	return linkindex.FsyncPolicyByName(name)
}

// OpenFollower starts a WAL-shipping read replica of the leader named in
// o: with no local state it bootstraps from the leader's newest snapshot,
// otherwise it recovers locally (snapshot + log tail, torn tail
// tolerated) and re-tails from its last applied sequence number. The
// follower serves reads from Follower.Index and flips to a leader via
// Follower.Promote. The leader side is served by
// DurableIndex.ServeWALStream and DurableIndex.ServeWALSnapshot.
func OpenFollower(o FollowerOptions) (*Follower, error) {
	return linkindex.OpenFollower(o)
}

// Router is the scale-out routing tier: a stateless HTTP router that
// hash-partitions entity IDs across leader/replica partition groups,
// splits write batches per owning partition, fans match queries out to
// every group (lag-aware replica reads, hedged slow legs) and merges
// with the index's top-k contract. See internal/linkrouter.
type Router = linkrouter.Router

// RouterOptions configures NewRouter; Groups lists each partition
// group's nodes (first node is the initial leader guess).
type RouterOptions = linkrouter.Options

// RouterMetrics is a point-in-time copy of a Router's counters.
type RouterMetrics = linkrouter.Snapshot

// NewRouter validates opts, runs one synchronous membership/lag poll
// and starts the background poller. Router.Handler serves the genlinkd
// client API over the partition groups; Router.Close stops the poller.
func NewRouter(opts RouterOptions) (*Router, error) {
	return linkrouter.New(opts)
}

// PartitionOf is the placement function shared by the sharded index and
// the routing tier: the owning partition of an entity ID among parts
// partitions (FNV-1a mod parts).
func PartitionOf(id string, parts int) int {
	return linkindex.PartitionOf(id, parts)
}

// TokenBlocking returns the default blocking strategy: candidates share a
// lowercased value token.
func TokenBlocking() Blocker { return matching.TokenBlocking() }

// SortedNeighborhood returns a sorted-neighborhood blocker with the given
// window (≤0 means 10): candidates sit near each other in a normalized
// sort order, bounding candidates at O(n·window) under any value skew.
func SortedNeighborhood(window int) Blocker { return matching.SortedNeighborhood(window) }

// QGramBlocking returns a q-gram blocker (q ≤ 0 means 3): candidates
// share a character q-gram, so single typos do not break blocking. q must
// be at most 7, the longest gram a packed index key holds: matching or
// building an index with a larger q panics.
func QGramBlocking(q int) Blocker { return matching.QGramBlocking(q) }

// MultiPass unions the candidates of several blockers — the MultiBlock
// idea of indexing each similarity dimension separately. With no
// arguments it composes token, sorted-neighborhood and q-gram passes.
func MultiPass(passes ...Blocker) Blocker { return matching.MultiPass(passes...) }

// BlockerByName resolves a strategy name from BlockerNames to a Blocker
// with default parameters (nil for unknown names) — handy for CLI flags.
func BlockerByName(name string) Blocker { return matching.BlockerByName(name) }

// BlockerNames lists the selectable blocking strategies.
func BlockerNames() []string { return matching.BlockerNames() }

// CandidatePairs runs a blocker and returns its deduplicated candidate
// pairs — the blocking-quality measurement hook.
func CandidatePairs(bl Blocker, a, b *Source, opts MatchOptions) []CandidatePair {
	return matching.CandidatePairs(bl, a, b, opts)
}

// StreamCandidatePairs enumerates the same deduplicated candidate pairs
// as CandidatePairs but pushes them to yield one at a time instead of
// materializing the full slice — the constant-memory form for pipelines
// that filter or score pairs as they arrive. Match and MatchParallel
// score from this same enumeration.
func StreamCandidatePairs(bl Blocker, a, b *Source, opts MatchOptions, yield func(CandidatePair)) {
	matching.StreamPairs(bl, a, b, opts, yield)
}

// MatchPairs scores precomputed candidate pairs (as returned by
// CandidatePairs) and returns the links sorted like Match, so pipelines
// that already hold the pair list need not re-run the blocker.
func MatchPairs(r *Rule, pairs []CandidatePair, opts MatchOptions) []MatchedLink {
	return matching.MatchPairs(r, pairs, opts)
}

// Dataset generates one of the paper's six evaluation datasets by name
// (Cora, Restaurant, SiderDrugBank, NYT, LinkedMDB, DBpediaDrugBank).
// It returns nil for unknown names.
func Dataset(name string, seed int64) *DataSet {
	gen := datagen.ByName(name)
	if gen == nil {
		return nil
	}
	return gen(seed)
}

// DatasetNames lists the six paper datasets in Table 5 order.
func DatasetNames() []string { return datagen.Names() }

// ParseRuleJSON decodes a rule from JSON and validates it: it returns
// Rule.Validate's error for null and for any rule Validate rejects.
func ParseRuleJSON(data []byte) (*Rule, error) { return rule.ParseJSON(data) }

// ParseRuleXML decodes a rule from XML and validates it like
// ParseRuleJSON.
func ParseRuleXML(data []byte) (*Rule, error) { return rule.ParseXML(data) }

// ReadCSV loads a CSV document into a source.
func ReadCSV(r io.Reader, name string, opts tabular.Options) (*Source, error) {
	return tabular.ReadCSV(r, name, opts)
}

// CSVOptions configures CSV loading.
type CSVOptions = tabular.Options

// ReadLinksCSV loads reference links from CSV (idA,idB,label).
func ReadLinksCSV(r io.Reader) ([]Link, error) { return tabular.ReadLinks(r) }

// ReadNTriples loads an N-Triples document into a source.
func ReadNTriples(r io.Reader, name string) (*Source, error) {
	triples, err := rdf.Parse(r)
	if err != nil {
		return nil, err
	}
	return rdf.ToSource(name, triples), nil
}

// PRPoint is one operating point of a precision-recall curve.
type PRPoint = evalx.PRPoint

// PRCurve sweeps the link threshold over the scores a rule assigns to the
// reference links and returns one operating point per distinct score.
func PRCurve(r *Rule, refs *ReferenceLinks) []PRPoint {
	return evalx.PRCurve(r, refs)
}

// FilterOneToOne reduces a link set to a one-to-one matching by greedy
// score-descending assignment.
func FilterOneToOne(links []MatchedLink) []MatchedLink {
	return matching.FilterOneToOne(links)
}

// TopKPerSource keeps at most k links per source entity (by score);
// k ≤ 0 keeps everything.
func TopKPerSource(links []MatchedLink, k int) []MatchedLink {
	return matching.TopKPerSource(links, k)
}

// WriteSameAs serializes links as owl:sameAs N-Triples (Silk's output
// format).
func WriteSameAs(w io.Writer, links []MatchedLink) error {
	return matching.WriteSameAs(w, links)
}
