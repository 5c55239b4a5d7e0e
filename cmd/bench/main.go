// Command bench is the repeatable perf harness: it measures the hot
// paths and writes the results — ns/op, bytes/op, allocs/op and the
// derived speedups — to a JSON file, seeding the benchmark trajectory
// that future performance work diffs against. Two workloads:
//
//   - engine (default): population fitness evaluation, full learner runs
//     and whole-source matching with and without the compiled evaluation
//     engine → BENCH_evalengine.json
//   - index: the incremental matching service (internal/linkindex) —
//     bulk-load throughput, online Query latency (p50/p99), update
//     throughput, and the speedup of a single-entity Query over
//     re-running the batch blocker → the "index" section of
//     BENCH_linkindex.json
//   - shard: read/write contention on the sharded index — concurrent
//     writers (batched Apply upserts) against concurrent readers
//     (top-10 queries) on a single-shard index vs an N-shard index,
//     plus solo update throughput per write path → the "shard" section
//     of BENCH_linkindex.json
//   - durability: the crash-safe index (DurableIndex) — write throughput
//     per WAL fsync policy (batch / interval / off) streaming the corpus
//     through the write-ahead logged Apply path, and recovery time
//     (snapshot load + log replay) as a function of log length → the
//     "durability" section of BENCH_linkindex.json
//   - stream: the streamed query path (Options.Stream: lazy candidate
//     enumeration, prefilter pushdown, early-exit top-k) against the
//     materializing default on twin indexes — p50/p99 latency and
//     allocs/query per mode → the "stream" section of
//     BENCH_linkindex.json
//   - backfill: the corpus-scale write paths — bulk-backfill ingest
//     (unlogged, snapshot-barrier commit) vs WAL-logged ingest → the
//     "backfill" section of BENCH_linkindex.json
//   - replication: WAL shipping — leader write throughput with a live
//     follower tailing the stream over HTTP, the follower's lag profile,
//     catch-up time and the promote cost → the "replication" section of
//     BENCH_linkindex.json
//   - route: the scale-out routing tier (internal/linkrouter) — routed
//     write throughput across partition leaders vs a single direct
//     leader, fan-out query latency with and without hedging, and the
//     replica-read offload ratio → the "route" section of
//     BENCH_linkindex.json
//
// BENCH_linkindex.json holds one JSON object with an "index", a "shard",
// a "durability", a "stream", a "backfill", a "replication" and a
// "route" section; each workload rewrites its own section and preserves
// the others.
//
// Usage:
//
//	bench                      # Cora, writes BENCH_evalengine.json
//	bench -workload index      # Cora, writes BENCH_linkindex.json
//	bench -workload shard -shards 8 -mixdur 2s
//	bench -dataset LinkedMDB -out bench.json
//	bench -population 120 -iterations 8
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/genlink"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// Measurement is one benchmark result row.
type Measurement struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the schema of BENCH_evalengine.json.
type Report struct {
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"num_cpu"`
	Dataset    string             `json:"dataset"`
	Population int                `json:"population"`
	RefPairs   int                `json:"ref_pairs"`
	Benchmarks []Measurement      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")

	var (
		out        = flag.String("out", "", "output JSON file (default: BENCH_<workload>.json)")
		workload   = flag.String("workload", "engine", "bench workload: engine or index")
		dataset    = flag.String("dataset", "Cora", "paper dataset to bench on")
		population = flag.Int("population", 60, "population size for the fitness and learner benches")
		iterations = flag.Int("iterations", 5, "learner iterations for the learner bench")
		probes     = flag.Int("probes", 200, "query probes for the index and shard workloads")
		blocker    = flag.String("blocker", "multipass", "blocking strategy for the index and shard workloads")
		shards     = flag.Int("shards", 0, "shard count for the shard workload (0 = one per CPU)")
		mixWriters = flag.Int("mixwriters", 4, "writer goroutines for the shard workload's mixed load")
		mixReaders = flag.Int("mixreaders", 4, "reader goroutines for the shard workload's mixed load")
		mixDur     = flag.Duration("mixdur", time.Second, "duration of each mixed-load phase in the shard workload")
		mixRate    = flag.Float64("mixrate", 5000, "offered write rate (entities/sec) across all writers in the shard workload")
		mixBatch   = flag.Int("mixbatch", 512, "entities per Apply batch in the shard workload's mixed load")
		mixQRate   = flag.Float64("mixqrate", 400, "offered query rate (queries/sec) across all readers in the shard workload")
		durBatch   = flag.Int("durbatch", 128, "entities per Apply batch in the durability workload")
		parts      = flag.Int("parts", 2, "partition groups for the route workload")
		streamK    = flag.Int("streamk", 10, "top-k per query in the stream workload")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	gen := datagen.ByName(*dataset)
	if gen == nil {
		log.Fatalf("unknown dataset %q (available: %v)", *dataset, datagen.Names())
	}
	ds := gen(*seed)

	switch *workload {
	case "engine":
		if *out == "" {
			*out = "BENCH_evalengine.json"
		}
		runEngineWorkload(ds, *out, *population, *iterations, *seed)
	case "index":
		if *out == "" {
			*out = "BENCH_linkindex.json"
		}
		runIndexWorkload(ds, *out, *probes, *blocker, *seed)
	case "shard":
		if *out == "" {
			*out = "BENCH_linkindex.json"
		}
		n := *shards
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n < 2 {
			// The workload is a single-vs-sharded comparison; measuring
			// "sharded" at n=1 would just duplicate the baseline.
			log.Printf("-shards resolved to %d; flooring at 2 so the comparison is meaningful", n)
			n = 2
		}
		runShardWorkload(ds, *out, *probes, *blocker, n, *mixWriters, *mixReaders, *mixDur, *mixRate, *mixQRate, *mixBatch, *seed)
	case "durability":
		if *out == "" {
			*out = "BENCH_linkindex.json"
		}
		runDurabilityWorkload(ds, *out, *blocker, *durBatch)
	case "stream":
		if *out == "" {
			*out = "BENCH_linkindex.json"
		}
		runStreamWorkload(ds, *out, *probes, *streamK, *blocker, *seed)
	case "backfill":
		if *out == "" {
			*out = "BENCH_linkindex.json"
		}
		n := *shards
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n < 2 {
			// Per-shard parallelism is the point; a single shard would
			// measure the pipeline overhead with nothing to parallelize.
			n = 2
		}
		runBackfillWorkload(ds, *out, *blocker, *durBatch, n)
	case "replication":
		if *out == "" {
			*out = "BENCH_linkindex.json"
		}
		n := *shards
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		runReplicationWorkload(ds, *out, *blocker, *durBatch, max(n, 1))
	case "route":
		if *out == "" {
			*out = "BENCH_linkindex.json"
		}
		runRouteWorkload(ds, *out, *blocker, *durBatch, *parts, *probes)
	default:
		log.Fatalf("unknown workload %q (available: engine, index, shard, durability, stream, backfill, replication, route)", *workload)
	}
}

func runEngineWorkload(ds *entity.Dataset, out string, population, iterations int, seed int64) {
	report := &Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Dataset:    ds.Name,
		Population: population,
		RefPairs:   ds.Refs.Len(),
		Speedups:   map[string]float64{},
	}

	run := func(name string, f func(b *testing.B)) Measurement {
		res := testing.Benchmark(f)
		m := Measurement{
			Name:        name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		report.Benchmarks = append(report.Benchmarks, m)
		fmt.Printf("%-28s %12.0f ns/op %12d B/op %9d allocs/op  (n=%d)\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.Iterations)
		return m
	}

	// Fitness: one generation's evaluation pass over all reference links,
	// with a third of the population replaced per iteration the way
	// crossover would — the acceptance measurement for the engine.
	pg := newPopulationGen(ds, seed)
	fitness := func(opts evalengine.Options) func(b *testing.B) {
		return func(b *testing.B) {
			eng := evalengine.New(ds.Refs, opts)
			rng := rand.New(rand.NewSource(seed))
			pop := pg.rules(rng, population)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < len(pop)/3; j++ {
					pop[rng.Intn(len(pop))] = pg.rules(rng, 1)[0]
				}
				eng.EvaluateBatch(pop)
			}
		}
	}
	fe := run("fitness/engine", fitness(evalengine.Options{Workers: 1}))
	ft := run("fitness/treewalk", fitness(evalengine.Options{Workers: 1, Disabled: true}))
	report.Speedups["fitness_evaluation"] = ft.NsPerOp / fe.NsPerOp

	// Learner: a full GenLink run (seeding, evolution, history) — the
	// end-to-end view of the same speedup.
	learner := func(disabled bool) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := genlink.DefaultConfig()
			cfg.PopulationSize = population
			cfg.MaxIterations = iterations
			cfg.Seed = seed
			cfg.Workers = 1
			cfg.Engine.Disabled = disabled
			for i := 0; i < b.N; i++ {
				if _, err := genlink.NewLearner(cfg).Learn(ds.Refs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	le := run("learner/engine", learner(false))
	lt := run("learner/treewalk", learner(true))
	report.Speedups["learner"] = lt.NsPerOp / le.NsPerOp

	// Matching: compiled scoring of blocked candidate pairs vs the
	// interpreted tree-walk over the same pairs.
	probe := probeRule(ds)
	pairs := matching.CandidatePairs(matching.TokenBlocking(), ds.A, ds.B, matching.Options{MaxBlockSize: ds.B.Len()/20 + 50})
	me := run("match/compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scorer := evalengine.Compile(probe).Scorer()
			for _, p := range pairs {
				scorer.Score(p.A, p.B)
			}
		}
	})
	mt := run("match/treewalk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				probe.Evaluate(p.A, p.B)
			}
		}
	})
	report.Speedups["matching"] = mt.NsPerOp / me.NsPerOp

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspeedups: fitness %.1fx, learner %.1fx, matching %.1fx → %s\n",
		report.Speedups["fitness_evaluation"], report.Speedups["learner"],
		report.Speedups["matching"], out)
}

// IndexReport is the schema of BENCH_linkindex.json.
type IndexReport struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Dataset   string `json:"dataset"`
	Blocker   string `json:"blocker"`
	Entities  int    `json:"entities"`
	Probes    int    `json:"probes"`

	// BulkLoad: seeding the whole corpus under one write lock.
	BulkLoadNs     float64 `json:"bulkload_ns_total"`
	BulkLoadPerSec float64 `json:"bulkload_entities_per_sec"`
	// Query: single-entity top-10 match against the loaded corpus.
	QueryP50Ns  float64 `json:"query_p50_ns"`
	QueryP99Ns  float64 `json:"query_p99_ns"`
	QueryMeanNs float64 `json:"query_mean_ns"`
	QueryPerSec float64 `json:"query_per_sec"`
	// Update: replacing an existing entity (re-key + cache invalidation).
	UpdateNsPerOp float64 `json:"update_ns_per_op"`
	UpdatePerSec  float64 `json:"update_per_sec"`
	// Baselines: the batch blocker run once over the full A×B sources, and
	// run with a singleton A source — what answering one online query
	// costs without an incremental index.
	BatchCandidatePairsNs float64 `json:"batch_candidatepairs_ns"`
	SingleProbeBatchNs    float64 `json:"single_probe_batch_ns"`

	Speedups map[string]float64 `json:"speedups"`
}

// runIndexWorkload measures the incremental matching service on one
// dataset: the corpus is the dataset's B source, probes come from its A
// source, and the rule is the same learned-rule-shaped probe the engine
// workload uses.
func runIndexWorkload(ds *entity.Dataset, out string, probes int, blockerName string, seed int64) {
	bl := matching.BlockerByName(blockerName)
	if bl == nil {
		log.Fatalf("unknown blocker %q (available: %v)", blockerName, matching.BlockerNames())
	}
	if probes <= 0 {
		log.Fatalf("-probes must be positive, got %d", probes)
	}
	r := probeRule(ds)
	corpus := ds.B.Entities
	rng := rand.New(rand.NewSource(seed))
	probeSet := make([]*entity.Entity, 0, probes)
	for i := 0; i < probes; i++ {
		probeSet = append(probeSet, ds.A.Entities[rng.Intn(len(ds.A.Entities))])
	}

	report := &IndexReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Dataset:   ds.Name,
		Blocker:   bl.Name(),
		Entities:  len(corpus),
		Probes:    len(probeSet),
		Speedups:  map[string]float64{},
	}

	// Bulk load (best of 3 fresh indexes).
	for trial := 0; trial < 3; trial++ {
		ix := linkindex.New(r, matching.Options{Blocker: bl})
		t0 := time.Now()
		ix.BulkLoad(corpus)
		if ns := float64(time.Since(t0).Nanoseconds()); trial == 0 || ns < report.BulkLoadNs {
			report.BulkLoadNs = ns
		}
	}
	report.BulkLoadPerSec = float64(len(corpus)) / (report.BulkLoadNs / 1e9)
	fmt.Printf("%-28s %12.0f ns total   %10.0f entities/sec\n", "index/bulkload", report.BulkLoadNs, report.BulkLoadPerSec)

	// Query latency distribution on the loaded index. One warm pass first
	// so the scorer's per-entity value caches for the corpus are paid, the
	// steady state of a long-running service.
	ix := linkindex.New(r, matching.Options{Blocker: bl})
	ix.BulkLoad(corpus)
	for _, p := range probeSet {
		ix.Query(p, 10)
	}
	durs := make([]float64, len(probeSet))
	var total float64
	for i, p := range probeSet {
		t0 := time.Now()
		ix.Query(p, 10)
		durs[i] = float64(time.Since(t0).Nanoseconds())
		total += durs[i]
	}
	sort.Float64s(durs)
	report.QueryP50Ns = quantile(durs, 0.50)
	report.QueryP99Ns = quantile(durs, 0.99)
	report.QueryMeanNs = total / float64(len(durs))
	report.QueryPerSec = 1e9 / report.QueryMeanNs
	fmt.Printf("%-28s %12.0f ns p50 %12.0f ns p99 %10.0f qps\n", "index/query", report.QueryP50Ns, report.QueryP99Ns, report.QueryPerSec)

	// Update throughput: replace existing entities with fresh values
	// (re-keys the block structures and invalidates the value caches).
	// Replacements are cloned before the clock starts so only the index's
	// own work is measured.
	updates := 2000
	replacements := make([]*entity.Entity, updates)
	for i := range replacements {
		replacements[i] = corpus[i%len(corpus)].Clone()
	}
	t0 := time.Now()
	for _, e := range replacements {
		ix.Update(e)
	}
	report.UpdateNsPerOp = float64(time.Since(t0).Nanoseconds()) / float64(updates)
	report.UpdatePerSec = 1e9 / report.UpdateNsPerOp
	fmt.Printf("%-28s %12.0f ns/op   %10.0f updates/sec\n", "index/update", report.UpdateNsPerOp, report.UpdatePerSec)

	// Baseline 1: the full batch blocker over A×B — what a pipeline
	// re-runs when anything changes.
	opts := matching.Options{Blocker: bl}
	t0 = time.Now()
	matching.CandidatePairs(bl, ds.A, ds.B, opts)
	report.BatchCandidatePairsNs = float64(time.Since(t0).Nanoseconds())
	fmt.Printf("%-28s %12.0f ns\n", "batch/candidatepairs", report.BatchCandidatePairsNs)

	// Baseline 2: batch blocking with a singleton A source — the honest
	// per-query cost without an index (the blocker still re-indexes B).
	nSingle := 20
	if nSingle > len(probeSet) {
		nSingle = len(probeSet)
	}
	t0 = time.Now()
	for i := 0; i < nSingle; i++ {
		a := entity.NewSource("probe")
		a.Add(probeSet[i])
		matching.CandidatePairs(bl, a, ds.B, opts)
	}
	report.SingleProbeBatchNs = float64(time.Since(t0).Nanoseconds()) / float64(nSingle)
	fmt.Printf("%-28s %12.0f ns/op\n", "batch/single-probe", report.SingleProbeBatchNs)

	report.Speedups["query_vs_batch_candidatepairs"] = ratio(report.BatchCandidatePairsNs, report.QueryMeanNs)
	report.Speedups["query_vs_single_probe_batch"] = ratio(report.SingleProbeBatchNs, report.QueryMeanNs)

	writeLinkIndexSection(out, "index", report)
	fmt.Printf("\nquery is %.0fx faster than batch CandidatePairs, %.0fx faster than single-probe batch → %s\n",
		report.Speedups["query_vs_batch_candidatepairs"],
		report.Speedups["query_vs_single_probe_batch"], out)
}

// writeLinkIndexSection writes one workload's report into its section of
// the combined BENCH_linkindex.json file ({"index": ..., "shard": ...,
// "durability": ...}), preserving the other sections if the file already
// holds them. A file in the pre-section flat layout is migrated by
// dropping it.
func writeLinkIndexSection(out, section string, v any) {
	sections := make(map[string]json.RawMessage)
	if data, err := os.ReadFile(out); err == nil {
		var existing map[string]json.RawMessage
		if json.Unmarshal(data, &existing) == nil {
			for _, key := range []string{"index", "shard", "durability", "stream", "backfill", "replication"} {
				if raw, ok := existing[key]; ok {
					sections[key] = raw
				}
			}
		}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	sections[section] = raw
	compact, err := json.Marshal(sections)
	if err != nil {
		log.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, compact, "", "  "); err != nil {
		log.Fatal(err)
	}
	data := append(pretty.Bytes(), '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

// MixedLoad is one configuration's measurements in the shard workload.
type MixedLoad struct {
	Shards int `json:"shards"`

	// BulkLoadPerSec: seeding the corpus through the Apply pipeline.
	BulkLoadPerSec float64 `json:"bulkload_entities_per_sec"`
	// UpdatePerEntityPerSec: solo per-entity Update loop (the PR 3 write
	// path, one lock + one sorted-list memmove per entity).
	UpdatePerEntityPerSec float64 `json:"update_per_entity_per_sec"`
	// UpdateBatchedPerSec: solo batched updates through Apply (one lock
	// per shard per batch, bulk remove + append-then-sort).
	UpdateBatchedPerSec float64 `json:"update_batched_per_sec"`

	// Mixed load: writers stream batched updates while readers query.
	MixedWritesPerSec  float64 `json:"mixed_writes_per_sec"`
	MixedQueriesPerSec float64 `json:"mixed_queries_per_sec"`
	MixedQueryP50Ns    float64 `json:"mixed_query_p50_ns"`
	MixedQueryP99Ns    float64 `json:"mixed_query_p99_ns"`
}

// ShardReport is the "shard" section of BENCH_linkindex.json: the same
// contention workload on a single-shard index (the retired single-mutex
// design as the N=1 case) and on an N-shard index.
type ShardReport struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Dataset   string `json:"dataset"`
	Blocker   string `json:"blocker"`
	Entities  int    `json:"entities"`
	Writers   int    `json:"writers"`
	Readers   int    `json:"readers"`
	BatchSize int    `json:"batch_size"`
	// OfferedWritesPerSec is the fixed write arrival rate of the mixed
	// phase (the workload measures contention at a given load, not a
	// saturated CPU split).
	OfferedWritesPerSec float64 `json:"offered_writes_per_sec"`

	SingleShard MixedLoad `json:"single_shard"`
	Sharded     MixedLoad `json:"sharded"`

	Speedups map[string]float64 `json:"speedups"`
}

// runShardWorkload measures read/write contention: for each shard count
// (1, then n) the corpus is bulk-loaded, solo update throughput is
// measured on both write paths, and then mixWriters goroutines stream
// batched replacement upserts while mixReaders goroutines run top-10
// queries for mixDur — writes/sec, queries/sec and the query latency
// distribution under write pressure.
func runShardWorkload(ds *entity.Dataset, out string, probes int, blockerName string, n, mixWriters, mixReaders int, mixDur time.Duration, mixRate, mixQRate float64, batchSize int, seed int64) {
	bl := matching.BlockerByName(blockerName)
	if bl == nil {
		log.Fatalf("unknown blocker %q (available: %v)", blockerName, matching.BlockerNames())
	}
	if probes <= 0 || mixWriters <= 0 || mixReaders <= 0 {
		log.Fatal("-probes, -mixwriters and -mixreaders must be positive")
	}
	if mixRate <= 0 || mixQRate <= 0 {
		// A non-positive rate would degenerate the open-loop pacing into a
		// saturating tight loop — exactly the measurement the harness
		// exists to avoid.
		log.Fatal("-mixrate and -mixqrate must be positive")
	}
	if mixDur <= 0 {
		log.Fatal("-mixdur must be positive")
	}
	r := probeRule(ds)
	corpus := ds.B.Entities
	rng := rand.New(rand.NewSource(seed))
	probeSet := make([]*entity.Entity, 0, probes)
	for i := 0; i < probes; i++ {
		probeSet = append(probeSet, ds.A.Entities[rng.Intn(len(ds.A.Entities))])
	}

	if batchSize <= 0 {
		batchSize = 512
	}
	report := &ShardReport{
		Generated:           time.Now().UTC().Format(time.RFC3339),
		GoVersion:           runtime.Version(),
		NumCPU:              runtime.NumCPU(),
		Dataset:             ds.Name,
		Blocker:             bl.Name(),
		Entities:            len(corpus),
		Writers:             mixWriters,
		Readers:             mixReaders,
		BatchSize:           batchSize,
		OfferedWritesPerSec: mixRate,
		Speedups:            map[string]float64{},
	}

	measure := func(shards int) MixedLoad {
		m := MixedLoad{Shards: shards}
		opts := matching.Options{Blocker: bl}

		// Bulk load (best of 3 fresh indexes).
		var bulkNs float64
		for trial := 0; trial < 3; trial++ {
			ix := linkindex.NewSharded(r, shards, opts)
			t0 := time.Now()
			ix.BulkLoad(corpus)
			if ns := float64(time.Since(t0).Nanoseconds()); trial == 0 || ns < bulkNs {
				bulkNs = ns
			}
		}
		m.BulkLoadPerSec = float64(len(corpus)) / (bulkNs / 1e9)

		ix := linkindex.NewSharded(r, shards, opts)
		ix.BulkLoad(corpus)
		for _, p := range probeSet {
			ix.Query(p, 10) // warm the per-shard value caches
		}

		// Solo update throughput, both write paths. Replacements are cloned
		// before the clock starts so only the index's own work is measured.
		updates := 2048
		replacements := make([]*entity.Entity, updates)
		for i := range replacements {
			replacements[i] = corpus[i%len(corpus)].Clone()
		}
		t0 := time.Now()
		for _, e := range replacements {
			ix.Update(e)
		}
		m.UpdatePerEntityPerSec = float64(updates) / time.Since(t0).Seconds()
		t0 = time.Now()
		for i := 0; i < updates; i += batchSize {
			hi := i + batchSize
			if hi > updates {
				hi = updates
			}
			ix.Apply(linkindex.Batch{Upserts: replacements[i:hi]})
		}
		m.UpdateBatchedPerSec = float64(updates) / time.Since(t0).Seconds()

		// Mixed load: writers stream batches of replacement upserts while
		// readers query. Batches are pre-cloned per writer.
		poolSize := 8 * batchSize
		perWriter := make([][]*entity.Entity, mixWriters)
		for w := range perWriter {
			pool := make([]*entity.Entity, poolSize)
			for i := range pool {
				pool[i] = corpus[(w*poolSize+i)%len(corpus)].Clone()
			}
			perWriter[w] = pool
		}
		var (
			wg        sync.WaitGroup
			written   atomic.Int64
			queried   atomic.Int64
			latMu     sync.Mutex
			latencies []float64
		)
		// Writers offer a fixed arrival rate (batches spaced by interval)
		// rather than a saturating tight loop: the mixed phase measures how
		// much lock contention writes inflict on queries, not how the two
		// split a saturated CPU.
		interval := time.Duration(float64(batchSize) / (mixRate / float64(mixWriters)) * float64(time.Second))
		start := time.Now()
		deadline := start.Add(mixDur)
		for w := 0; w < mixWriters; w++ {
			wg.Add(1)
			go func(pool []*entity.Entity) {
				defer wg.Done()
				next := start
				for i := 0; ; i += batchSize {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					// Check the deadline after sleeping so no batch fires
					// (and gets counted) past it.
					if !time.Now().Before(deadline) {
						return
					}
					next = next.Add(interval)
					lo := i % len(pool)
					hi := lo + batchSize
					if hi > len(pool) {
						hi = len(pool)
					}
					ix.Apply(linkindex.Batch{Upserts: pool[lo:hi]})
					written.Add(int64(hi - lo))
				}
			}(perWriter[w])
		}
		// Readers are open-loop too (fixed offered query rate): a
		// closed-loop reader saturates spare CPU and scheduler queueing
		// noise swamps the lock-stall signal the workload exists to
		// measure. With idle headroom, latency = per-query work + time
		// blocked behind writers' shard locks.
		qInterval := time.Duration(float64(time.Second) / (mixQRate / float64(mixReaders)))
		for g := 0; g < mixReaders; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				local := make([]float64, 0, 4096)
				next := start
				for {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					if !time.Now().Before(deadline) {
						break
					}
					next = next.Add(qInterval)
					p := probeSet[rng.Intn(len(probeSet))]
					t0 := time.Now()
					ix.Query(p, 10)
					local = append(local, float64(time.Since(t0).Nanoseconds()))
					queried.Add(1)
				}
				latMu.Lock()
				latencies = append(latencies, local...)
				latMu.Unlock()
			}(seed + int64(g))
		}
		wg.Wait()
		// Rates over the actual span (the last scheduled op may finish
		// past the nominal deadline), not the nominal duration.
		elapsed := time.Since(start).Seconds()
		m.MixedWritesPerSec = float64(written.Load()) / elapsed
		m.MixedQueriesPerSec = float64(queried.Load()) / elapsed
		sort.Float64s(latencies)
		if len(latencies) > 0 {
			m.MixedQueryP50Ns = quantile(latencies, 0.50)
			m.MixedQueryP99Ns = quantile(latencies, 0.99)
		}
		fmt.Printf("%-28s %10.0f wr/s %10.0f q/s %10.0f ns p50 %12.0f ns p99 (solo upd: %.0f/s entity, %.0f/s batch)\n",
			fmt.Sprintf("shard/mixed(n=%d)", shards), m.MixedWritesPerSec, m.MixedQueriesPerSec,
			m.MixedQueryP50Ns, m.MixedQueryP99Ns, m.UpdatePerEntityPerSec, m.UpdateBatchedPerSec)
		return m
	}

	report.SingleShard = measure(1)
	report.Sharded = measure(n)

	report.Speedups["mixed_queries_sharded_vs_single"] = ratio(report.Sharded.MixedQueriesPerSec, report.SingleShard.MixedQueriesPerSec)
	report.Speedups["mixed_writes_sharded_vs_single"] = ratio(report.Sharded.MixedWritesPerSec, report.SingleShard.MixedWritesPerSec)
	report.Speedups["mixed_query_p50_single_vs_sharded"] = ratio(report.SingleShard.MixedQueryP50Ns, report.Sharded.MixedQueryP50Ns)
	report.Speedups["update_batched_vs_per_entity_single"] = ratio(report.SingleShard.UpdateBatchedPerSec, report.SingleShard.UpdatePerEntityPerSec)
	report.Speedups["update_batched_sharded_vs_single"] = ratio(report.Sharded.UpdateBatchedPerSec, report.SingleShard.UpdateBatchedPerSec)

	writeLinkIndexSection(out, "shard", report)
	fmt.Printf("\nsharded (n=%d) vs single-shard under mixed load: %.1fx queries/s, %.1fx writes/s, %.1fx lower p50 → %s\n",
		n, report.Speedups["mixed_queries_sharded_vs_single"],
		report.Speedups["mixed_writes_sharded_vs_single"],
		report.Speedups["mixed_query_p50_single_vs_sharded"], out)
}

// quantile returns the linearly interpolated q-quantile of a sorted
// sample. Nearest-rank p99 degenerates to the sample maximum below 100
// samples; interpolation keeps small -probes runs comparable (though
// ≥100 probes still give the trustworthy tail). An empty sample — e.g.
// mixed-load readers that completed zero queries inside the measurement
// window — reports 0 rather than indexing sorted[-1].
// PolicyWrite is one fsync policy's write-throughput measurement in the
// durability workload.
type PolicyWrite struct {
	Policy string `json:"policy"`
	// EntitiesPerSec is the durable write throughput: corpus entities
	// streamed through WAL-logged Apply batches per second.
	EntitiesPerSec float64 `json:"entities_per_sec"`
	NsPerBatch     float64 `json:"ns_per_batch"`
}

// RecoveryPoint is one recovery-time measurement: a log of Records
// batches (Entities upserts total, no snapshot past genesis) recovered
// from cold.
type RecoveryPoint struct {
	Records       int     `json:"records"`
	Entities      int     `json:"entities"`
	RecoveryMs    float64 `json:"recovery_ms"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// DurabilityReport is the "durability" section of BENCH_linkindex.json.
type DurabilityReport struct {
	Generated       string  `json:"generated"`
	GoVersion       string  `json:"go_version"`
	NumCPU          int     `json:"num_cpu"`
	Dataset         string  `json:"dataset"`
	Blocker         string  `json:"blocker"`
	Entities        int     `json:"entities"`
	BatchSize       int     `json:"batch_size"`
	FsyncIntervalMs float64 `json:"fsync_interval_ms"`

	WriteThroughput []PolicyWrite   `json:"write_throughput"`
	Recovery        []RecoveryPoint `json:"recovery"`

	Speedups map[string]float64 `json:"speedups"`
}

// runDurabilityWorkload measures the crash-safety tax and the recovery
// curve: the dataset's B source is streamed through DurableIndex.Apply
// in fixed-size batches once per fsync policy (write throughput = what
// each durability level costs), then logs of increasing length are
// recovered from cold (snapshot load + replay).
func runDurabilityWorkload(ds *entity.Dataset, out, blockerName string, batchSize int) {
	bl := matching.BlockerByName(blockerName)
	if bl == nil {
		log.Fatalf("unknown blocker %q (available: %v)", blockerName, matching.BlockerNames())
	}
	if batchSize <= 0 {
		batchSize = 128
	}
	r := probeRule(ds)
	corpus := ds.B.Entities
	opts := matching.Options{Blocker: bl}

	report := &DurabilityReport{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		Dataset:         ds.Name,
		Blocker:         bl.Name(),
		Entities:        len(corpus),
		BatchSize:       batchSize,
		FsyncIntervalMs: 10,
		Speedups:        map[string]float64{},
	}

	// stream applies corpus[:n] in batches and returns the wall-clock
	// nanoseconds of the Apply calls plus the batch count.
	stream := func(d *linkindex.DurableIndex, n int) (float64, int) {
		batches := 0
		t0 := time.Now()
		for i := 0; i < n; i += batchSize {
			hi := i + batchSize
			if hi > n {
				hi = n
			}
			if _, err := d.Apply(linkindex.Batch{Upserts: corpus[i:hi]}); err != nil {
				log.Fatal(err)
			}
			batches++
		}
		return float64(time.Since(t0).Nanoseconds()), batches
	}

	// Write throughput per fsync policy. Auto-snapshots are disabled so
	// the measurement isolates the log append + fsync cost.
	dopts := func(p linkindex.FsyncPolicy) linkindex.DurableOptions {
		return linkindex.DurableOptions{
			Fsync:         p,
			FsyncInterval: time.Duration(report.FsyncIntervalMs) * time.Millisecond,
			SnapshotEvery: -1,
		}
	}
	perSec := map[string]float64{}
	for _, p := range []linkindex.FsyncPolicy{linkindex.FsyncOff, linkindex.FsyncIntervalPolicy, linkindex.FsyncBatch} {
		dir, err := os.MkdirTemp("", "genlink-bench-wal-")
		if err != nil {
			log.Fatal(err)
		}
		d, err := linkindex.NewDurable(dir, linkindex.NewSharded(r, 1, opts), dopts(p))
		if err != nil {
			log.Fatal(err)
		}
		ns, batches := stream(d, len(corpus))
		if err := d.Close(); err != nil {
			log.Fatal(err)
		}
		os.RemoveAll(dir)
		pw := PolicyWrite{
			Policy:         p.String(),
			EntitiesPerSec: float64(len(corpus)) / (ns / 1e9),
			NsPerBatch:     ns / float64(batches),
		}
		perSec[pw.Policy] = pw.EntitiesPerSec
		report.WriteThroughput = append(report.WriteThroughput, pw)
		fmt.Printf("%-28s %12.0f ns/batch %10.0f entities/sec\n",
			"durability/write(fsync="+pw.Policy+")", pw.NsPerBatch, pw.EntitiesPerSec)
	}
	report.Speedups["fsync_off_vs_batch"] = ratio(perSec["off"], perSec["batch"])
	report.Speedups["fsync_interval_vs_batch"] = ratio(perSec["interval"], perSec["batch"])

	// Recovery time vs log length: logs of n/4, n/2 and n entities with
	// only the genesis snapshot, recovered from cold — the worst case a
	// crash between auto-snapshots can leave.
	for _, frac := range []int{4, 2, 1} {
		n := len(corpus) / frac
		dir, err := os.MkdirTemp("", "genlink-bench-recover-")
		if err != nil {
			log.Fatal(err)
		}
		d, err := linkindex.NewDurable(dir, linkindex.NewSharded(r, 1, opts), dopts(linkindex.FsyncOff))
		if err != nil {
			log.Fatal(err)
		}
		_, batches := stream(d, n)
		if err := d.Close(); err != nil {
			log.Fatal(err)
		}
		rec, stats, err := linkindex.Recover(dir, linkindex.DurableOptions{SnapshotEvery: -1})
		if err != nil {
			log.Fatal(err)
		}
		if stats.RecordsReplayed != batches || rec.Len() != n {
			log.Fatalf("recovery replayed %d records into %d entities, want %d records / %d entities",
				stats.RecordsReplayed, rec.Len(), batches, n)
		}
		if err := rec.Close(); err != nil {
			log.Fatal(err)
		}
		os.RemoveAll(dir)
		pt := RecoveryPoint{
			Records:       batches,
			Entities:      n,
			RecoveryMs:    float64(stats.Duration.Microseconds()) / 1000,
			RecordsPerSec: ratio(float64(batches), stats.Duration.Seconds()),
		}
		report.Recovery = append(report.Recovery, pt)
		fmt.Printf("%-28s %10.1f ms (%d records, %d entities)\n",
			"durability/recover", pt.RecoveryMs, pt.Records, pt.Entities)
	}

	writeLinkIndexSection(out, "durability", report)
	fmt.Printf("\nfsync off is %.1fx batch, interval %.1fx batch; full-log recovery %.1f ms → %s\n",
		report.Speedups["fsync_off_vs_batch"], report.Speedups["fsync_interval_vs_batch"],
		report.Recovery[len(report.Recovery)-1].RecoveryMs, out)
}

// IngestRate is one write path's throughput in the backfill workload.
type IngestRate struct {
	Path string `json:"path"`
	// EntitiesPerSec counts corpus entities through the whole path — for
	// backfill that includes the commit barrier, so the rates compare
	// end-to-end durable loads, not an unlogged apply against a synced one.
	EntitiesPerSec float64 `json:"entities_per_sec"`
	NsPerBatch     float64 `json:"ns_per_batch"`
}

// BackfillReport is the "backfill" section of BENCH_linkindex.json:
// bulk-backfill vs WAL-logged ingest of the same corpus.
type BackfillReport struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Dataset   string `json:"dataset"`
	Blocker   string `json:"blocker"`
	Entities  int    `json:"entities"`
	BatchSize int    `json:"batch_size"`
	Shards    int    `json:"shards"`

	Ingest []IngestRate `json:"ingest"`
	// CommitMs is the snapshot-barrier cost inside the backfill rate: one
	// atomic snapshot making the whole load durable.
	CommitMs float64 `json:"commit_ms"`

	Speedups map[string]float64 `json:"speedups"`
}

// runBackfillWorkload measures the corpus-scale write paths against each
// other: the dataset's B source is streamed through the WAL-logged Apply
// path (fsync=batch — the durability contract online writes pay), then
// through an unlogged bulk-backfill session closed by its snapshot
// barrier.
func runBackfillWorkload(ds *entity.Dataset, out, blockerName string, batchSize, shards int) {
	bl := matching.BlockerByName(blockerName)
	if bl == nil {
		log.Fatalf("unknown blocker %q (available: %v)", blockerName, matching.BlockerNames())
	}
	if batchSize <= 0 {
		batchSize = 128
	}
	r := probeRule(ds)
	corpus := ds.B.Entities
	opts := matching.Options{Blocker: bl}

	report := &BackfillReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Dataset:   ds.Name,
		Blocker:   bl.Name(),
		Entities:  len(corpus),
		BatchSize: batchSize,
		Shards:    shards,
		Speedups:  map[string]float64{},
	}
	dopts := linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1}

	// Logged ingest: every batch through WAL append + fsync, the price
	// online writes pay.
	loggedDir, err := os.MkdirTemp("", "genlink-bench-backfill-log-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(loggedDir)
	d, err := linkindex.NewDurable(loggedDir, linkindex.NewSharded(r, shards, opts), dopts)
	if err != nil {
		log.Fatal(err)
	}
	batches := 0
	t0 := time.Now()
	for i := 0; i < len(corpus); i += batchSize {
		hi := min(i+batchSize, len(corpus))
		if _, err := d.Apply(linkindex.Batch{Upserts: corpus[i:hi]}); err != nil {
			log.Fatal(err)
		}
		batches++
	}
	loggedNs := float64(time.Since(t0).Nanoseconds())
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}
	logged := IngestRate{
		Path:           "logged",
		EntitiesPerSec: float64(len(corpus)) / (loggedNs / 1e9),
		NsPerBatch:     loggedNs / float64(batches),
	}
	report.Ingest = append(report.Ingest, logged)
	fmt.Printf("%-28s %12.0f ns/batch %10.0f entities/sec\n",
		"backfill/ingest(logged)", logged.NsPerBatch, logged.EntitiesPerSec)

	// Backfill ingest: same corpus, same batches, through the unlogged
	// session, closed by the commit barrier — end-to-end durable load.
	bfDir, err := os.MkdirTemp("", "genlink-bench-backfill-bulk-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(bfDir)
	bd, err := linkindex.NewDurable(bfDir, linkindex.NewSharded(r, shards, opts), dopts)
	if err != nil {
		log.Fatal(err)
	}
	bf, err := bd.BeginBackfill()
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	for i := 0; i < len(corpus); i += batchSize {
		hi := min(i+batchSize, len(corpus))
		if _, err := bf.Apply(linkindex.Batch{Upserts: corpus[i:hi]}); err != nil {
			log.Fatal(err)
		}
	}
	tCommit := time.Now()
	if err := bf.Commit(); err != nil {
		log.Fatal(err)
	}
	bulkNs := float64(time.Since(t0).Nanoseconds())
	report.CommitMs = float64(time.Since(tCommit).Microseconds()) / 1000
	if err := bd.Close(); err != nil {
		log.Fatal(err)
	}
	bulk := IngestRate{
		Path:           "backfill",
		EntitiesPerSec: float64(len(corpus)) / (bulkNs / 1e9),
		NsPerBatch:     bulkNs / float64(batches),
	}
	report.Ingest = append(report.Ingest, bulk)
	report.Speedups["backfill_vs_logged_ingest"] = ratio(bulk.EntitiesPerSec, logged.EntitiesPerSec)
	fmt.Printf("%-28s %12.0f ns/batch %10.0f entities/sec (commit %.1f ms)\n",
		"backfill/ingest(bulk)", bulk.NsPerBatch, bulk.EntitiesPerSec, report.CommitMs)

	writeLinkIndexSection(out, "backfill", report)
	fmt.Printf("\nbackfill ingest is %.1fx logged → %s\n",
		report.Speedups["backfill_vs_logged_ingest"], out)
}

// ratio returns num/den sanitized for JSON: a measurement that recorded
// 0 ops/s (a contended run where one side never completed an operation)
// must not produce ±Inf or NaN, which encoding/json refuses to marshal —
// that would fail the whole report write. Degenerate ratios report 0.
func ratio(num, den float64) float64 {
	r := num / den
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// populationGen builds GP-generation-shaped populations for a dataset:
// comparisons drawn from the dataset's own compatible property pairs
// (Algorithm 2, run once at construction), wrapped in random aggregations,
// with thresholds and operand orders varied the way crossover varies them.
type populationGen struct {
	pairs    []genlink.PropertyPair
	measures []similarity.Measure
}

func newPopulationGen(ds *entity.Dataset, seed int64) *populationGen {
	rng := rand.New(rand.NewSource(seed))
	measures := similarity.Core()
	pairs := genlink.CompatibleProperties(ds.Refs.Positive, measures, 1, 50, rng)
	if len(pairs) == 0 {
		pairs = genlink.AllPropertyPairs(ds.Refs.Positive)
	}
	return &populationGen{pairs: pairs, measures: measures}
}

func (g *populationGen) comparison(rng *rand.Rand) rule.SimilarityOp {
	pp := g.pairs[rng.Intn(len(g.pairs))]
	var a rule.ValueOp = rule.NewProperty(pp.A)
	var b rule.ValueOp = rule.NewProperty(pp.B)
	if rng.Float64() < 0.5 {
		a = rule.NewTransform(transform.LowerCase(), a)
		b = rule.NewTransform(transform.LowerCase(), b)
	}
	m := g.measures[rng.Intn(len(g.measures))]
	return rule.NewComparison(a, b, m, rng.Float64()*3)
}

func (g *populationGen) rules(rng *rand.Rand, size int) []*rule.Rule {
	rules := make([]*rule.Rule, size)
	for i := range rules {
		n := 1 + rng.Intn(3)
		ops := make([]rule.SimilarityOp, n)
		for j := range ops {
			ops[j] = g.comparison(rng)
		}
		rules[i] = rule.New(rule.NewAggregation(rule.CoreAggregators()[rng.Intn(3)], ops...))
	}
	return rules
}

// probeRule builds a fixed learned-rule-shaped probe for the matching
// bench.
func probeRule(ds *entity.Dataset) *rule.Rule {
	rng := rand.New(rand.NewSource(1))
	return newPopulationGen(ds, 1).rules(rng, 1)[0]
}
