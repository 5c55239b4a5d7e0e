package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genlink/benchmark/corpus"
	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/evalx"
	"genlink/internal/genlink"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// Sample sizes of the traced pass. It replays a fixed sample of the
// generated inputs in-process through each layer's public functions, so
// these set how long the pass takes, not what it measures.
const (
	traceProbes   = 120 // queries replayed per query measurement
	tracePairs    = 20000
	traceWriteOps = 6000 // entity operations replayed through Apply
	traceTailOps  = 1280 // operations logged after the snapshot, for replay
	traceLearnGen = 4
	traceHTTP     = 100 // requests per HTTP-side measurement
	// The open-loop probe runs for traceOpenSecs at a fixed rate of about
	// half the closed-loop throughput measured when the benchmark was
	// calibrated (about 155 requests per second).
	traceOpenSecs = 4.0
	openRate      = 75.0 // requests per second
)

// sink keeps measured calls from being optimised away.
var sink atomic.Int64

// runTrace is the separate traced pass: per-layer metrics only. It is the
// same for every workload name — the contract wants every per-layer
// metric from every traced run — and the name selects the file the spans
// are written to. End-to-end numbers never come from here.
func runTrace(r *run, workload string) (*result, error) {
	res := newResult()
	tr := newTracer()
	c := corpus.Generate(r.seed, corpusN)

	traceLearn(r, res, tr)
	traceMeasures(res, c)
	traceEntityJSON(res, c)
	rep := traceBlocking(r, res, tr, c)
	traceScoring(r, res, c, rep)
	traceQuery(r, res, tr, c, rep)
	traceWrites(r, res, tr)
	if err := traceDurable(r, res, tr); err != nil {
		return nil, err
	}
	if err := traceHTTPSide(r, res, c); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(tr.spans), path)
	res.attempted = max(res.attempted, 1)
	return res, nil
}

// perCall times n calls of f and returns the mean in the given unit.
func perCall(n int, unit time.Duration, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(unit) / float64(n)
}

// ---------------------------------------------------------------------------
// genlink, gp, evalengine.Engine, rule

func traceLearn(r *run, res *result, tr *tracer) {
	var seedMs, genMs, f1s []float64
	var rules []*rule.Rule
	var refs *entity.ReferenceLinks
	for di, name := range []string{"Cora", "NYT"} {
		ds := datagen.ByName(name)(r.seed)
		folds := evalx.SplitFolds(ds.Refs, learnFolds, rand.New(rand.NewSource(r.seed<<8+int64(di))))
		cfg := genlink.DefaultConfig()
		cfg.MaxIterations = traceLearnGen
		cfg.TargetFMeasure = 2
		cfg.Seed = r.seed<<8 + int64(di)

		_, end := tr.start("genlink.CompatibleProperties", 0, di)
		t0 := time.Now()
		pairs := genlink.CompatibleProperties(folds[0].Positive, cfg.Measures, cfg.CompatThreshold, cfg.MaxCompatLinks, rand.New(rand.NewSource(cfg.Seed)))
		seedMs = append(seedMs, float64(time.Since(t0))/float64(time.Millisecond))
		end()
		tr.count("genlink.compatible_pairs", int64(len(pairs)))

		_, end = tr.start("genlink.LearnWithValidation", 0, di)
		out, err := genlink.NewLearner(cfg).LearnWithValidation(folds[0], folds[1])
		end()
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("trace learn %s: %v", name, err)
			continue
		}
		f1s = append(f1s, out.BestValF1)
		rules = append(rules, out.TopRules...)
		if di == 0 {
			refs = folds[0]
		}

		// Breeding alone: the same learner on a training set of eight
		// links, where evaluating a population costs next to nothing, so
		// a generation's wall time is selection, crossover and repair.
		tiny := &entity.ReferenceLinks{Positive: folds[0].Positive[:4], Negative: folds[0].Negative[:4]}
		_, end = tr.start("genlink.breed", 0, di)
		bred, err := genlink.NewLearner(cfg).Learn(tiny)
		end()
		if err == nil {
			for i := 1; i < len(bred.History); i++ {
				genMs = append(genMs, float64(bred.History[i].Elapsed-bred.History[i-1].Elapsed)/float64(time.Millisecond))
			}
		}
	}
	res.metrics["genlink.seed_ms"] = median(seedMs)
	res.metrics["genlink.breed_ms_per_gen"] = median(genMs)
	res.metrics["genlink.val_f1"] = median(f1s)
	if len(rules) == 0 || refs == nil {
		return
	}

	_, end := tr.start("evalengine.Compile", 0, 0)
	res.metrics["evalengine.compile_us_per_rule"] = perCall(len(rules)*20, time.Microsecond, func(i int) {
		sink.Add(int64(evalengine.Compile(rules[i%len(rules)]).NumDistPrograms()))
	})
	end()
	_, end = tr.start("rule.Signature", 0, 0)
	res.metrics["rule.signature_us"] = perCall(len(rules)*20, time.Microsecond, func(i int) {
		sink.Add(int64(len(rules[i%len(rules)].Signature())))
	})
	end()

	// The engine on the fittest rules of the replayed runs, in two
	// batches: the second shares sub-trees with the first the way one
	// generation shares them with the previous one.
	eng := evalengine.New(refs, evalengine.Options{})
	half := len(rules) / 2
	_, end = tr.start("evalengine.EvaluateBatch", 0, 0)
	t0 := time.Now()
	eng.EvaluateBatch(rules[:half])
	eng.EvaluateBatch(rules[half:])
	res.metrics["evalengine.eval_us_per_rule"] = float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(rules))
	end()
	st := eng.Stats()
	res.metrics["evalengine.dist_cache_hit_ratio"] = float64(st.DistHits) / float64(max(st.DistHits+st.DistComputed, 1))
	// Every computed distance vector reads two value columns; the columns
	// the cache holds are the ones that had to be computed.
	res.metrics["evalengine.value_cache_hit_ratio"] = 1 - float64(st.ValueVectors)/float64(max(2*st.DistComputed, 1))
}

// ---------------------------------------------------------------------------
// similarity, transform, entity

func traceMeasures(res *result, c *corpus.Corpus) {
	rng := rand.New(rand.NewSource(1))
	pick := func(prop string) [][]string {
		var out [][]string
		for len(out) < 2000 {
			if vs := c.Entities[rng.Intn(len(c.Entities))].Values(prop); len(vs) > 0 {
				out = append(out, vs)
			}
		}
		return out
	}
	titles, authors, dates := pick("title"), pick("author"), pick("date")
	tok := transform.Tokenize()
	authorTokens := make([][]string, len(authors))
	for i, a := range authors {
		authorTokens[i] = tok.Apply(a)
	}
	// The corpus has no numeric, coordinate or URI property; those
	// measures get values of the shape the paper's other datasets hold.
	nums, coords, uris := make([][]string, 2000), make([][]string, 2000), make([][]string, 2000)
	for i := range nums {
		nums[i] = []string{fmt.Sprint(rng.Intn(100000))}
		coords[i] = []string{fmt.Sprintf("%.5f %.5f", rng.Float64()*180-90, rng.Float64()*360-180)}
		uris[i] = []string{fmt.Sprintf("http://example.org/resource/Paper_%d", rng.Intn(1000000))}
	}
	measure := func(name string, m similarity.Measure, vals [][]string) {
		n := len(vals)
		res.metrics["similarity."+name+".ns_per_call"] = perCall(tracePairs, time.Nanosecond, func(i int) {
			sink.Add(int64(m.Distance(vals[i%n], vals[(i*7+1)%n])))
		})
	}
	measure("levenshtein", similarity.Levenshtein(), titles)
	measure("jaccard", similarity.Jaccard(), authorTokens)
	measure("date", similarity.Date(), dates)
	measure("numeric", similarity.Numeric(), nums)
	measure("geographic", similarity.Geographic(), coords)
	apply := func(name string, t transform.Transformation, vals [][]string) {
		n := len(vals)
		res.metrics["transform."+name+".ns_per_call"] = perCall(tracePairs, time.Nanosecond, func(i int) {
			sink.Add(int64(len(t.Apply(vals[i%n]))))
		})
	}
	apply("lowerCase", transform.LowerCase(), titles)
	apply("tokenize", tok, authors)
	apply("stripUriPrefix", transform.StripURIPrefix(), uris)
}

func traceEntityJSON(res *result, c *corpus.Corpus) {
	es := c.Entities[:2000]
	bodies := make([][]byte, len(es))
	res.metrics["entity.json_encode_us"] = perCall(len(es), time.Microsecond, func(i int) {
		bodies[i], _ = json.Marshal(es[i])
	})
	res.metrics["entity.json_decode_us"] = perCall(len(es), time.Microsecond, func(i int) {
		var e entity.Entity
		if json.Unmarshal(bodies[i], &e) == nil {
			sink.Add(int64(len(e.Properties)))
		}
	})
}

// ---------------------------------------------------------------------------
// linkindex block indexes and the candidate funnel

// replica is the benchmark's own decomposition of ShardedIndex.Query,
// assembled from the layers' public pieces so that a span can be put
// around each stage: per shard a BlockIndex and a SharedScorer, the
// shard's cap derived like the index derives it, then MergeTopK.
// linkindex.query_unattributed_ratio compares it with the real Query on
// the same probes and says when this decomposition has gone stale.
type replica struct {
	blocks    []linkindex.BlockIndex
	scorers   []*evalengine.SharedScorer
	stored    []map[string]*entity.Entity
	threshold float64
}

func newReplica(rl *rule.Rule, shards int, es []*entity.Entity) *replica {
	rep := &replica{threshold: rule.MatchThreshold}
	compiled := evalengine.Compile(rl)
	parts := make([][]*entity.Entity, shards)
	for _, e := range es {
		pi := linkindex.PartitionOf(e.ID, shards)
		parts[pi] = append(parts[pi], e)
	}
	for _, part := range parts {
		bi := linkindex.NewBlockIndex(matching.MultiPass())
		stored := make(map[string]*entity.Entity, len(part))
		addAll(bi, part)
		for _, e := range part {
			stored[e.ID] = e
		}
		rep.blocks = append(rep.blocks, bi)
		rep.scorers = append(rep.scorers, compiled.NewSharedScorer())
		rep.stored = append(rep.stored, stored)
	}
	return rep
}

func addAll(bi linkindex.BlockIndex, es []*entity.Entity) {
	if ba, ok := bi.(linkindex.BulkAdder); ok {
		ba.BulkAdd(es)
		return
	}
	for _, e := range es {
		bi.Add(e)
	}
}

// maxBlock is the stop-token cap a shard derives from its partition.
func (rep *replica) maxBlock(shard int, probe *entity.Entity) int {
	n := len(rep.stored[shard])
	if _, ok := rep.stored[shard][probe.ID]; ok {
		n--
	}
	return n/20 + 50
}

// query replays one Query with a span around every stage; shards run in
// parallel as they do in the index.
func (rep *replica) query(tr *tracer, request int, probe *entity.Entity, k int) []matching.Link {
	root, endRoot := tr.start("linkindex.Query", 0, request)
	defer endRoot()
	per := make([][]matching.Link, len(rep.blocks))
	var wg sync.WaitGroup
	for si := range rep.blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, end := tr.start("linkindex.block.Candidates", root, request)
			cands := rep.blocks[si].Candidates(probe, rep.maxBlock(si, probe))
			end()
			tr.count("linkindex.candidates", int64(len(cands)))
			_, end = tr.start("evalengine.Score", root, request)
			var links []matching.Link
			for _, cand := range cands {
				if s := rep.scorers[si].Score(probe, cand); s >= rep.threshold {
					links = append(links, matching.Link{AID: probe.ID, BID: cand.ID, Score: s})
				}
			}
			if rep.stored[si][probe.ID] != probe {
				rep.scorers[si].Invalidate(probe)
			}
			end()
			_, end = tr.start("linkindex.topk", root, request)
			per[si] = linkindex.MergeTopK([][]matching.Link{links}, k)
			end()
		}()
	}
	wg.Wait()
	_, end := tr.start("linkindex.MergeTopK", root, request)
	out := linkindex.MergeTopK(per, k)
	end()
	tr.count("linkindex.returned", int64(len(out)))
	return out
}

// probeSample draws the fixed probe sample every query measurement
// replays.
func probeSample(c *corpus.Corpus, n int) []corpus.Probe {
	ps := corpus.NewProbeStream(c, 99, matchK, externalShare)
	out := make([]corpus.Probe, n)
	for i := range out {
		out[i] = ps.Next()
	}
	return out
}

func traceBlocking(r *run, res *result, tr *tracer, c *corpus.Corpus) *replica {
	probes := probeSample(c, traceProbes)
	members := []struct {
		name string
		bl   matching.Blocker
	}{
		{"token", matching.TokenBlocking()},
		{"sortedneighborhood", matching.SortedNeighborhood(0)},
		{"qgram", matching.QGramBlocking(0)},
	}
	// One member at a time over the whole corpus, with the cap a
	// one-shard index would derive: what each pass of the multipass
	// blocker costs and proposes on its own.
	maxBlock := len(c.Entities)/20 + 50
	generated := 0.0
	for _, m := range members {
		bi := linkindex.NewBlockIndex(m.bl)
		_, end := tr.start("linkindex.block."+m.name+".Add", 0, 0)
		t0 := time.Now()
		// Per-entity Add in 64-entity groups is what a stream of write
		// batches costs; BulkAdd is the load path.
		for i := 0; i < len(c.Entities); i += ingestBatch {
			addAll(bi, c.Entities[i:min(i+ingestBatch, len(c.Entities))])
		}
		res.metrics["linkindex.block."+m.name+".add_us_per_entity"] = float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(c.Entities))
		end()
		total := 0
		_, end = tr.start("linkindex.block."+m.name+".Candidates", 0, 0)
		res.metrics["linkindex.block."+m.name+".candidates_ms"] = perCall(len(probes), time.Millisecond, func(i int) {
			total += len(bi.Candidates(probes[i].Entity, maxBlock))
		})
		end()
		res.metrics["linkindex.block."+m.name+".candidates_per_query"] = float64(total) / float64(len(probes))
		generated += float64(total) / float64(len(probes))
	}
	res.metrics["linkindex.funnel.generated_per_query"] = generated
	return newReplica(r.rule, runtime.GOMAXPROCS(0), c.Entities)
}

// ---------------------------------------------------------------------------
// evalengine.SharedScorer

func traceScoring(r *run, res *result, c *corpus.Corpus, rep *replica) {
	probes := probeSample(c, traceProbes)
	type pair struct{ a, b *entity.Entity }
	var pairs []pair
	for _, p := range probes {
		for si, bi := range rep.blocks {
			for _, cand := range bi.Candidates(p.Entity, rep.maxBlock(si, p.Entity)) {
				if len(pairs) < tracePairs {
					pairs = append(pairs, pair{p.Entity, cand})
				}
			}
		}
	}
	if len(pairs) == 0 {
		return
	}
	sc := evalengine.Compile(r.rule).NewSharedScorer()
	// Cold: the value cache holds neither side of the pair yet (the
	// first pass over fresh pairs); warm: the second pass.
	res.metrics["evalengine.score_ns_per_pair_cold"] = perCall(len(pairs), time.Nanosecond, func(i int) {
		sink.Add(int64(sc.Score(pairs[i].a, pairs[i].b) * 1000))
	})
	res.metrics["evalengine.score_ns_per_pair_warm"] = perCall(len(pairs), time.Nanosecond, func(i int) {
		sink.Add(int64(sc.Score(pairs[i].a, pairs[i].b) * 1000))
	})
	survived := 0
	res.metrics["evalengine.prefilter_ns_per_pair"] = perCall(len(pairs), time.Nanosecond, func(i int) {
		if sc.Bound(pairs[i].a, pairs[i].b) >= rule.MatchThreshold {
			survived++
		}
	})
	res.metrics["evalengine.prefilter.survived_ratio"] = float64(survived) / float64(len(pairs))
}

// ---------------------------------------------------------------------------
// linkindex.ShardedIndex queries

func newIndex(rl *rule.Rule, shards int, es []*entity.Entity) *linkindex.ShardedIndex {
	ix := linkindex.NewSharded(rl, shards, matching.Options{Blocker: matching.MultiPass()})
	for i := 0; i < len(es); i += loadBatch {
		ix.Apply(linkindex.Batch{Upserts: es[i:min(i+loadBatch, len(es))]})
	}
	return ix
}

// queryP50 is the median time of ix.Query over the probe sample, in ms.
func queryP50(ix *linkindex.ShardedIndex, probes []corpus.Probe) float64 {
	ds := make([]time.Duration, len(probes))
	for i, p := range probes {
		t0 := time.Now()
		sink.Add(int64(len(ix.Query(p.Entity, matchK))))
		ds[i] = time.Since(t0)
	}
	return percentile(ms(ds), 50)
}

func traceQuery(r *run, res *result, tr *tracer, c *corpus.Corpus, rep *replica) {
	probes := probeSample(c, traceProbes)
	ix := newIndex(r.rule, 0, c.Entities)

	// Warm both sides' value caches over the sample once, then time.
	for i, p := range probes {
		rep.query(nil, i, p.Entity, matchK)
		ix.Query(p.Entity, matchK)
	}
	cands := 0
	res.metrics["linkindex.candidates_ms"] = perCall(len(probes), time.Millisecond, func(i int) {
		cands += len(ix.Candidates(probes[i].Entity))
	})
	res.metrics["linkindex.funnel.deduped_per_query"] = float64(cands) / float64(len(probes))

	// The traced and the untraced replay of the same probes give the
	// tracing overhead; the real Query on the same probes says how much
	// of it the replayed stages account for.
	untracedLoop := func() time.Duration {
		t0 := time.Now()
		for i, p := range probes {
			rep.query(nil, i, p.Entity, matchK)
		}
		return time.Since(t0)
	}
	untraced := untracedLoop()
	returned := 0
	first := len(tr.spans)
	t0 := time.Now()
	for i, p := range probes {
		returned += len(rep.query(tr, i, p.Entity, matchK))
	}
	traced := time.Since(t0)
	// An untraced loop on either side of the traced one, so a drift in
	// machine speed does not read as tracing overhead.
	res.metrics["trace.overhead_ratio"] = float64(traced) / (float64(untraced+untracedLoop()) / 2)
	res.metrics["linkindex.funnel.returned_per_query"] = float64(returned) / float64(len(probes))
	res.metrics["linkindex.funnel.links_per_candidate"] = float64(returned) / float64(max(cands, 1))

	t0 = time.Now()
	for _, p := range probes {
		sink.Add(int64(len(ix.Query(p.Entity, matchK))))
	}
	real := time.Since(t0)
	res.metrics["linkindex.query_ms"] = float64(real) / float64(time.Millisecond) / float64(len(probes))
	res.metrics["linkindex.query_unattributed_ratio"] = math.Abs(1 - float64(coveredIn(tr.spans[first:], "linkindex.Query"))/float64(real))

	per := make([][]matching.Link, 4)
	for i := range per {
		per[i] = ix.Query(probes[i%len(probes)].Entity, matchK)
	}
	res.metrics["linkindex.merge_topk_us"] = perCall(20000, time.Microsecond, func(int) {
		sink.Add(int64(len(linkindex.MergeTopK(per, matchK))))
	})

	one := newIndex(r.rule, 1, c.Entities)
	queryP50(one, probes) // warm
	res.metrics["linkindex.shard_speedup"] = queryP50(one, probes) / queryP50(ix, probes)

	// Query p50 while a writer keeps applying batches, over the p50
	// without: what writes taking shard locks and invalidating cached
	// value sets cost a reader.
	quiet := queryP50(ix, probes)
	ws := corpus.NewWriteStream(r.seed, 7, nil, updateShare, 0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var ups []*entity.Entity
			for i := 0; i < cycleRecords; i++ {
				ups = append(ups, ws.Next().Entity)
			}
			ix.Apply(linkindex.Batch{Upserts: ups})
		}
	}()
	busy := queryP50(ix, probes)
	close(stop)
	<-done
	res.metrics["linkindex.read_write_interference_ratio"] = busy / quiet
}

// ---------------------------------------------------------------------------
// linkindex writes, WAL, snapshot, recovery

// writeBatches draws the fixed write sample as index batches.
func writeBatches(seed int64, ops int) (batches []linkindex.Batch, entities int) {
	ws := corpus.NewWriteStream(seed, 0, nil, updateShare, deleteShare)
	for done := 0; done < ops; done += ingestBatch {
		var b linkindex.Batch
		for i := 0; i < ingestBatch; i++ {
			op := ws.Next()
			if op.Kind == corpus.Delete {
				b.Deletes = append(b.Deletes, op.ID)
			} else {
				b.Upserts = append(b.Upserts, op.Entity)
			}
		}
		batches = append(batches, b)
	}
	return batches, ops
}

func traceWrites(r *run, res *result, tr *tracer) {
	batches, ops := writeBatches(r.seed, traceWriteOps)
	ix := linkindex.NewSharded(r.rule, 0, matching.Options{Blocker: matching.MultiPass()})
	t0 := time.Now()
	for i, b := range batches {
		_, end := tr.start("linkindex.Apply", 0, i)
		ix.Apply(b)
		end()
	}
	res.metrics["linkindex.apply_us_per_entity"] = float64(time.Since(t0)) / float64(time.Microsecond) / float64(ops)
	res.metrics["linkrouter.split_batch_us"] = perCall(len(batches)*20, time.Microsecond, func(i int) {
		sink.Add(int64(len(linkindex.SplitBatch(batches[i%len(batches)], 2))))
	})
}

func traceDurable(r *run, res *result, tr *tracer) error {
	dir, err := r.h.dir("trace-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	batches, _ := writeBatches(r.seed, traceWriteOps+traceTailOps)
	headN := traceWriteOps / ingestBatch
	// SnapshotEvery < 0: only the explicit snapshot below, as in the
	// ingest-durable workload. Fsync is the default per-batch policy.
	opts := linkindex.DurableOptions{SnapshotEvery: -1}
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(r.rule, 0, matching.Options{Blocker: matching.MultiPass()}), opts)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, b := range batches[:headN] {
		_, end := tr.start("linkindex.DurableIndex.Apply", 0, i)
		_, err := d.Apply(b)
		end()
		if err != nil {
			return err
		}
	}
	durableUs := float64(time.Since(t0)) / float64(time.Microsecond) / float64(traceWriteOps)
	res.metrics["linkindex.durable.log_us_per_entity"] = durableUs - res.metrics["linkindex.apply_us_per_entity"]
	res.metrics["linkindex.wal.bytes_per_entity"] = float64(globBytes(dir, "wal-*.seg")) / float64(traceWriteOps)
	res.metrics["linkindex.wal.segments"] = float64(d.Metrics().WALSegments)
	if err := d.Close(); err != nil {
		return err
	}

	// Recovery with nothing but the initial empty snapshot: all of it is
	// log replay.
	_, end := tr.start("linkindex.Recover", 0, 0)
	d, stats, err := linkindex.Recover(dir, opts)
	end()
	if err != nil {
		return err
	}
	res.metrics["linkindex.recover.replay_ms"] = float64(stats.Duration) / float64(time.Millisecond)
	res.metrics["linkindex.recover.records_replayed"] = float64(stats.RecordsReplayed)

	_, end = tr.start("linkindex.DurableIndex.Snapshot", 0, 0)
	t0 = time.Now()
	err = d.Snapshot()
	res.metrics["linkindex.snapshot.write_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	end()
	if err != nil {
		return err
	}
	snap := newestFile(dir, "snapshot-")
	res.metrics["linkindex.snapshot.bytes_per_entity"] = float64(fileSize(snap)) / float64(max(d.Len(), 1))
	for _, b := range batches[headN:] {
		if _, err := d.Apply(b); err != nil {
			return err
		}
	}
	liveBytes := 0
	for _, e := range d.Index().Entities() {
		b, _ := json.Marshal(e)
		liveBytes += len(b)
	}
	res.metrics["linkindex.disk_bytes_per_entity_byte"] = float64(dirBytes(dir)) / float64(max(liveBytes, 1))
	if err := d.Close(); err != nil {
		return err
	}

	_, end = tr.start("linkindex.RestoreFrom", 0, 0)
	t0 = time.Now()
	_, err = linkindex.RestoreFrom(snap, linkindex.RestoreOptions{})
	res.metrics["linkindex.recover.snapshot_load_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	end()
	return err
}

func globBytes(dir, pattern string) int64 {
	var n int64
	paths, _ := filepath.Glob(filepath.Join(dir, pattern))
	for _, p := range paths {
		n += fileSize(p)
	}
	return n
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// newestFile returns the lexically last file in dir whose name starts
// with prefix (snapshot names embed a zero-padded sequence number).
func newestFile(dir, prefix string) string {
	paths, _ := filepath.Glob(filepath.Join(dir, prefix+"*"))
	sort.Strings(paths)
	if len(paths) == 0 {
		return ""
	}
	return paths[len(paths)-1]
}

// ---------------------------------------------------------------------------
// genlinkd, linkrouter and the load generator: the HTTP side

func traceHTTPSide(r *run, res *result, c *corpus.Corpus) error {
	probes := probeSample(c, traceHTTP)
	httpP50 := func(base string, reqs []corpus.Request, want int) float64 {
		rec := newRecorder()
		for _, q := range reqs {
			rec.timed(r.c, base, "op", q, want)
		}
		res.absorb(rec)
		return percentile(ms(rec.lat["op"]), 50)
	}
	postReqs := make([]corpus.Request, len(probes))
	getReqs := make([]corpus.Request, len(probes))
	for i, p := range probes {
		body, _ := json.Marshal(p.Entity)
		postReqs[i] = corpus.Request{Method: "POST", Path: fmt.Sprintf("/match?k=%d", matchK), Body: body}
		getReqs[i] = corpus.Request{Method: "GET", Path: corpus.EntityPath(c.Entities[p.Source].ID)}
	}

	// One durable server holding the whole corpus: HTTP overhead,
	// start-up cost and the open-loop generator's lateness. Started
	// empty, exec → ready is what genlinkd itself adds to a recovery.
	d, err := r.single(true)
	if err != nil {
		return err
	}
	defer d.teardown()
	res.metrics["genlinkd.startup_ms"] = float64(d.front.readyAfter) / float64(time.Millisecond)
	if err := r.load(d, c); err != nil {
		return err
	}
	// What the HTTP layer costs a request, taken where the handler does
	// next to nothing (a map lookup and one entity's JSON): a round trip
	// of GET /entities/{id}. The difference between an HTTP /match and
	// the in-process Query it wraps measures the same thing, but as the
	// difference of two 7 ms medians from two processes it came out
	// negative as often as not.
	httpP50(d.front.base, getReqs, http.StatusOK) // warm the connections
	res.metrics["genlinkd.http_overhead_ms"] = httpP50(d.front.base, getReqs, http.StatusOK)

	openN := int(openRate * traceOpenSecs)
	stream := corpus.NewProbeStream(c, 98, matchK, externalShare)
	open := make([]corpus.Request, openN)
	for i := range open {
		open[i] = stream.Next().Request
	}
	orec, _, late := openLoop(openRate, openN, func(_, i int, due time.Time, rec *recorder) {
		rec.finish(r.c, d.front.base, "open", open[i], http.StatusOK, due)
	})
	res.absorb(orec)
	res.metrics["loadgen.late_ms"] = percentile(ms(late), 95)
	// Latency with queueing: each request counted from the instant it was
	// due. It is a per-layer figure, not an end-to-end one, because at half
	// the saturation rate a single burst of stolen CPU backs the queue up
	// and sets the tail: ten runs of the same code spread by 40 %.
	res.metrics["loadgen.open_p95_ms"] = percentile(ms(orec.lat["open"]), 95)

	d.teardown()

	// Router in front of two leaders holding the same corpus.
	rd2, err := r.routed()
	if err != nil {
		return err
	}
	defer rd2.teardown()
	if err := r.load(rd2, c); err != nil {
		return err
	}
	direct := make([]time.Duration, 0, len(getReqs))
	rec := newRecorder()
	for i, q := range getReqs {
		owner := rd2.servers[linkindex.PartitionOf(c.Entities[probes[i].Source].ID, len(rd2.servers))]
		t0 := time.Now()
		if _, ok := rec.timed(r.c, owner.base, "", q, http.StatusOK); ok {
			direct = append(direct, time.Since(t0))
		}
	}
	res.absorb(rec)
	res.metrics["linkrouter.hop_ms"] = httpP50(rd2.front.base, getReqs, http.StatusOK) - percentile(ms(direct), 50)

	for _, s := range rd2.servers { // warm each leader's value cache
		httpP50(s.base, postReqs, http.StatusOK)
	}
	slowest := make([]time.Duration, 0, len(postReqs))
	rec = newRecorder()
	for _, q := range postReqs {
		var worst time.Duration
		for _, s := range rd2.servers {
			t0 := time.Now()
			if _, ok := rec.timed(r.c, s.base, "", q, http.StatusOK); ok {
				worst = max(worst, time.Since(t0))
			}
		}
		slowest = append(slowest, worst)
	}
	res.absorb(rec)
	leg := percentile(ms(slowest), 50)
	res.metrics["linkrouter.slowest_leg_ms"] = leg
	res.metrics["linkrouter.merge_overhead_ms"] = httpP50(rd2.front.base, postReqs, http.StatusOK) - leg
	return nil
}
