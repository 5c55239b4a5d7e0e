package linkindex_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// rigCoraRule is the benchmark rig's rule (benchmark/rules/cora.json) as a
// literal — wmean of title edit distance (θ 8, weight 4), author-token
// jaccard (θ 0.8) and date (θ 400 days) — over the given title and date
// measures.
func rigCoraRule(levenshtein, date similarity.Measure) *rule.Rule {
	lower := func(p string) rule.ValueOp { return rule.NewTransform(transform.LowerCase(), rule.NewProperty(p)) }
	title := rule.NewComparison(lower("title"), lower("title"), levenshtein, 8)
	title.SetWeight(4)
	authors := rule.NewComparison(
		rule.NewTransform(transform.Tokenize(), lower("author")),
		rule.NewTransform(transform.Tokenize(), lower("author")),
		similarity.Jaccard(), 0.8)
	dates := rule.NewComparison(rule.NewProperty("date"), rule.NewProperty("date"), date, 400)
	return rule.New(rule.NewAggregation(rule.WMean(), title, authors, dates))
}

// coraN is the corpus size of BenchmarkQueryCoraRule and
// BenchmarkApplyCoraRule: go test -bench CoraRule -cora-n 100000 runs
// them at 10⁵.
var coraN = flag.Int("cora-n", 10000, "entities in the Cora-rule benchmarks' corpus")

// coraChunks returns n entities of datagen Cora chunks, each chunk's IDs
// prefixed with its number, as the rig's cora-x corpus is built.
func coraChunks(n int) []*entity.Entity {
	var es []*entity.Entity
	for chunk := 0; len(es) < n; chunk++ {
		for _, e := range datagen.Cora(1<<12 + int64(chunk)).A.Entities {
			if len(es) == n {
				break
			}
			re := e.Clone()
			re.ID = fmt.Sprintf("s%d/%s", chunk, e.ID)
			es = append(es, re)
		}
	}
	return es
}

// BenchmarkQueryCoraRule measures the served query path without the HTTP
// stack on the rig's shapes: 10,000 entities of Cora chunks (100,000
// with -cora-n), the rig's rule, multipass configured as the rig does,
// 2 shards, k = 10. The rule's title comparison bounds the edit distance
// (K = 6), so the shards serve it from their rule indexes and the
// blocker goes unused. One op is one query: a stored ID through QueryID,
// or, for Query, a re-keyed copy of a stored entity, as an external
// probe. Besides ns/op and allocs/op it reports the heap the loaded
// index retains per entity beyond the entities the test holds
// (heap-B/entity: rule indexes, records and the shards' tables), the
// heap an index retains per entity when it holds the corpus as genlinkd
// does (served-B/entity: decoded from json.Marshal's bytes by the
// service's decoder and loaded, no other reference left) and, per query,
// from one untimed pass over the same
// probes on an index whose rule counts its work: the edit-bound check's
// funnel (linkindex.Funnel) — candidates proposed, of those the ones the
// letter-count sketch rejected, and the bounded edit distances the check
// ran (myers) — and then scoring's (linkindex.Work): candidates scored
// to completion, edit distances scoring ran and values parsed.
func BenchmarkQueryCoraRule(b *testing.B) {
	const shards, k, probes = 2, 10, 200
	n := *coraN
	es := coraChunks(n)
	opts := matching.Options{Blocker: matching.BlockerByName("multipass")}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := linkindex.NewSharded(rigCoraRule(similarity.Levenshtein(), similarity.Date()), shards, opts)
	ix.BulkLoad(es)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heapPerEntity := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	body, err := json.Marshal(es)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	served := loadEncoded(b, body, shards, opts)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(served)
	runtime.KeepAlive(body)
	servedPerEntity := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	var work linkindex.Work
	counted := linkindex.NewSharded(rigCoraRule(linkindex.CountingLevenshtein(&work), linkindex.CountingDate(&work)), shards, opts)
	counted.BulkLoad(es)

	stored := make([]string, probes)
	external := make([]*entity.Entity, probes)
	for i := range probes {
		e := es[i*(n/probes)]
		stored[i] = e.ID
		external[i] = e.Clone()
		external[i].ID = fmt.Sprintf("probe/%d", i)
	}
	modes := []struct {
		name  string
		query func(ix *linkindex.ShardedIndex, i int)
		probe func(i int) *entity.Entity
	}{
		{"QueryID", func(ix *linkindex.ShardedIndex, i int) { ix.QueryID(stored[i], k) }, func(i int) *entity.Entity { return ix.Get(stored[i]) }},
		{"Query", func(ix *linkindex.ShardedIndex, i int) { ix.Query(external[i], k) }, func(i int) *entity.Entity { return external[i] }},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			var funnel linkindex.Funnel
			for i := range probes {
				f := counted.Funnel(mode.probe(i))
				funnel.Proposed += f.Proposed
				funnel.SketchRejected += f.SketchRejected
				funnel.Checked += f.Checked
				funnel.Mismatched += f.Mismatched
			}
			if funnel.Mismatched != 0 {
				b.Fatalf("the funnel's replay disagrees with the edit-bound check on %d candidates", funnel.Mismatched)
			}
			work.Reset()
			for i := range probes {
				mode.query(counted, i)
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				mode.query(ix, i%probes)
				i++
			}
			b.ReportMetric(heapPerEntity, "heap-B/entity")
			b.ReportMetric(servedPerEntity, "served-B/entity")
			b.ReportMetric(float64(funnel.Proposed)/probes, "proposed/query")
			b.ReportMetric(float64(funnel.SketchRejected)/probes, "sketch-rejected/query")
			b.ReportMetric(float64(funnel.Checked)/probes, "myers/query")
			b.ReportMetric(float64(work.Completed.Load())/probes, "scored/query")
			b.ReportMetric(float64(work.EditDists.Load())/probes, "editdists/query")
			b.ReportMetric(float64(work.Parses.Load())/probes, "parses/query")
		})
	}
}

// loadEncoded loads the entity list body into a new index of the rig's
// rule the way a node loads a POST /entities body: through the entity
// decoder, each entity with its canonical bytes, in one Apply batch.
func loadEncoded(b *testing.B, body []byte, shards int, opts matching.Options) *linkindex.ShardedIndex {
	b.Helper()
	es, err := entity.DecodeEncodedList(body)
	if err != nil {
		b.Fatal(err)
	}
	ix := linkindex.NewSharded(rigCoraRule(similarity.Levenshtein(), similarity.Date()), shards, opts)
	ix.Apply(linkindex.Batch{Encoded: es})
	return ix
}

// BenchmarkApplyCoraRule measures the served write path without the HTTP
// stack or the log, on BenchmarkQueryCoraRule's shapes: the rig's rule,
// served from the rule indexes, 2 shards, Cora chunks. load fills an
// empty index with 10,000 entities (-cora-n) in 64-entity Apply batches
// (one op is the whole load) and reports the heap the loaded index
// retains per entity (heap-B/entity). update64 replaces 64 stored
// entities per op with other versions, in one Apply batch, at that
// size. addremove is one single-op Add and one single-op Remove of an
// entity not otherwise stored: the in-package half of a single-op write.
func BenchmarkApplyCoraRule(b *testing.B) {
	const shards, batch = 2, 64
	n := *coraN
	es := coraChunks(n + batch)
	live, extra := es[:n], es[n:]
	// alt[i] is a second version of live[i]: another record's values
	// under live[i]'s ID.
	alt := make([]*entity.Entity, n)
	for i, e := range live {
		v := live[(i+n/2)%n].Clone()
		v.ID = e.ID
		alt[i] = v
	}
	r := rigCoraRule(similarity.Levenshtein(), similarity.Date())
	opts := matching.Options{Blocker: matching.BlockerByName("multipass")}
	load := func() *linkindex.ShardedIndex {
		ix := linkindex.NewSharded(r, shards, opts)
		for i := 0; i < n; i += batch {
			ix.Apply(linkindex.Batch{Upserts: live[i:min(i+batch, n)]})
		}
		return ix
	}
	b.Run("load", func(b *testing.B) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ix := load()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ix)
		b.ReportAllocs()
		for b.Loop() {
			load()
		}
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(n), "heap-B/entity")
	})
	b.Run("update64", func(b *testing.B) {
		ix := load()
		cur, next := append([]*entity.Entity(nil), live...), alt
		off := 0
		b.ReportAllocs()
		for b.Loop() {
			ix.Apply(linkindex.Batch{Upserts: next[off : off+batch]})
			for i := off; i < off+batch; i++ {
				cur[i], next[i] = next[i], cur[i]
			}
			if off += batch; off+batch > n {
				off = 0
			}
		}
	})
	b.Run("addremove", func(b *testing.B) {
		ix := load()
		i := 0
		b.ReportAllocs()
		for b.Loop() {
			e := extra[i%len(extra)]
			ix.Add(e)
			ix.Remove(e.ID)
			i++
		}
	})
}

// TestFunnelReplaysCheck holds the funnel BenchmarkQueryCoraRule
// reports to the check it counts: on every candidate of stored and
// external probes, the replay's verdict is EditBound.Within's, and the
// counts are not trivially zero, so the sketch both rejects and admits.
func TestFunnelReplaysCheck(t *testing.T) {
	const n, shards, probes = 2000, 2, 100
	es := coraChunks(n)
	ix := linkindex.NewSharded(rigCoraRule(similarity.Levenshtein(), similarity.Date()), shards, matching.Options{})
	ix.BulkLoad(es)
	var sum linkindex.Funnel
	for i := range probes {
		e := es[i*(n/probes)]
		external := e.Clone()
		external.ID = fmt.Sprintf("probe/%d", i)
		for _, p := range []*entity.Entity{ix.Get(e.ID), external} {
			f := ix.Funnel(p)
			sum.Proposed += f.Proposed
			sum.SketchRejected += f.SketchRejected
			sum.Checked += f.Checked
			sum.Mismatched += f.Mismatched
		}
	}
	if sum.Mismatched != 0 {
		t.Fatalf("funnel %+v: the replay disagrees with EditBound.Within on %d candidates", sum, sum.Mismatched)
	}
	if sum.SketchRejected == 0 || sum.SketchRejected == sum.Proposed || sum.Checked == 0 {
		t.Fatalf("funnel %+v: the sketch rejected no candidate, or every one, or no distance ran", sum)
	}
}

// TestWorkIndependentOfOrder pins that the per-query counters
// BenchmarkQueryCoraRule reports depend on the corpus and the probes, not
// on the order candidates are enumerated in: one corpus loaded forward
// and reversed takes other slots, so every posting list runs in another
// order, yet every counter is equal. k = 0 keeps every link, so no
// probe's floor rises with the links it has seen.
func TestWorkIndependentOfOrder(t *testing.T) {
	const n, shards, probes = 2000, 2, 100
	es := coraChunks(n)
	reversed := slices.Clone(es)
	slices.Reverse(reversed)
	count := func(load []*entity.Entity) [4]int64 {
		var work linkindex.Work
		ix := linkindex.NewSharded(rigCoraRule(linkindex.CountingLevenshtein(&work), linkindex.CountingDate(&work)), shards, matching.Options{})
		ix.BulkLoad(load)
		proposed := 0
		for i := range probes {
			proposed += ix.Funnel(es[i*(n/probes)]).Proposed
		}
		work.Reset()
		for i := range probes {
			e := es[i*(n/probes)]
			ix.QueryID(e.ID, 0)
			external := e.Clone()
			external.ID = fmt.Sprintf("probe/%d", i)
			ix.Query(external, 0)
		}
		return [4]int64{int64(proposed), work.Completed.Load(), work.EditDists.Load(), work.Parses.Load()}
	}
	forward, backward := count(es), count(reversed)
	if forward != backward {
		t.Fatalf("proposed, completed, edit distances, parses: %v loaded forward, %v reversed", forward, backward)
	}
	if forward[1] == 0 || forward[1] == forward[2] {
		t.Fatalf("counts %v: no candidate scored to completion, or none declined by its bound", forward)
	}
}

// BenchmarkRecoverCoraRule measures Recover on a directory shaped like
// the rig's ingest-durable one after a kill -9: the rig's rule, the
// default shard count, and a history of 64-entity Apply batches of Cora
// chunks in which a quarter of the upserts update a stored entity (with
// another entity's values) and 5 % of the ops delete one — a snapshot
// taken once 29,000 entities are stored, then a 375-record log tail.
// The directory is built once per variant; one op is one Recover. Besides
// ns/op and allocs/op it reports the milliseconds per op of each step,
// timed inside Recover (RecoverSteps): reading the snapshot file,
// scanning its header and cutting its sections apart, decoding them,
// queuing them to install into the index, and replaying the tail while
// they install (Recover does not wait for the sections), the CPU time
// per op, user and system on every core (cpu-ms/op, cpuTime), and the
// heap objects one more recovered index retains per stored entity
// (objects/entity). plain is the rig's corpus, whose values
// hold nothing json.Marshal escapes; escaped appends " & é" to every
// title, so each title goes through the decoder's unescaping.
func BenchmarkRecoverCoraRule(b *testing.B) {
	const live, tail, batch = 29_000, 375, 64
	for _, variant := range []struct {
		name  string
		title func(string) string
	}{
		{"plain", func(t string) string { return t }},
		{"escaped", func(t string) string { return t + " & é" }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			dir := b.TempDir()
			buildRecoverDir(b, dir, live, tail, batch, variant.title)
			b.ReportAllocs()
			stop := linkindex.RecoverSteps()
			cpu0 := cpuTime(b)
			for b.Loop() {
				d, _, err := linkindex.Recover(dir, linkindex.DurableOptions{SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				d.Close()
			}
			b.ReportMetric(float64((cpuTime(b)-cpu0).Microseconds())/1000/float64(b.N), "cpu-ms/op")
			steps := stop()
			for _, step := range []string{"read", "scan", "decode", "install", "replay"} {
				b.ReportMetric(float64(steps[step].Microseconds())/1000/float64(b.N), step+"-ms")
			}
			b.ReportMetric(objectsPerEntity(b, dir), "objects/entity")
		})
	}
}

// cpuTime returns the user and system CPU time the process has used
// (getrusage(RUSAGE_SELF)): what Recover spends on every core, which
// its wall time on a loaded host does not repeat.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// objectsPerEntity recovers dir and returns the heap objects the
// recovered index retains per stored entity.
func objectsPerEntity(b *testing.B, dir string) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, _, err := linkindex.Recover(dir, linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer d.Close()
	return float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(d.Len())
}

// buildRecoverDir writes BenchmarkRecoverCoraRule's durable directory:
// batches of Cora-chunk entities, titles rewritten by title, until live
// entities are stored, a snapshot, then tail more batches, and a close
// without a snapshot, as a kill -9 leaves the log.
func buildRecoverDir(b *testing.B, dir string, live, tail, batch int, title func(string) string) {
	b.Helper()
	pool := coraChunks(2 * live)
	for _, e := range pool {
		if ts := e.Properties["title"]; len(ts) > 0 {
			ts[0] = title(ts[0])
		}
	}
	ix := linkindex.NewSharded(rigCoraRule(similarity.Levenshtein(), similarity.Date()), 0, matching.Options{Blocker: matching.BlockerByName("multipass")})
	d, err := linkindex.NewDurable(dir, ix, linkindex.DurableOptions{Fsync: linkindex.FsyncIntervalPolicy, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var ids []string // stored IDs, in no order
	next := 0
	write := func() {
		var bt linkindex.Batch
		for range batch {
			switch r := rng.Float64(); {
			case r < 0.05 && len(ids) > 0:
				j := rng.Intn(len(ids))
				bt.Deletes = append(bt.Deletes, ids[j])
				ids[j] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			case r < 0.30 && len(ids) > 0:
				v := pool[rng.Intn(next)].Clone()
				v.ID = ids[rng.Intn(len(ids))]
				bt.Upserts = append(bt.Upserts, v)
			default:
				bt.Upserts = append(bt.Upserts, pool[next])
				ids = append(ids, pool[next].ID)
				next++
			}
		}
		if _, err := d.Apply(bt); err != nil {
			b.Fatal(err)
		}
	}
	for d.Len() < live {
		write()
	}
	if err := d.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for range tail {
		write()
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}
