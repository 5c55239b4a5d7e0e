package linkindex_test

import (
	"fmt"
	"math/rand"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/experiments"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// The exactness gate of the rule index. A rule with an edit bound is
// served from each shard's rule index, whose verified candidates are
// every stored entity that can still reach the threshold, so the served
// links are brute force's: every stored entity scored against the probe,
// kept at or above the threshold, best k. These tests hold the index to
// exactly that, for external probes (Query) and stored ones (QueryID).

// bruteForce is the reference: for each probe, MatchCartesian's links of
// the probe against corpus (every pair scored in full, the probe's own
// ID skipped), in the one link order.
func bruteForce(r *rule.Rule, probes, corpus []*entity.Entity) map[string][]matching.Link {
	a, b := entity.NewSource("probes"), entity.NewSource("corpus")
	for _, e := range probes {
		a.Add(e)
	}
	for _, e := range corpus {
		b.Add(e)
	}
	out := make(map[string][]matching.Link, len(probes))
	for _, l := range matching.MatchCartesian(r, a, b, matching.Options{}) {
		out[l.AID] = append(out[l.AID], l)
	}
	return out
}

// best returns every probe's best k links, all of them when k ≤ 0.
func best(links map[string][]matching.Link, k int) map[string][]matching.Link {
	out := make(map[string][]matching.Link, len(links))
	for id, ls := range links {
		if k > 0 && len(ls) > k {
			ls = ls[:k]
		}
		out[id] = ls
	}
	return out
}

// interpreted is bruteForce through Rule.Evaluate, the tree-walk, for the
// small corpora of the churn and fuzz checks: it shares no code with the
// compiled scorer the index runs.
func interpreted(r *rule.Rule, probe *entity.Entity, corpus map[string]*entity.Entity, k int) []matching.Link {
	var links []matching.Link
	for id, e := range corpus {
		if id == probe.ID {
			continue
		}
		if s := r.Evaluate(probe, e); s >= rule.MatchThreshold {
			links = append(links, matching.Link{AID: probe.ID, BID: id, Score: s})
		}
	}
	matching.SortLinks(links)
	if k > 0 && len(links) > k {
		links = links[:k]
	}
	return links
}

// servedLinks answers every probe, stored ones through QueryID and the
// rest through Query, at k.
func servedLinks(t *testing.T, ix *linkindex.ShardedIndex, probes []*entity.Entity, stored bool, k int) map[string][]matching.Link {
	t.Helper()
	out := make(map[string][]matching.Link, len(probes))
	for _, p := range probes {
		if !stored {
			out[p.ID] = ix.Query(p, k)
			continue
		}
		links, ok := ix.QueryID(p.ID, k)
		if !ok {
			t.Fatalf("QueryID(%s): not stored", p.ID)
		}
		out[p.ID] = links
	}
	return out
}

// checkEqual fails t where the served links of a probe are not the
// reference's, and returns the number of links.
func checkEqual(t *testing.T, what string, probes []*entity.Entity, served, want map[string][]matching.Link) int {
	t.Helper()
	n := 0
	for _, p := range probes {
		if !linksEqual(served[p.ID], want[p.ID]) {
			t.Fatalf("%s: probe %s served %v, brute force %v", what, p.ID, served[p.ID], want[p.ID])
		}
		n += len(want[p.ID])
	}
	return n
}

// editBound returns the rule's edit bound K at the match threshold,
// failing t unless it is want.
func editBound(t *testing.T, r *rule.Rule, want int) {
	t.Helper()
	if eb, ok := evalengine.Compile(r).EditBound(rule.MatchThreshold); !ok || eb.K != want {
		t.Fatalf("rule %s: EditBound K = %d, %v; want %d", r, eb.K, ok, want)
	}
}

// every returns every s-th entity of es, at most n of them.
func every(es []*entity.Entity, n int) []*entity.Entity {
	var out []*entity.Entity
	for i, stride := 0, (len(es)+n-1)/n; i < len(es); i += stride {
		out = append(out, es[i])
	}
	return out
}

func TestServedEqualsBruteForce(t *testing.T) {
	// The six paper datasets (seed 1) with the blocking ablation's probe
	// rule, K = 1: B stored over two shards, A entities as external
	// probes, B entities as stored ones, every link and the best three.
	t.Run("datasets", func(t *testing.T) {
		for _, name := range experiments.DatasetNames() {
			ds := experiments.Dataset(name, 1)
			r := experiments.ProbeRule(name)
			editBound(t, r, 1)
			ix := linkindex.NewSharded(r, 2, matching.Options{Blocker: matching.MultiPass()})
			ix.BulkLoad(ds.B.Entities)
			external, stored := every(ds.A.Entities, 150), every(ds.B.Entities, 50)
			wantExternal, wantStored := bruteForce(r, external, ds.B.Entities), bruteForce(r, stored, ds.B.Entities)
			links := 0
			for _, k := range []int{0, 3} {
				links += checkEqual(t, name+"/Query", external, servedLinks(t, ix, external, false, k), best(wantExternal, k))
				checkEqual(t, name+"/QueryID", stored, servedLinks(t, ix, stored, true, k), best(wantStored, k))
			}
			if links == 0 {
				t.Errorf("%s: no links", name)
			}
		}
	})

	// The benchmark rig's rule, K = 6, on its cora-x corpus at 10⁴ over
	// two shards: 300 stored probes, every link. The served multipass
	// blocker found 500 of these 507.
	t.Run("rig", func(t *testing.T) {
		const n = 10000
		es := coraChunks(n)
		r := rigCoraRule(similarity.Levenshtein(), similarity.Date())
		editBound(t, r, 6)
		ix := linkindex.NewSharded(r, 2, matching.Options{Blocker: matching.MultiPass()})
		ix.BulkLoad(es)
		probes := make([]*entity.Entity, 300)
		for i := range probes {
			probes[i] = es[i*(n/len(probes))]
		}
		if got := checkEqual(t, "rig", probes, servedLinks(t, ix, probes, true, 0), bruteForce(r, probes, es)); got != 507 {
			t.Errorf("rig: %d links, want 507", got)
		}
	})

	// A K = 3 wmean rule under churn: batches of upserts and deletes over
	// three shards, and after each, stored and external probes against
	// the interpreted rule over the survivors, every link and the best
	// two.
	t.Run("churn", func(t *testing.T) {
		r := diffWMeanRule()
		editBound(t, r, 3)
		checkChurn(t, r, rand.New(rand.NewSource(3)), 3, 60)
	})
}

// checkChurn applies rounds random write batches to a shards-shard index
// serving r, and after each holds every stored probe (through Query and
// QueryID) and one external probe to the interpreted rule over the
// survivors. It returns the number of links checked.
func checkChurn(t *testing.T, r *rule.Rule, rng *rand.Rand, shards, rounds int) int {
	t.Helper()
	ix := linkindex.NewSharded(r, shards, matching.Options{})
	survivors := make(map[string]*entity.Entity)
	links := 0
	for round := 0; round < rounds; round++ {
		var b linkindex.Batch
		touched := make(map[string]bool) // a delete would beat a later upsert
		for range 1 + rng.Intn(6) {
			id := fmt.Sprintf("e%d", rng.Intn(40))
			if touched[id] {
				continue
			}
			touched[id] = true
			if _, ok := survivors[id]; ok && rng.Intn(3) == 0 {
				b.Deletes = append(b.Deletes, id)
				delete(survivors, id)
				continue
			}
			e := diffEntity(rng, id)
			b.Upserts = append(b.Upserts, e)
			survivors[id] = e
		}
		ix.Apply(b)
		if err := ix.CheckShardCounts(); err != nil {
			t.Fatal(err)
		}
		probes := []*entity.Entity{diffEntity(rng, "external-probe")}
		for _, id := range sortedIDsOfMap(survivors) {
			probes = append(probes, survivors[id])
		}
		for _, k := range []int{0, 2} {
			for i, p := range probes {
				want := interpreted(r, p, survivors, k)
				served := [][]matching.Link{ix.Query(p, k)}
				if i > 0 {
					byID, _ := ix.QueryID(p.ID, k)
					served = append(served, byID)
				}
				for _, got := range served {
					if !linksEqual(got, want) {
						t.Fatalf("round %d, rule %s, k = %d: probe %s served %v, brute force %v", round, r, k, p.ID, got, want)
					}
				}
				links += len(want)
			}
		}
	}
	return links
}

// FuzzServedEqualsBruteForce draws a random rule over the registry's
// measures until it has an edit bound at the match threshold, then holds
// the index serving it to brute force through random write batches
// (checkChurn), and batch matching too (checkBatch).
func FuzzServedEqualsBruteForce(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		r := boundedRule(rng)
		checkChurn(t, r, rng, 1+rng.Intn(3), 12)
		checkBatch(t, r, rng)
	})
}

// checkBatch holds MatchParallel of r, under a random blocker and cap,
// to the interpreted rule: B is a random corpus and A the same corpus
// (a self-join) plus a few external probes.
func checkBatch(t *testing.T, r *rule.Rule, rng *rand.Rand) {
	t.Helper()
	a, b := entity.NewSource("a"), entity.NewSource("b")
	corpus := make(map[string]*entity.Entity)
	for i := range 30 {
		e := diffEntity(rng, fmt.Sprintf("e%d", i))
		corpus[e.ID] = e
		a.Add(e)
		b.Add(e)
	}
	for i := range 5 {
		a.Add(diffEntity(rng, fmt.Sprintf("external-%d", i)))
	}
	var want []matching.Link
	for _, p := range a.Entities {
		want = append(want, interpreted(r, p, corpus, 0)...)
	}
	matching.SortLinks(want)
	names := matching.BlockerNames()
	opts := matching.Options{Blocker: matching.BlockerByName(names[rng.Intn(len(names))]), MaxBlockSize: rng.Intn(3)}
	if got := matching.MatchParallel(r, a, b, opts, 2); !linksEqual(got, want) {
		t.Fatalf("rule %s, blocker %s: batch %d links, brute force %d", r, opts.Blocker.Name(), len(got), len(want))
	}
}

// boundedRule draws random rules of one to three comparisons under a
// random aggregation — a levenshtein on names or titles, lowercased or
// not, and others over every registry measure — until one has an edit
// bound at the match threshold.
func boundedRule(rng *rand.Rand) *rule.Rule {
	props := []string{"name", "title", "year"}
	measures := similarity.Names()
	value := func(p string) rule.ValueOp {
		var op rule.ValueOp = rule.NewProperty(p)
		switch rng.Intn(3) {
		case 0:
			op = rule.NewTransform(transform.LowerCase(), op)
		case 1:
			op = rule.NewTransform(transform.Tokenize(), op)
		}
		return op
	}
	for {
		p := props[rng.Intn(2)]
		ops := []rule.SimilarityOp{rule.NewComparison(value(p), value(p), similarity.Levenshtein(), float64(1+rng.Intn(12)))}
		for range rng.Intn(3) {
			p := props[rng.Intn(len(props))]
			ops = append(ops, rule.NewComparison(value(p), value(p), similarity.ByName(measures[rng.Intn(len(measures))]), rng.Float64()*4))
		}
		for _, op := range ops {
			op.(*rule.ComparisonOp).SetWeight(1 + rng.Intn(4))
		}
		aggs := rule.CoreAggregators()
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		r := rule.New(rule.NewAggregation(aggs[rng.Intn(len(aggs))], ops...))
		if _, ok := evalengine.Compile(r).EditBound(rule.MatchThreshold); ok {
			return r
		}
	}
}
