package linkindex_test

import (
	"sync"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/experiments"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// TestBatchMatchEqualsServedQueries pins that batch matching and the
// served index are one matcher: on every paper dataset (seed 1), a
// single-shard index loaded with B and queried with every A entity at
// k = 0 returns exactly the links of batch matching A against B.
//
//   - The blocking ablation's probe rule has an edit bound (K = 1), so
//     the index and batch matching both serve it from the rule index,
//     whatever the blocker: its served links equal Match's with zero
//     Options (token blocking) and MatchParallel's over two workers under
//     every blocker.
//   - The same comparison over normLevenshtein has no bound, so both
//     serve it from the blocker. For the strategies whose batch and index
//     candidates are one definition (token, q-gram and their multi-pass
//     union), its served links equal MatchParallel's over two workers
//     (Match is its one-worker case).
//
// A is every s-th entity of the dataset's A side, at most maxProbes of
// them: B, and so every block and cap, is the whole B side, while the
// q-gram passes over NYT's and DBpedia's full A sides would take minutes
// under -race. The queries run from several goroutines at once, so under
// -race the shard's shared records and index are read concurrently, as
// MatchParallel's workers read B's.
func TestBatchMatchEqualsServedQueries(t *testing.T) {
	blockers := []matching.Blocker{
		matching.TokenBlocking(),
		matching.QGramBlocking(0),
		matching.MultiPass(matching.TokenBlocking(), matching.QGramBlocking(0)),
	}
	const maxProbes = 300
	for _, name := range experiments.DatasetNames() {
		ds := experiments.Dataset(name, 1)
		a := entity.NewSource(ds.A.Name)
		for i, stride := 0, (ds.A.Len()+maxProbes-1)/maxProbes; i < ds.A.Len(); i += stride {
			a.Add(ds.A.Entities[i])
		}
		bounded := experiments.ProbeRule(name)
		if _, ok := evalengine.Compile(bounded).EditBound(rule.MatchThreshold); !ok {
			t.Fatalf("%s: the probe rule %s has no edit bound", name, bounded)
		}
		bounds := serveAll(t, bounded, matching.Options{}, a, ds.B)
		if batch := matching.Match(bounded, a, ds.B, matching.Options{}); !linksEqual(batch, bounds) {
			t.Errorf("%s/rule index: Match %d links, served %d", name, len(batch), len(bounds))
		}
		unbounded := normalizedProbeRule(bounded)
		for _, bl := range blockers {
			opts := matching.Options{Blocker: bl}
			if batch := matching.MatchParallel(bounded, a, ds.B, opts, 2); !linksEqual(batch, bounds) {
				t.Errorf("%s/rule index/%s: batch %d links, served %d", name, bl.Name(), len(batch), len(bounds))
			}
			served := serveAll(t, unbounded, opts, a, ds.B)
			if batch := matching.MatchParallel(unbounded, a, ds.B, opts, 2); !linksEqual(batch, served) {
				t.Errorf("%s/%s: batch %d links, served %d", name, bl.Name(), len(batch), len(served))
			}
		}
	}
}

// normalizedProbeRule is the probe rule's comparison over
// normLevenshtein at θ 0.2, which has no edit bound.
func normalizedProbeRule(probe *rule.Rule) *rule.Rule {
	c := probe.Root.(*rule.ComparisonOp)
	r := rule.New(rule.NewComparison(c.InputA, c.InputB, similarity.NormalizedLevenshtein(), 0.2))
	if _, ok := evalengine.Compile(r).EditBound(rule.MatchThreshold); ok {
		panic("normLevenshtein has an edit bound")
	}
	return r
}

// serveAll loads b into a single-shard index serving r under opts,
// queries it with every entity of a at k = 0 from four goroutines, and
// returns the links sorted; it fails t when there are none.
func serveAll(t *testing.T, r *rule.Rule, opts matching.Options, a, b *entity.Source) []matching.Link {
	t.Helper()
	ix := linkindex.NewSharded(r, 1, opts)
	ix.BulkLoad(b.Entities)
	as := a.Entities
	perA := make([][]matching.Link, len(as))
	const goroutines = 4
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(as); i += goroutines {
				perA[i] = ix.Query(as[i], 0)
			}
		}()
	}
	wg.Wait()
	var served []matching.Link
	for _, ls := range perA {
		served = append(served, ls...)
	}
	matching.SortLinks(served)
	if len(served) == 0 {
		t.Fatalf("%s: no links served", r)
	}
	return served
}
