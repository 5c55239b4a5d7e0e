package linkindex_test

import (
	"sync"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/experiments"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
)

// TestBatchMatchEqualsServedQueries pins that batch matching and the
// served index are one matcher: on every paper dataset (seed 1, the
// blocking ablation's probe rule), for the strategies whose batch and
// index candidates are one definition (token, q-gram and their
// multi-pass union), MatchParallel over two workers (Match is its
// one-worker case) returns exactly the links of a single-shard index loaded with B and queried with every A entity at
// k = 0. A is every s-th entity of the dataset's A side, at most
// maxProbes of them: B, and so every block and cap, is the whole B side,
// while the q-gram passes over NYT's and DBpedia's full A sides would
// take minutes under -race. The queries run from several goroutines at
// once, so under -race the shard's shared records and block index are
// read concurrently, as MatchParallel's workers read B's.
func TestBatchMatchEqualsServedQueries(t *testing.T) {
	blockers := []matching.Blocker{
		matching.TokenBlocking(),
		matching.QGramBlocking(0),
		matching.MultiPass(matching.TokenBlocking(), matching.QGramBlocking(0)),
	}
	const maxProbes = 300
	for _, name := range experiments.DatasetNames() {
		ds := experiments.Dataset(name, 1)
		r := experiments.ProbeRule(name)
		a := entity.NewSource(ds.A.Name)
		for i, stride := 0, (ds.A.Len()+maxProbes-1)/maxProbes; i < ds.A.Len(); i += stride {
			a.Add(ds.A.Entities[i])
		}
		for _, bl := range blockers {
			opts := matching.Options{Blocker: bl}
			ix := linkindex.NewSharded(r, 1, opts)
			ix.BulkLoad(ds.B.Entities)
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
				t.Fatalf("%s/%s: no links served", name, bl.Name())
			}
			if batch := matching.MatchParallel(r, a, ds.B, opts, 2); !linksEqual(batch, served) {
				t.Errorf("%s/%s: batch %d links, served %d", name, bl.Name(), len(batch), len(served))
			}
		}
	}
}
