package matching

import (
	"runtime"
	"sync"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
)

// MatchParallel is Match with the A entities partitioned across workers
// (≤0 means GOMAXPROCS) over one shared immutable enumeration of B,
// loaded once into the rule's CandidateSource, the one the service keeps
// per shard. Each A entity is one probe of ScoreCandidates, so its
// candidate enumeration and deduplication stay within one worker. B's
// scoring records are built once, before the fan-out, by the slots the
// enumeration yields (positions in B), and shared read-only by the
// workers (probeRecord). Results are identical for every worker count:
// rule evaluation is pure and the per-entity links are merged in A's
// order and sorted.
func MatchParallel(r *rule.Rule, a, b *entity.Source, opts Options, workers int) []Link {
	eas, _ := uniqueEntities(a.Entities)
	ebs, slotOf := uniqueEntities(b.Entities)
	opts.normalize(len(ebs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(eas)), 1)
	c := evalengine.Compile(r)
	rbs := make([]*evalengine.Record, len(ebs))
	for s, eb := range ebs {
		rbs[s] = c.Record(eb)
	}
	cands := NewCandidateSource(c, opts).batch(eas, ebs, rbs)
	perA := make([][]Link, len(eas))
	chunk := (len(eas) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(eas); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				probe := probeRecord(c, ebs, rbs, slotOf, eas[i])
				perA[i], _ = ScoreCandidates(c, probe, eas[i], cands(probe), opts.MaxBlockSize, rbs, opts.Threshold, 0)
			}
		}(lo, min(lo+chunk, len(eas)))
	}
	wg.Wait()
	return merged(perA)
}
