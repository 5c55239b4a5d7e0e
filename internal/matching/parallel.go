package matching

import (
	"runtime"
	"sync"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
)

// MatchParallel is Match with the A entities partitioned across workers
// (≤0 means GOMAXPROCS) over one shared immutable enumerator — there is
// no materialized pair list to partition. Per-entity candidate enumeration
// stays within one worker, so deduplication needs no cross-worker state,
// and both enumeration and scoring run inside the fan-out. B's scoring
// records are built once, before the fan-out, and shared read-only by
// the workers. Results are identical for every worker count: rule
// evaluation is pure and the combined link list is re-sorted.
func MatchParallel(r *rule.Rule, a, b *entity.Source, opts Options, workers int) []Link {
	eas, ebs := uniqueEntities(a.Entities), uniqueEntities(b.Entities)
	opts.normalize(len(ebs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(eas) {
		workers = len(eas)
	}
	en := newEnumerator(opts.Blocker, eas, ebs)
	compiled := evalengine.Compile(r)
	rbs := make(map[*entity.Entity]*evalengine.Record, len(ebs))
	for _, eb := range ebs {
		rbs[eb] = compiled.Record(eb)
	}
	if workers <= 1 {
		links := streamChunk(compiled, rbs, en, eas, opts)
		sortLinks(links)
		return links
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		links   []Link
		chunkSz = (len(eas) + workers - 1) / workers
	)
	for lo := 0; lo < len(eas); lo += chunkSz {
		hi := lo + chunkSz
		if hi > len(eas) {
			hi = len(eas)
		}
		wg.Add(1)
		go func(chunk []*entity.Entity) {
			defer wg.Done()
			local := streamChunk(compiled, rbs, en, chunk, opts)
			mu.Lock()
			links = append(links, local...)
			mu.Unlock()
		}(eas[lo:hi])
	}
	wg.Wait()
	sortLinks(links)
	return links
}
