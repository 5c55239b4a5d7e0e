package evalengine_test

import (
	"math/rand"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// fixtureRefs builds a small deterministic link set: positives share the
// lowercased name, negatives do not.
func fixtureRefs() *entity.ReferenceLinks {
	names := []string{"Alice", "Bob", "Carol", "Dave"}
	refs := &entity.ReferenceLinks{}
	mk := func(id, name string) *entity.Entity {
		e := entity.New(id)
		e.Add("name", name)
		return e
	}
	for i, n := range names {
		a := mk("a"+n, n)
		b := mk("b"+n, n+" ") // trailing space: transformations have work to do
		refs.Positive = append(refs.Positive, entity.Pair{A: a, B: b})
		other := names[(i+1)%len(names)]
		refs.Negative = append(refs.Negative, entity.Pair{A: a, B: mk("x"+other, other)})
	}
	return refs
}

func nameRule(threshold float64) *rule.Rule {
	return rule.New(rule.NewComparison(
		rule.NewTransform(transform.Trim(), rule.NewProperty("name")),
		rule.NewTransform(transform.Trim(), rule.NewProperty("name")),
		similarity.Levenshtein(), threshold))
}

func TestEngineMatchesKnownConfusion(t *testing.T) {
	refs := fixtureRefs()
	eng := evalengine.New(refs, evalengine.Options{})
	got := eng.Evaluate(nameRule(0.5))
	want := evalengine.Counts{TP: 4, TN: 4}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
}

func TestEngineCrossGenerationReuse(t *testing.T) {
	refs := fixtureRefs()
	eng := evalengine.New(refs, evalengine.Options{})
	r := nameRule(0.5)
	eng.EvaluateBatch([]*rule.Rule{r})
	after1 := eng.Stats()
	if after1.DistComputed == 0 {
		t.Fatal("first generation must compute distance vectors")
	}
	// The clone shares every signature: generation 2 must be pure cache
	// hits.
	eng.EvaluateBatch([]*rule.Rule{r.Clone(), r.Clone()})
	after2 := eng.Stats()
	if after2.DistComputed != after1.DistComputed {
		t.Fatalf("cloned generation recomputed distances: %d -> %d",
			after1.DistComputed, after2.DistComputed)
	}
	if after2.DistHits <= after1.DistHits {
		t.Fatal("cloned generation must hit the cache")
	}
}

func TestEngineThresholdVariantsShareDistances(t *testing.T) {
	refs := fixtureRefs()
	eng := evalengine.New(refs, evalengine.Options{})
	// Same measure and value subtrees, five thresholds: one distance
	// vector total.
	batch := []*rule.Rule{nameRule(0.5), nameRule(1), nameRule(2), nameRule(3), nameRule(4)}
	eng.EvaluateBatch(batch)
	if got := eng.Stats().DistComputed; got != 1 {
		t.Fatalf("threshold variants computed %d distance vectors, want 1", got)
	}
}

func TestEngineEviction(t *testing.T) {
	refs := fixtureRefs()
	eng := evalengine.New(refs, evalengine.Options{})
	eng.SetLimits(0, 0, 1)
	eng.EvaluateBatch([]*rule.Rule{nameRule(0.5)})
	if eng.Stats().DistVectors != 1 {
		t.Fatalf("dist vectors = %d, want 1", eng.Stats().DistVectors)
	}
	// A different rule two generations in a row ages the first entry out.
	other := rule.New(rule.NewComparison(rule.NewProperty("name"), rule.NewProperty("name"),
		similarity.Jaccard(), 0.5))
	eng.EvaluateBatch([]*rule.Rule{other})
	eng.EvaluateBatch([]*rule.Rule{other.Clone()})
	if eng.Stats().DistVectors != 1 {
		t.Fatalf("stale entry not evicted: %d vectors", eng.Stats().DistVectors)
	}
}

func TestEngineHardCap(t *testing.T) {
	refs := fixtureRefs()
	eng := evalengine.New(refs, evalengine.Options{})
	eng.SetLimits(2, 0, 100)
	// Three distinct measures → three distance vectors, capped at two.
	rules := []*rule.Rule{
		nameRule(1),
		rule.New(rule.NewComparison(rule.NewProperty("name"), rule.NewProperty("name"), similarity.Jaccard(), 0.5)),
		rule.New(rule.NewComparison(rule.NewProperty("name"), rule.NewProperty("name"), similarity.Dice(), 0.5)),
	}
	eng.EvaluateBatch(rules)
	if got := eng.Stats().DistVectors; got > 2 {
		t.Fatalf("cache size %d exceeds cap 2", got)
	}
}

func TestEngineEmptyAndNilInputs(t *testing.T) {
	eng := evalengine.New(nil, evalengine.Options{})
	if got := eng.Evaluate(nameRule(1)); got != (evalengine.Counts{}) {
		t.Fatalf("nil refs counts = %+v", got)
	}
	refs := fixtureRefs()
	eng = evalengine.New(refs, evalengine.Options{})
	if got := eng.Evaluate(nil); got != (evalengine.Counts{FN: 4, TN: 4}) {
		t.Fatalf("nil rule counts = %+v", got)
	}
	if got := eng.Evaluate(&rule.Rule{}); got != (evalengine.Counts{FN: 4, TN: 4}) {
		t.Fatalf("empty rule counts = %+v", got)
	}
	if out := eng.EvaluateBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d counts", len(out))
	}
}

func TestEvaluateOnce(t *testing.T) {
	refs := fixtureRefs()
	got := evalengine.EvaluateOnce(nameRule(0.5), refs)
	if got != (evalengine.Counts{TP: 4, TN: 4}) {
		t.Fatalf("counts = %+v", got)
	}
}

func TestCompiledDeduplicatesSubtrees(t *testing.T) {
	// Both comparisons share the lowerCase(name) subtree; min/max of the
	// same measure+inputs with different thresholds share the distance.
	lower := func() rule.ValueOp {
		return rule.NewTransform(transform.LowerCase(), rule.NewProperty("name"))
	}
	r := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(lower(), lower(), similarity.Levenshtein(), 1),
		rule.NewComparison(lower(), lower(), similarity.Levenshtein(), 3),
	))
	c := evalengine.Compile(r)
	if got := c.NumValuePrograms(); got != 1 {
		t.Fatalf("value programs = %d, want 1", got)
	}
	if got := c.NumDistPrograms(); got != 1 {
		t.Fatalf("dist programs = %d, want 1", got)
	}
}

// TestEngineMemoMeetsTreeWalk drives one engine through eight batches
// that repeat signatures inside a batch, bring a signature back after it
// sat out a batch or more, and shrink and grow — under keepGenerations 1
// (whatever a batch does not use is aged out at once, memo entries and
// vectors alike), under a distance-vector cap of 3 (vectors are evicted
// while the memo entries that read them live on, so the memo must
// decline) and under the defaults. Every count of every batch must equal
// the tree-walk's, and the distance and value caches must do exactly what
// they did before the per-signature memo and the prepared columns
// existed: wantCache holds DistComputed, DistHits, DistVectors and
// ValueVectors after every batch as the commit before them reported
// them for these populations (not under the cap: which of several
// equally old vectors it evicts is up to the map's iteration order).
// memoSchedule is the batch schedule of the memo tests: which of eight
// random pool rules each batch evaluates, repeats within and across
// batches included.
var memoSchedule = [][]int{
	{0, 1, 2, 0, 1, 6},
	{0, 0, 3, 7},
	{3, 4},
	{1, 2, 4, 4, 6},
	{1, 5, 5, 5},
	{0, 1, 2, 3, 4, 5, 6, 7},
	{5, 4, 3},
	{7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3},
}

func TestEngineMemoMeetsTreeWalk(t *testing.T) {
	schedule := memoSchedule
	for _, tc := range []struct {
		name      string
		limits    [3]int // maxDist, maxValue, keep; 0 keeps the constant
		wantCache [][4]int64
	}{
		{"keep1", [3]int{0, 0, 1}, [][4]int64{
			{14, 6, 14, 13},
			{16, 8, 3, 4},
			{20, 9, 5, 7},
			{33, 17, 17, 13},
			{34, 24, 6, 2},
			{49, 30, 21, 14},
			{49, 36, 6, 0},
			{64, 55, 21, 14},
		}},
		{"cap3", [3]int{3, 0, 0}, nil},
		{"defaults", [3]int{}, [][4]int64{
			{14, 6, 14, 13},
			{16, 8, 16, 15},
			{20, 9, 20, 18},
			{20, 30, 20, 10},
			{21, 37, 19, 9},
			{23, 56, 21, 6},
			{23, 62, 21, 6},
			{23, 96, 21, 4},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			refs := randomRefs(rng, 40)
			pool := make([]*rule.Rule, 8)
			for i := range pool {
				pool[i] = randomRule(rng)
			}
			eng := evalengine.New(refs, evalengine.Options{Workers: 2})
			eng.SetLimits(tc.limits[0], tc.limits[1], tc.limits[2])
			total := 0
			for bi, picks := range schedule {
				batch := make([]*rule.Rule, len(picks))
				for i, p := range picks {
					batch[i] = pool[p].Clone()
				}
				total += len(batch)
				got := eng.EvaluateBatch(batch)
				for i, r := range batch {
					if want := treeWalkCounts(r, refs); got[i] != want {
						t.Fatalf("batch %d rule %d (pool %d): engine %+v, tree-walk %+v\nrule: %s",
							bi, i, picks[i], got[i], want, r.Render())
					}
				}
				st := eng.Stats()
				cache := [4]int64{st.DistComputed, st.DistHits, int64(st.DistVectors), int64(st.ValueVectors)}
				if tc.wantCache != nil && cache != tc.wantCache[bi] {
					t.Errorf("after batch %d: DistComputed, DistHits, DistVectors, ValueVectors = %v, were %v before the memo",
						bi, cache, tc.wantCache[bi])
				}
			}
			st := eng.Stats()
			if st.RulesFolded+st.RuleHits != int64(total) {
				t.Errorf("folded %d + memo hits %d != %d rules evaluated", st.RulesFolded, st.RuleHits, total)
			}
			if st.PreparedComputed == 0 || int64(st.PreparedColumns) > st.PreparedComputed {
				t.Errorf("pool compares numbers, dates and coordinates, yet %d typed columns built, %d cached",
					st.PreparedComputed, st.PreparedColumns)
			}
			if st.RuleRepeats == 0 || st.RuleHits == st.RuleRepeats {
				t.Errorf("schedule must hit the memo inside a batch and across batches: %+v", st)
			}
			if tc.name != "defaults" && st.RulesFolded <= int64(len(pool)) {
				t.Errorf("no signature was folded twice, so nothing aged out or was declined: %+v", st)
			}
		})
	}
}

// TestEngineEvictionDeterministic runs the memo schedule under a hard
// distance-cache cap of 3 — where every batch evicts, and entries share
// lastUsed stamps — twelve times from scratch. Which entries the cap
// drops decides what later batches recompute, so the CacheStats after
// every batch must repeat exactly from run to run.
func TestEngineEvictionDeterministic(t *testing.T) {
	run := func() []evalengine.CacheStats {
		rng := rand.New(rand.NewSource(23))
		refs := randomRefs(rng, 40)
		pool := make([]*rule.Rule, 8)
		for i := range pool {
			pool[i] = randomRule(rng)
		}
		eng := evalengine.New(refs, evalengine.Options{Workers: 2})
		eng.SetLimits(3, 0, 0)
		var stats []evalengine.CacheStats
		for _, picks := range memoSchedule {
			batch := make([]*rule.Rule, len(picks))
			for i, p := range picks {
				batch[i] = pool[p].Clone()
			}
			eng.EvaluateBatch(batch)
			stats = append(stats, eng.Stats())
		}
		return stats
	}
	first := run()
	for i := 1; i < 12; i++ {
		again := run()
		for bi := range first {
			if again[bi] != first[bi] {
				t.Fatalf("run %d, after batch %d: %+v, first run %+v", i, bi, again[bi], first[bi])
			}
		}
	}
}
