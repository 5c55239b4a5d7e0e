package evalengine_test

import (
	"math/rand"
	"reflect"
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

// memoScheduleStats runs the memo schedule on a fresh engine with the
// given workers, under a hard distance-cache cap of 3 — where every
// batch evicts, and entries share lastUsed stamps — and returns the
// CacheStats after every batch.
func memoScheduleStats(workers int) []evalengine.CacheStats {
	rng := rand.New(rand.NewSource(23))
	refs := randomRefs(rng, 40)
	pool := make([]*rule.Rule, 8)
	for i := range pool {
		pool[i] = randomRule(rng)
	}
	eng := evalengine.New(refs, evalengine.Options{Workers: workers})
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

// TestEngineEvictionDeterministic runs the memo schedule
// (memoScheduleStats) twelve times from scratch. Which entries the cap
// drops decides what later batches recompute, so the CacheStats after
// every batch must repeat exactly from run to run.
func TestEngineEvictionDeterministic(t *testing.T) {
	first := memoScheduleStats(2)
	for i := 1; i < 12; i++ {
		again := memoScheduleStats(2)
		for bi := range first {
			if again[bi] != first[bi] {
				t.Fatalf("run %d, after batch %d: %+v, first run %+v", i, bi, again[bi], first[bi])
			}
		}
	}
}

// TestFoldOpsExact pins CacheStats.FoldOps as an exact count of the
// fold's work: one rule of three instructions folded over the fixture's
// eight pairs counts 24, and answering it again from the memo counts
// nothing; the memo schedule counts the same, batch by batch, with 1 and
// with 4 workers (TestEngineEvictionDeterministic pins that it repeats
// under one seed).
func TestFoldOpsExact(t *testing.T) {
	name := rule.NewTransform(transform.LowerCase(), rule.NewProperty("name"))
	r := rule.New(rule.NewAggregation(rule.WMean(),
		rule.NewComparison(name, name.CloneValue(), similarity.Levenshtein(), 1),
		rule.NewComparison(name.CloneValue(), name.CloneValue(), similarity.Jaccard(), 0.5)))
	eng := evalengine.New(fixtureRefs(), evalengine.Options{Workers: 1})
	eng.Evaluate(r)
	eng.Evaluate(r.Clone())
	if got := eng.Stats().FoldOps; got != 3*8 {
		t.Errorf("FoldOps = %d, want 3 instructions × 8 pairs", got)
	}

	one, four := memoScheduleStats(1), memoScheduleStats(4)
	if one[len(one)-1].FoldOps == 0 {
		t.Fatal("the memo schedule folded nothing")
	}
	for bi := range one {
		if one[bi] != four[bi] {
			t.Errorf("after batch %d: %+v with 1 worker, %+v with 4", bi, one[bi], four[bi])
		}
	}
}

// TestCompileRefusesUnknownAggregation pins that an aggregation whose
// function is none of rule's three — the nil a decoder's lookup of an
// unknown name gives — is refused when it is compiled, not scored as
// something else.
func TestCompileRefusesUnknownAggregation(t *testing.T) {
	name := rule.NewProperty("name")
	r := rule.New(&rule.AggregationOp{
		Function: rule.AggregatorByName("median"),
		Operands: []rule.SimilarityOp{rule.NewComparison(name, name.CloneValue(), similarity.Levenshtein(), 1)},
	})
	defer func() {
		if recover() == nil {
			t.Error("Compile accepted an aggregation without a known function")
		}
	}()
	evalengine.Compile(r)
}

// TestMemoAnswersAfterEarlierRuleReschedules pins the memo's answer in
// batch order. Rule j's entry reads a distance vector that the hard cap
// evicted, so at the start of the batch the memo cannot answer j; rule i,
// earlier in the same batch and new, reads that vector and schedules it
// again, after which j's entry can answer, and must: j is not folded, and
// the vector is computed once. Counts and CacheStats after every batch
// must agree at 1 and 4 workers.
func TestMemoAnswersAfterEarlierRuleReschedules(t *testing.T) {
	refs := fixtureRefs()
	name := func() rule.ValueOp { return rule.NewTransform(transform.Trim(), rule.NewProperty("name")) }
	onD := func(threshold float64) *rule.Rule {
		return rule.New(rule.NewComparison(name(), name(), similarity.Levenshtein(), threshold))
	}
	onE := rule.New(rule.NewComparison(name(), name(), similarity.Jaccard(), 0.5))
	j, i := onD(1), onD(2) // one distance vector D, two signatures
	batches := [][]*rule.Rule{
		{j},    // computes D; memo enters j
		{onE},  // computes E; the cap of one vector evicts D, j's entry stays
		{i, j}, // i schedules D again, then j's entry answers; the cap evicts E
		{j, i}, // both answer
		{onE},  // E is computed again
	}
	run := func(workers int) ([][]evalengine.Counts, []evalengine.CacheStats) {
		eng := evalengine.New(refs, evalengine.Options{Workers: workers})
		eng.SetLimits(1, 0, 100)
		var counts [][]evalengine.Counts
		var stats []evalengine.CacheStats
		for _, b := range batches {
			batch := make([]*rule.Rule, len(b))
			for k, r := range b {
				batch[k] = r.Clone()
			}
			counts = append(counts, eng.EvaluateBatch(batch))
			stats = append(stats, eng.Stats())
		}
		return counts, stats
	}
	counts, stats := run(1)
	for bi, b := range batches {
		for k, r := range b {
			if want := treeWalkCounts(r, refs); counts[bi][k] != want {
				t.Errorf("batch %d rule %d: engine %+v, tree-walk %+v", bi, k, counts[bi][k], want)
			}
		}
	}
	before, after := stats[1], stats[2]
	if after.DistVectors != 1 || before.DistVectors != 1 {
		t.Fatalf("the cap of one vector did not hold: %d, then %d vectors", before.DistVectors, after.DistVectors)
	}
	if got := after.RulesFolded - before.RulesFolded; got != 1 {
		t.Errorf("batch 2 folded %d rules, want 1 (i; j answered from the memo)", got)
	}
	if hits, repeats := after.RuleHits-before.RuleHits, after.RuleRepeats-before.RuleRepeats; hits != 1 || repeats != 0 {
		t.Errorf("batch 2: %d memo hits (%d repeats), want j answered by its entry from batch 0", hits, repeats)
	}
	if got := after.DistComputed - before.DistComputed; got != 1 {
		t.Errorf("batch 2 computed %d distance vectors, want D once", got)
	}
	counts4, stats4 := run(4)
	for bi := range batches {
		if !reflect.DeepEqual(counts4[bi], counts[bi]) {
			t.Errorf("batch %d: counts %+v at 4 workers, %+v at 1", bi, counts4[bi], counts[bi])
		}
		if stats4[bi] != stats[bi] {
			t.Errorf("after batch %d: %+v at 4 workers, %+v at 1", bi, stats4[bi], stats[bi])
		}
	}
}
