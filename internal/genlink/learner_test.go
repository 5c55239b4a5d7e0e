package genlink

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/evalx"
	"genlink/internal/gp"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// toyTask builds a small learnable matching task: persons with noisy names
// (case differences) in two schemas (name vs. label) plus a numeric id that
// agrees on matches and disagrees otherwise.
func toyTask(n int, seed int64) *entity.ReferenceLinks {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	refs := &entity.ReferenceLinks{}
	for i := 0; i < n; i++ {
		name := names[rng.Intn(len(names))] + fmt.Sprint(i)
		a := entity.New(fmt.Sprintf("a%d", i))
		a.Add("name", strings.ToUpper(name)) // noisy case
		a.Add("id", fmt.Sprint(i))
		b := entity.New(fmt.Sprintf("b%d", i))
		b.Add("label", name)
		b.Add("code", fmt.Sprint(i))
		refs.Positive = append(refs.Positive, entity.Pair{A: a, B: b})
	}
	refs.Negative = entity.GenerateNegatives(refs.Positive)
	return refs
}

func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.PopulationSize = 60
	cfg.MaxIterations = 15
	cfg.Seed = seed
	cfg.Workers = 2
	return cfg
}

func TestLearnerSolvesToyTask(t *testing.T) {
	refs := toyTask(30, 1)
	res, err := NewLearner(smallConfig(7)).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no rule learned")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("learned rule invalid: %v", err)
	}
	if res.BestTrainF1 < 0.95 {
		t.Fatalf("train F1 = %v, want ≥ 0.95 on the toy task\nrule: %s",
			res.BestTrainF1, res.Best.Render())
	}
}

func TestLearnerWithValidation(t *testing.T) {
	refs := toyTask(40, 2)
	train := &entity.ReferenceLinks{
		Positive: refs.Positive[:20],
		Negative: refs.Negative[:20],
	}
	val := &entity.ReferenceLinks{
		Positive: refs.Positive[20:],
		Negative: refs.Negative[20:],
	}
	res, err := NewLearner(smallConfig(3)).LearnWithValidation(train, val)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValF1 < 0.8 {
		t.Fatalf("validation F1 = %v, want generalization ≥ 0.8", res.BestValF1)
	}
	for _, h := range res.History {
		if h.ValF1 < 0 || h.ValF1 > 1 {
			t.Fatalf("history val F1 out of range: %+v", h)
		}
	}
}

func TestLearnerDeterministicUnderSeed(t *testing.T) {
	refs := toyTask(20, 3)
	cfg := smallConfig(11)
	cfg.Workers = 1
	cfg.MaxIterations = 5
	r1, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.Compact() != r2.Best.Compact() {
		t.Fatalf("same seed gave different rules:\n%s\n%s", r1.Best.Compact(), r2.Best.Compact())
	}
	if r1.BestTrainF1 != r2.BestTrainF1 {
		t.Fatal("same seed gave different F1")
	}
}

func TestLearnerParallelMatchesSerial(t *testing.T) {
	refs := toyTask(20, 4)
	cfg := smallConfig(13)
	cfg.MaxIterations = 3
	cfg.Workers = 1
	serial, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	// Fitness evaluation is deterministic; breeding uses a single rng, so
	// worker count must not change the outcome.
	if serial.Best.Compact() != parallel.Best.Compact() {
		t.Fatal("worker count changed the learned rule")
	}
}

func TestLearnerStopsAtFullFMeasure(t *testing.T) {
	refs := toyTask(20, 5)
	cfg := smallConfig(17)
	cfg.MaxIterations = 50
	res, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTrainF1 >= 1.0 && res.Iterations == 50 {
		// Converged but never stopped early — suspicious unless it reached
		// 1.0 exactly on the final iteration.
		last := res.History[len(res.History)-1]
		prev := res.History[len(res.History)-2]
		if prev.TrainF1 >= 1.0 && last.TrainF1 >= 1.0 {
			t.Fatal("learner kept evolving after reaching full F-measure")
		}
	}
}

func TestLearnerInputValidation(t *testing.T) {
	l := NewLearner(smallConfig(1))
	if _, err := l.Learn(nil); err == nil {
		t.Fatal("nil links should error")
	}
	if _, err := l.Learn(&entity.ReferenceLinks{}); err == nil {
		t.Fatal("empty links should error")
	}
	onlyPos := &entity.ReferenceLinks{Positive: toyTask(4, 1).Positive}
	if _, err := l.Learn(onlyPos); err == nil {
		t.Fatal("links without negatives should error")
	}
}

func TestLearnerHistoryShape(t *testing.T) {
	refs := toyTask(16, 6)
	cfg := smallConfig(19)
	cfg.MaxIterations = 4
	cfg.TargetFMeasure = 2.0 // never reached → all iterations run
	res, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 5 { // generation 0 + 4 evolved
		t.Fatalf("history length = %d, want 5", len(res.History))
	}
	for i, h := range res.History {
		if h.Iteration != i {
			t.Fatalf("history[%d].Iteration = %d", i, h.Iteration)
		}
		if i > 0 && h.Elapsed < res.History[i-1].Elapsed {
			t.Fatal("elapsed time must be non-decreasing")
		}
		if h.MeanF1 < 0 || h.MeanF1 > 1 {
			t.Fatalf("mean F1 out of range: %v", h.MeanF1)
		}
	}
}

func TestStatsAt(t *testing.T) {
	res := &Result{History: []IterationStats{
		{Iteration: 0, TrainF1: 0.5},
		{Iteration: 1, TrainF1: 0.7},
		{Iteration: 2, TrainF1: 0.9},
	}}
	if got := res.StatsAt(1).TrainF1; got != 0.7 {
		t.Fatalf("StatsAt(1) = %v", got)
	}
	// Beyond the end: converged value repeats.
	if got := res.StatsAt(50).TrainF1; got != 0.9 {
		t.Fatalf("StatsAt(50) = %v", got)
	}
	if (&Result{}).StatsAt(3) != (IterationStats{}) {
		t.Fatal("empty history StatsAt should be zero")
	}
}

func TestLearnerRepresentationRestrictions(t *testing.T) {
	refs := toyTask(20, 7)
	for _, rep := range []Representation{Boolean, Linear, NonLinear} {
		cfg := smallConfig(23)
		cfg.MaxIterations = 5
		cfg.Representation = rep
		res, err := NewLearner(cfg).Learn(refs)
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if n := len(res.Best.Transformations()); n != 0 {
			t.Errorf("%v: learned rule contains %d transformations", rep, n)
		}
		if rep == Linear {
			if aggs := res.Best.Aggregations(); len(aggs) > 1 {
				t.Errorf("Linear: rule has nested aggregations:\n%s", res.Best.Render())
			} else if len(aggs) == 1 && aggs[0].Function.Name() != "wmean" {
				t.Errorf("Linear: aggregator = %s", aggs[0].Function.Name())
			}
		}
		if rep == Boolean {
			for _, agg := range res.Best.Aggregations() {
				if name := agg.Function.Name(); name != "min" && name != "max" {
					t.Errorf("Boolean: aggregator = %s", name)
				}
			}
		}
	}
}

func TestLearnerSubtreeMode(t *testing.T) {
	refs := toyTask(20, 8)
	cfg := smallConfig(29)
	cfg.MaxIterations = 5
	cfg.Crossover = Subtree
	res, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("subtree mode produced invalid rule: %v", err)
	}
}

func TestLearnerRandomInitMode(t *testing.T) {
	refs := toyTask(20, 9)
	cfg := smallConfig(31)
	cfg.MaxIterations = 3
	cfg.Seeding = RandomInit
	res, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	// Random initialization must not crash and must still produce a rule.
	if res.Best == nil {
		t.Fatal("no rule learned in RandomInit mode")
	}
	// All pairs are offered, so the pair list is the full cross product.
	if len(res.CompatiblePairs) != 4 { // 2 props in A × 2 props in B
		t.Fatalf("pair list = %d entries, want 4", len(res.CompatiblePairs))
	}
}

func TestGeneratorProducesValidRules(t *testing.T) {
	refs := toyTask(10, 10)
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	pairs := CompatibleProperties(refs.Positive, cfg.Measures, 1, 0, rng)
	if len(pairs) == 0 {
		t.Fatal("no compatible pairs on toy task")
	}
	gen := newGenerator(cfg, pairs)
	for i := 0; i < 500; i++ {
		r := gen.RandomRule(rng)
		if err := r.Validate(); err != nil {
			t.Fatalf("random rule %d invalid: %v", i, err)
		}
		if n := len(r.Comparisons()); n < 1 || n > 2 {
			t.Fatalf("random rule has %d comparisons, want 1..2 (§5.1)", n)
		}
	}
}

func TestGeneratorRespectsRepresentation(t *testing.T) {
	refs := toyTask(10, 11)
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	cfg.Representation = Boolean
	pairs := CompatibleProperties(refs.Positive, cfg.Measures, 1, 0, rng)
	gen := newGenerator(cfg, pairs)
	for i := 0; i < 200; i++ {
		r := gen.RandomRule(rng)
		if len(r.Transformations()) != 0 {
			t.Fatal("boolean generator produced transformations")
		}
		for _, agg := range r.Aggregations() {
			if n := agg.Function.Name(); n != "min" && n != "max" {
				t.Fatalf("boolean generator used aggregator %s", n)
			}
		}
	}
}

func TestRepair(t *testing.T) {
	full := ruleB() // wmean with transformations
	repaired := repair(full.Clone(), Boolean)
	if len(repaired.Transformations()) != 0 {
		t.Fatal("repair(Boolean) kept transformations")
	}
	for _, agg := range repaired.Aggregations() {
		if n := agg.Function.Name(); n != "min" && n != "max" {
			t.Fatalf("repair(Boolean) kept aggregator %s", n)
		}
	}
	if err := repaired.Validate(); err != nil {
		t.Fatal(err)
	}

	nested := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewAggregation(rule.Max(),
			ruleA().Comparisons()[0].CloneSim(),
			ruleA().Comparisons()[1].CloneSim()),
		ruleB().Comparisons()[0].CloneSim()))
	lin := repair(nested, Linear)
	if len(lin.Aggregations()) != 1 {
		t.Fatalf("repair(Linear) left %d aggregations", len(lin.Aggregations()))
	}
	if lin.Aggregations()[0].Function.Name() != "wmean" {
		t.Fatal("repair(Linear) must force wmean")
	}
	if len(lin.Comparisons()) != 3 {
		t.Fatalf("repair(Linear) lost comparisons: %d", len(lin.Comparisons()))
	}
	if len(lin.Transformations()) != 0 {
		t.Fatal("repair(Linear) kept transformations")
	}

	// Full representation is untouched.
	orig := ruleB()
	if repair(orig.Clone(), Full).Compact() != orig.Compact() {
		t.Fatal("repair(Full) modified the rule")
	}
	// Nil-safety.
	repair(&rule.Rule{}, Linear)
	repair(nil, Boolean)
}

func TestStatsAtBetweenCheckpoints(t *testing.T) {
	// Sparse histories (recorded checkpoints only) must floor to the
	// latest entry at or before the requested iteration — the paper's
	// tables repeat the last converged value.
	res := &Result{History: []IterationStats{
		{Iteration: 0, TrainF1: 0.5},
		{Iteration: 10, TrainF1: 0.8},
		{Iteration: 20, TrainF1: 0.9},
	}}
	for _, tc := range []struct {
		iteration int
		want      float64
	}{
		{0, 0.5}, {5, 0.5}, {10, 0.8}, {15, 0.8}, {20, 0.9}, {100, 0.9}, {-1, 0.5},
	} {
		if got := res.StatsAt(tc.iteration).TrainF1; got != tc.want {
			t.Fatalf("StatsAt(%d) = %v, want %v", tc.iteration, got, tc.want)
		}
	}
}

// TestEvaluateSkipsValidCandidates pins the elitism fix: candidates whose
// measurements are already valid keep them — the batch evaluation must not
// re-score the elite.
func TestEvaluateSkipsValidCandidates(t *testing.T) {
	refs := toyTask(10, 4)
	l := NewLearner(smallConfig(1))
	eng := evalengine.New(refs, evalengine.Options{})

	r := rule.New(rule.NewComparison(
		rule.NewProperty("name"), rule.NewProperty("label"),
		similarity.Levenshtein(), 1))
	sentinel := evalx.Confusion{TP: 1, FP: 2, FN: 3, TN: 4}
	elite := &candidate{rule: r, conf: sentinel, f1: 0.123, mcc: 0.456, valid: true}
	fresh := &candidate{rule: r.Clone()}
	pop := &gp.Population[*candidate]{Individuals: wrap([]*candidate{elite, fresh})}

	l.evaluate(pop, eng)

	if elite.conf != sentinel || elite.f1 != 0.123 || elite.mcc != 0.456 {
		t.Fatalf("elite was re-evaluated: %+v f1=%v mcc=%v", elite.conf, elite.f1, elite.mcc)
	}
	if !fresh.valid {
		t.Fatal("fresh candidate not evaluated")
	}
	if fresh.conf == sentinel {
		t.Fatal("fresh candidate kept sentinel confusion")
	}
	// Fitness must still be derived from the cached measurements.
	want := l.accuracy(elite) - l.parsimony(r.OperatorCount())
	if got := pop.Individuals[0].Fitness; got != want {
		t.Fatalf("elite fitness = %v, want %v (from cached stats)", got, want)
	}
}

// TestEliteCarriesStatsAcrossGenerations checks the full loop: with
// elitism enabled the returned best candidate's measurements stay
// consistent with a from-scratch evaluation of the best rule.
func TestEliteCarriesStatsAcrossGenerations(t *testing.T) {
	refs := toyTask(20, 6)
	cfg := smallConfig(8)
	cfg.MaxIterations = 4
	res, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	conf := evalx.Evaluate(res.Best, refs)
	if got := conf.FMeasure(); got != res.BestTrainF1 {
		t.Fatalf("carried train F1 %v != re-evaluated %v", res.BestTrainF1, got)
	}
}

// TestElitesAreTheFittestIndividuals pins elitism above one: the elites
// are the Elitism fittest individuals, equally fit ones in index order —
// not Elitism copies of the single fittest.
func TestElitesAreTheFittestIndividuals(t *testing.T) {
	fitness := []float64{0.5, 0.9, 0.9, 0.7}
	cands := make([]*candidate, len(fitness))
	for i := range cands {
		r := rule.New(rule.NewComparison(rule.NewProperty("name"), rule.NewProperty("label"),
			similarity.Levenshtein(), float64(i+1)))
		cands[i] = &candidate{rule: r, conf: evalx.Confusion{TP: i}, f1: fitness[i], mcc: fitness[i], valid: true}
	}
	pop := &gp.Population[*candidate]{Individuals: wrap(cands)}
	for i := range pop.Individuals {
		pop.Individuals[i].Fitness = fitness[i]
	}
	for _, tc := range []struct {
		elitism int
		want    []int
	}{
		{0, nil}, {-1, nil}, {1, []int{1}}, {2, []int{1, 2}}, {3, []int{1, 2, 3}}, {9, []int{1, 2, 3, 0}},
	} {
		cfg := smallConfig(1)
		cfg.Elitism = tc.elitism
		got := NewLearner(cfg).elites(pop)
		if len(got) != len(tc.want) {
			t.Fatalf("Elitism %d: %d elites, want %d", tc.elitism, len(got), len(tc.want))
		}
		for j, i := range tc.want {
			e, src := got[j], cands[i]
			if e.rule.Signature() != src.rule.Signature() || e.conf != src.conf || e.f1 != src.f1 || !e.valid {
				t.Errorf("Elitism %d: elite %d is %s %+v, want individual %d with its measurements",
					tc.elitism, j, e.rule.Signature(), e.conf, i)
			}
			if e == src || e.rule == src.rule {
				t.Errorf("Elitism %d: elite %d shares memory with the individual it copies", tc.elitism, j)
			}
		}
	}
	if best := pop.Best(); best != 1 {
		t.Fatalf("Population.Best() = %d; Elitism 1 must keep choosing it", best)
	}
}

// TestLearnerHistoryCounters checks the cost fields of IterationStats
// against what they are defined as, and that they repeat under a seed.
func TestLearnerHistoryCounters(t *testing.T) {
	refs := toyTask(25, 3)
	cfg := smallConfig(4)
	cfg.MaxIterations = 6
	cfg.TargetFMeasure = 2 // never reached: six generations whatever the seed finds
	res, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	var spent time.Duration
	var folded, vectors int
	for i, h := range res.History {
		want := cfg.PopulationSize
		if i > 0 {
			want -= cfg.Elitism
		}
		if h.Evaluated != want {
			t.Errorf("generation %d: %d rules evaluated, want %d", i, h.Evaluated, want)
		}
		if h.DistinctRules < 1 || h.DistinctRules > h.Evaluated || h.MemoHits < h.Evaluated-h.DistinctRules || h.MemoHits > h.Evaluated {
			t.Errorf("generation %d: %d evaluated, %d distinct, %d memo hits do not add up", i, h.Evaluated, h.DistinctRules, h.MemoHits)
		}
		if h.BreedTime <= 0 || h.EvalTime <= 0 {
			t.Errorf("generation %d: breed %v, evaluate %v", i, h.BreedTime, h.EvalTime)
		}
		spent += h.BreedTime + h.EvalTime
		folded += h.Evaluated - h.MemoHits
		vectors += h.DistComputed
	}
	if last := res.History[len(res.History)-1].Elapsed; spent > last {
		t.Errorf("breed + evaluate time %v exceeds the elapsed %v", spent, last)
	}
	if total := cfg.PopulationSize*7 - 6*cfg.Elitism; folded == 0 || folded >= total {
		t.Errorf("%d of %d rules folded: a converging population of 60 repeats signatures", folded, total)
	}
	if vectors == 0 {
		t.Error("no distance vector computed")
	}

	again, err := NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.History {
		g := again.History[i]
		if g.Evaluated != h.Evaluated || g.DistinctRules != h.DistinctRules || g.MemoHits != h.MemoHits || g.DistComputed != h.DistComputed {
			t.Errorf("generation %d: counters %+v then %+v under one seed", i, h, g)
		}
	}
}
