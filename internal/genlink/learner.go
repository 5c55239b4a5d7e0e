package genlink

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/evalx"
	"genlink/internal/gp"
	"genlink/internal/rule"
)

// candidate is one individual of the population: a rule plus the confusion
// matrix of its last evaluation on the training links. valid marks the
// cached measurements as current — elites carry theirs across generations
// and are skipped by the batch evaluation.
type candidate struct {
	rule  *rule.Rule
	conf  evalx.Confusion
	f1    float64
	mcc   float64
	valid bool
}

// IterationStats records one generation of the evolution, feeding the
// learning-curve tables (Tables 7–12).
type IterationStats struct {
	// Iteration is 0 for the initial population.
	Iteration int
	// Elapsed is the cumulative wall-clock time since learning started.
	Elapsed time.Duration
	// TrainF1 is the training F-measure of the fittest rule.
	TrainF1 float64
	// ValF1 is the validation F-measure of the fittest rule (0 when no
	// validation links were supplied).
	ValF1 float64
	// MeanF1 is the average training F-measure over the population
	// (the Table 14 seeding statistic).
	MeanF1 float64
	// BestFitness is the fitness (MCC − parsimony) of the fittest rule.
	BestFitness float64
	// OperatorCount is the operator count of the fittest rule.
	OperatorCount int

	// The remaining fields say what the generation cost, not what it
	// found. BreedTime is the wall-clock time spent building the
	// population (selection, crossover and repair; for iteration 0 the
	// property-pair seeding of Section 5.1 and the random rules) and
	// EvalTime the time spent scoring it on the training links; scoring
	// the fittest rule on the validation links is in neither.
	BreedTime, EvalTime time.Duration
	// Evaluated is the number of rules handed to the evaluation engine:
	// the population but for the elites, which carry their measurements.
	// DistinctRules is the number of distinct canonical signatures among
	// them, and MemoHits how many the engine answered from its
	// per-signature memo — repeats inside the generation and signatures
	// scored in an earlier generation still cached — instead of compiling
	// and folding them. DistComputed is the number of distance vectors the
	// engine had to compute.
	Evaluated, DistinctRules, MemoHits, DistComputed int
}

// Result is the outcome of a learning run.
type Result struct {
	// Best is the fittest rule of the final population (Algorithm 1
	// returns "best linkage rule from P").
	Best *rule.Rule
	// BestTrainF1 and BestValF1 are the F-measures of Best.
	BestTrainF1, BestValF1 float64
	// Iterations is the number of evolved generations (excluding the
	// initial population).
	Iterations int
	// History holds one entry per generation including generation 0.
	History []IterationStats
	// CompatiblePairs is the property pair list found by Algorithm 2.
	CompatiblePairs []PropertyPair
	// TopRules are the fittest structurally distinct rules of the final
	// population (best first, at most ten) — the committee used by the
	// active-learning extension.
	TopRules []*rule.Rule
}

// StatsAt returns the history entry for the given iteration. When the
// iteration was not recorded — evolution stopped earlier, or the history
// holds sparse checkpoints — the latest entry at or before it is returned
// (the paper's tables repeat the converged value for later checkpoints).
func (r *Result) StatsAt(iteration int) IterationStats {
	if len(r.History) == 0 {
		return IterationStats{}
	}
	out := r.History[0]
	for _, h := range r.History {
		if h.Iteration > iteration {
			break
		}
		out = h
	}
	return out
}

// Learner learns linkage rules from reference links (Definition 4).
type Learner struct {
	cfg Config
}

// NewLearner returns a learner with the given configuration.
func NewLearner(cfg Config) *Learner {
	if cfg.PopulationSize <= 0 {
		cfg.PopulationSize = DefaultConfig().PopulationSize
	}
	if cfg.TournamentSize <= 0 {
		cfg.TournamentSize = DefaultConfig().TournamentSize
	}
	if len(cfg.Measures) == 0 {
		cfg.Measures = DefaultConfig().Measures
	}
	if len(cfg.Transforms) == 0 {
		cfg.Transforms = DefaultConfig().Transforms
	}
	if cfg.CompatThreshold <= 0 {
		cfg.CompatThreshold = 1
	}
	if cfg.ParsimonyNormalizer <= 0 {
		cfg.ParsimonyNormalizer = DefaultConfig().ParsimonyNormalizer
	}
	return &Learner{cfg: cfg}
}

// Learn runs Algorithm 1 on the training links alone.
func (l *Learner) Learn(train *entity.ReferenceLinks) (*Result, error) {
	return l.LearnWithValidation(train, nil)
}

// LearnWithValidation runs Algorithm 1 on the training links and
// additionally scores the per-iteration best rule on the validation links,
// matching the cross-validation reporting of Section 6.
func (l *Learner) LearnWithValidation(train, val *entity.ReferenceLinks) (*Result, error) {
	if train == nil || len(train.Positive) == 0 {
		return nil, errors.New("genlink: training links must contain positive examples")
	}
	if len(train.Negative) == 0 {
		return nil, errors.New("genlink: training links must contain negative examples")
	}

	rng := rand.New(rand.NewSource(l.cfg.Seed))
	start := time.Now()

	// Section 5.1: preselect compatible property pairs, or fall back to the
	// full cross product (RandomInit mode and empty-seeding fallback).
	var pairs []PropertyPair
	if l.cfg.Seeding == Seeded {
		pairs = CompatibleProperties(train.Positive, l.cfg.Measures,
			l.cfg.CompatThreshold, l.cfg.MaxCompatLinks, rng)
	}
	if len(pairs) == 0 {
		pairs = AllPropertyPairs(train.Positive)
	}
	if len(pairs) == 0 {
		return nil, errors.New("genlink: no property pairs available for rule generation")
	}

	gen := newGenerator(l.cfg, pairs)
	ops := operatorSet(l.cfg)

	// One engine instance per link set, shared by every generation: the
	// compiled programs and signature-keyed caches make the subtrees that
	// elitism and crossover carry between generations nearly free.
	opts := evalengine.Options{Workers: l.cfg.Workers}
	engine := evalengine.New(train, opts)
	var valEngine *evalengine.Engine
	if val != nil {
		valEngine = evalengine.New(val, opts)
	}

	result := &Result{CompatiblePairs: pairs}
	var pop *gp.Population[*candidate]
	// score evaluates the freshly bred pop and appends its history entry.
	bredFrom := start // when breeding of the current generation began
	distinct := func(s evalengine.CacheStats) int64 { return s.RulesFolded + s.RuleHits - s.RuleRepeats }
	score := func(iteration int) *candidate {
		bred := time.Now()
		before := engine.Stats()
		evaluated := l.evaluate(pop, engine)
		after := engine.Stats()
		scored := time.Now()
		best := pop.Individuals[pop.Best()].Genome
		stats := IterationStats{
			Iteration:     iteration,
			Elapsed:       scored.Sub(start),
			TrainF1:       best.f1,
			MeanF1:        meanF1(pop),
			BestFitness:   l.accuracy(best) - l.parsimony(best.rule.OperatorCount()),
			OperatorCount: best.rule.OperatorCount(),
			BreedTime:     bred.Sub(bredFrom),
			EvalTime:      scored.Sub(bred),
			Evaluated:     evaluated,
			DistinctRules: int(distinct(after) - distinct(before)),
			MemoHits:      int(after.RuleHits - before.RuleHits),
			DistComputed:  int(after.DistComputed - before.DistComputed),
		}
		if valEngine != nil {
			stats.ValF1 = confusion(valEngine.Evaluate(best.rule)).FMeasure()
		}
		result.History = append(result.History, stats)
		bredFrom = time.Now()
		return best
	}

	// Initial population.
	pop = l.newPopulation(gen.InitialPopulation(rng, l.cfg.PopulationSize))
	best := score(0)

	// Algorithm 1 main loop.
	maxIter := l.cfg.MaxIterations
	for iter := 1; iter <= maxIter; iter++ {
		if l.cfg.TargetFMeasure > 0 && maxPopulationF1(pop) >= l.cfg.TargetFMeasure {
			break
		}
		next := append(make([]*candidate, 0, l.cfg.PopulationSize), l.elites(pop)...)
		for len(next) < l.cfg.PopulationSize {
			i1, i2 := pop.SelectPair(rng, l.cfg.TournamentSize)
			r1 := pop.Individuals[i1].Genome.rule
			r2 := pop.Individuals[i2].Genome.rule
			op := ops[rng.Intn(len(ops))]
			var child *rule.Rule
			if rng.Float64() < l.cfg.MutationProbability {
				// Headless chicken crossover: recombine with a fresh
				// random rule instead of the second parent.
				child = op.Cross(rng, r1, gen.RandomRule(rng))
			} else {
				child = op.Cross(rng, r1, r2)
			}
			child = repair(child, l.cfg.Representation)
			next = append(next, &candidate{rule: child})
		}
		pop = &gp.Population[*candidate]{Individuals: wrap(next)}
		best = score(iter)
		result.Iterations = iter
	}

	result.Best = best.rule
	result.BestTrainF1 = best.f1
	result.TopRules = topRules(pop, 10)
	if valEngine != nil {
		result.BestValF1 = confusion(valEngine.Evaluate(best.rule)).FMeasure()
	}
	return result, nil
}

// confusion converts engine counts into the evalx confusion matrix.
func confusion(c evalengine.Counts) evalx.Confusion { return evalx.Confusion(c) }

// elites returns copies of the Elitism fittest individuals, fittest first
// (reproduction). They carry their measurements into the next generation:
// evaluation is deterministic, so re-scoring the identical rule would only
// waste a full pass over the reference links.
func (l *Learner) elites(pop *gp.Population[*candidate]) []*candidate {
	n := min(l.cfg.Elitism, pop.Len())
	if n <= 0 {
		return nil
	}
	out := make([]*candidate, n)
	for j, i := range byFitness(pop)[:n] {
		elite := *pop.Individuals[i].Genome
		elite.rule = elite.rule.Clone()
		out[j] = &elite
	}
	return out
}

// byFitness returns the indices of the population from fittest to least
// fit, equally fit individuals in index order.
func byFitness(pop *gp.Population[*candidate]) []int {
	idx := make([]int, pop.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return pop.Individuals[idx[a]].Fitness > pop.Individuals[idx[b]].Fitness
	})
	return idx
}

// topRules returns the fittest structurally distinct rules, best first.
func topRules(pop *gp.Population[*candidate], n int) []*rule.Rule {
	seen := make(map[string]bool)
	var out []*rule.Rule
	for _, i := range byFitness(pop) {
		r := pop.Individuals[i].Genome.rule
		// The canonical signature deduplicates more sharply than the
		// Compact rendering: operand order of commutative aggregations is
		// normalized and thresholds are compared exactly.
		key := r.Signature()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
		if len(out) == n {
			break
		}
	}
	return out
}

// newPopulation wraps rules into candidates.
func (l *Learner) newPopulation(rules []*rule.Rule) *gp.Population[*candidate] {
	cands := make([]*candidate, len(rules))
	for i, r := range rules {
		cands[i] = &candidate{rule: r}
	}
	return &gp.Population[*candidate]{Individuals: wrap(cands)}
}

func wrap(cands []*candidate) []gp.Individual[*candidate] {
	inds := make([]gp.Individual[*candidate], len(cands))
	for i, c := range cands {
		inds[i] = gp.Individual[*candidate]{Genome: c}
	}
	return inds
}

// parsimony returns the size penalty for a rule with n operators
// (see Config.ParsimonyCoefficient for the normalization rationale).
func (l *Learner) parsimony(n int) float64 {
	norm := l.cfg.ParsimonyNormalizer
	if norm <= 0 {
		norm = 1
	}
	return l.cfg.ParsimonyCoefficient * float64(n) / norm
}

// evaluate computes fitness = accuracy − parsimony(operatorCount) for
// every candidate (Section 5.2). Accuracy is MCC by default; the F1
// alternative exists for the fitness ablation.
//
// Candidates whose measurements are already valid — the elites — are not
// re-scored. Everything else goes through the engine as one batch, so
// value sets and distances shared across the population (and, via the
// engine's generation caches, with previous populations) are computed
// once; the engine parallelizes internally. evaluate returns the size of
// that batch.
func (l *Learner) evaluate(pop *gp.Population[*candidate], engine *evalengine.Engine) int {
	var idx []int
	var rules []*rule.Rule
	for i := range pop.Individuals {
		if !pop.Individuals[i].Genome.valid {
			idx = append(idx, i)
			rules = append(rules, pop.Individuals[i].Genome.rule)
		}
	}
	for j, counts := range engine.EvaluateBatch(rules) {
		c := pop.Individuals[idx[j]].Genome
		c.conf = confusion(counts)
		c.f1 = c.conf.FMeasure()
		c.mcc = c.conf.MCC()
		c.valid = true
	}
	for i := range pop.Individuals {
		c := pop.Individuals[i].Genome
		pop.Individuals[i].Fitness = l.accuracy(c) - l.parsimony(c.rule.OperatorCount())
	}
	return len(rules)
}

// accuracy returns the configured accuracy term of a candidate.
func (l *Learner) accuracy(c *candidate) float64 {
	if l.cfg.Fitness == FitnessF1 {
		return c.f1
	}
	return c.mcc
}

func meanF1(pop *gp.Population[*candidate]) float64 {
	if pop.Len() == 0 {
		return 0
	}
	var sum float64
	for i := range pop.Individuals {
		sum += pop.Individuals[i].Genome.f1
	}
	return sum / float64(pop.Len())
}

// maxPopulationF1 returns the highest training F-measure in the population,
// implementing the "full F-measure reached" stop condition of Algorithm 1.
func maxPopulationF1(pop *gp.Population[*candidate]) float64 {
	best := 0.0
	for i := range pop.Individuals {
		if f := pop.Individuals[i].Genome.f1; f > best {
			best = f
		}
	}
	return best
}
