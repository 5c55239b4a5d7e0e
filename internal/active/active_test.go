package active

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/genlink"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// activeTask builds a pool of candidate pairs with ground truth: matching
// pairs share a lowercased name, non-matching pairs do not.
func activeTask(n int, seed int64) (pool []entity.Pair, truth map[entity.Pair]bool, seedLinks *entity.ReferenceLinks) {
	rng := rand.New(rand.NewSource(seed))
	truth = make(map[entity.Pair]bool)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("item-%03d", i)
		a := entity.New(fmt.Sprint("a", i))
		a.Add("name", strings.ToUpper(name))
		a.Add("code", fmt.Sprint(i))
		match := rng.Float64() < 0.5
		b := entity.New(fmt.Sprint("b", i))
		if match {
			b.Add("label", name)
			b.Add("ref", fmt.Sprint(i))
		} else {
			b.Add("label", fmt.Sprintf("other-%03d", i+1000))
			b.Add("ref", fmt.Sprint(i+1000))
		}
		p := entity.Pair{A: a, B: b}
		truth[p] = match
		pool = append(pool, p)
	}
	// Bootstrap with the first matching and first non-matching pair.
	seedLinks = &entity.ReferenceLinks{}
	for _, p := range pool {
		if truth[p] && len(seedLinks.Positive) == 0 {
			seedLinks.Positive = append(seedLinks.Positive, p)
		}
		if !truth[p] && len(seedLinks.Negative) == 0 {
			seedLinks.Negative = append(seedLinks.Negative, p)
		}
	}
	return pool, truth, seedLinks
}

func smallActiveConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Learner.PopulationSize = 40
	cfg.Learner.MaxIterations = 5
	cfg.Learner.Workers = 2
	cfg.QueriesPerRound = 4
	cfg.Rounds = 4
	cfg.Seed = seed
	return cfg
}

func TestActiveLearningImproves(t *testing.T) {
	pool, truth, seedLinks := activeTask(60, 1)
	oracle := func(a, b *entity.Entity) bool {
		for p, m := range truth {
			if p.A == a && p.B == b {
				return m
			}
		}
		t.Fatal("oracle asked about unknown pair")
		return false
	}
	res, err := Learn(smallActiveConfig(3), pool, seedLinks, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no rule learned")
	}
	if res.QueriesAsked != 16 { // 4 rounds × 4 queries
		t.Fatalf("queries asked = %d, want 16", res.QueriesAsked)
	}
	if res.Labeled.Len() != seedLinks.Len()+16 {
		t.Fatalf("labeled set = %d links", res.Labeled.Len())
	}
	// The final rule must classify the whole pool well despite having seen
	// only a fraction of it.
	correct := 0
	for p, m := range truth {
		if res.Best.Matches(p.A, p.B) == m {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(truth)); acc < 0.9 {
		t.Fatalf("pool accuracy = %.2f after active learning\nrule:\n%s", acc, res.Best.Render())
	}
}

func TestActiveLearningInputValidation(t *testing.T) {
	pool, _, seedLinks := activeTask(10, 2)
	if _, err := Learn(smallActiveConfig(1), pool, seedLinks, nil); err == nil {
		t.Fatal("nil oracle should error")
	}
	if _, err := Learn(smallActiveConfig(1), pool, nil, func(a, b *entity.Entity) bool { return true }); err == nil {
		t.Fatal("nil seed links should error")
	}
	onlyPos := &entity.ReferenceLinks{Positive: seedLinks.Positive}
	if _, err := Learn(smallActiveConfig(1), pool, onlyPos, func(a, b *entity.Entity) bool { return true }); err == nil {
		t.Fatal("seed without negatives should error")
	}
}

func TestActiveLearningEmptyPool(t *testing.T) {
	_, _, seedLinks := activeTask(10, 3)
	res, err := Learn(smallActiveConfig(1), nil, seedLinks, func(a, b *entity.Entity) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesAsked != 0 {
		t.Fatal("no queries possible with empty pool")
	}
	if res.Best == nil {
		t.Fatal("should still learn from the seed links")
	}
}

func TestDisagreement(t *testing.T) {
	mkRule := func(threshold float64) *evalengine.Scorer {
		return evalengine.Compile(rule.New(rule.NewComparison(
			rule.NewProperty("p"), rule.NewProperty("p"),
			similarity.Levenshtein(), threshold))).Scorer()
	}
	a := entity.New("a")
	a.Add("p", "xx")
	b := entity.New("b")
	b.Add("p", "xy") // distance 1
	agree := []*evalengine.Scorer{mkRule(10), mkRule(10)}
	if got := Disagreement(agree, a, b); got != 0 {
		t.Fatalf("agreeing committee disagreement = %v", got)
	}
	split := []*evalengine.Scorer{mkRule(10), mkRule(0.5)} // second rejects d=1
	if got := Disagreement(split, a, b); got != 1 {
		t.Fatalf("split committee disagreement = %v, want 1", got)
	}
	if Disagreement(nil, a, b) != 0 {
		t.Fatal("empty committee should have zero disagreement")
	}
}

// randomRegistryRule draws a rule over every registered measure and
// transformation, with thresholds on the scales those measures meet.
func randomRegistryRule(rng *rand.Rand, props []string) *rule.Rule {
	measures, transforms := similarity.Names(), transform.Names()
	value := func() rule.ValueOp {
		var op rule.ValueOp = rule.NewProperty(props[rng.Intn(len(props))])
		if rng.Intn(2) == 0 {
			op = rule.NewTransform(transform.ByName(transforms[rng.Intn(len(transforms))]), op)
		}
		return op
	}
	var sim func(depth int) rule.SimilarityOp
	sim = func(depth int) rule.SimilarityOp {
		if depth == 0 || rng.Intn(2) == 0 {
			c := rule.NewComparison(value(), value(),
				similarity.ByName(measures[rng.Intn(len(measures))]), []float64{0, 0.5, 1, 3, 400}[rng.Intn(5)]*rng.Float64())
			c.SetWeight(1 + rng.Intn(4))
			return c
		}
		aggs := rule.CoreAggregators()
		ops := make([]rule.SimilarityOp, 1+rng.Intn(3))
		for i := range ops {
			ops[i] = sim(depth - 1)
		}
		return &rule.AggregationOp{Function: aggs[rng.Intn(len(aggs))], Operands: ops, W: 1 + rng.Intn(3)}
	}
	return rule.New(sim(2))
}

// TestVotesEqualRuleMatches pins the committee's compiled vote to the
// interpreted one: over random registry rules and random pairs, each
// rule's vote is Rule.Matches, and a committee counts exactly the rules
// whose Matches holds.
func TestVotesEqualRuleMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	props := []string{"name", "label", "date", "place"}
	words := []string{"Berlin", "berlin", "New York", "1999", "2001", "café", "N.Y.C.",
		"2001-05-03", "52.52 13.405", "POINT(13.06 52.39)", "item-007", "ITEM-007"}
	entityOf := func(id string) *entity.Entity {
		e := entity.New(id)
		for _, p := range props {
			for n := rng.Intn(3); n > 0; n-- {
				e.Add(p, words[rng.Intn(len(words))])
			}
		}
		return e
	}
	for trial := 0; trial < 60; trial++ {
		rules := make([]*rule.Rule, 1+rng.Intn(6))
		committee := make([]*evalengine.Scorer, len(rules))
		for i := range rules {
			rules[i] = randomRegistryRule(rng, props)
			committee[i] = evalengine.Compile(rules[i]).Scorer()
		}
		for i := 0; i < 20; i++ {
			a, b := entityOf("a"), entityOf("b")
			if i%5 == 0 {
				b = a
			}
			want := 0
			for j, r := range rules {
				m := r.Matches(a, b)
				if got := votes(committee[j:j+1], a, b) == 1; got != m {
					t.Fatalf("vote %v, Rule.Matches %v\nrule: %s\na: %v\nb: %v", got, m, r.Render(), a, b)
				}
				if m {
					want++
				}
			}
			if got := votes(committee, a, b); got != want {
				t.Fatalf("committee votes %d, Rule.Matches counts %d", got, want)
			}
		}
	}
}

// TestLearnGolden pins a whole active-learning session to the result the
// tree-walk committee (Rule.Matches per rule per pair) produced before
// the committee was compiled: the final rule's signature, the per-round
// training F1, the oracle calls and the labeled pairs in query order.
func TestLearnGolden(t *testing.T) {
	pool, truth, seedLinks := activeTask(60, 1)
	oracle := func(a, b *entity.Entity) bool { return truth[entity.Pair{A: a, B: b}] }
	res, err := Learn(smallActiveConfig(3), pool, seedLinks, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Best.Signature(), `a:max(5*c:numeric@1.022181603743858(p:"code",p:"ref"))`; got != want {
		t.Errorf("best rule signature\n got %s\nwant %s", got, want)
	}
	if want := []float64{1, 1, 1, 1}; !slices.Equal(res.History, want) {
		t.Errorf("history = %v, want %v", res.History, want)
	}
	if res.QueriesAsked != 16 {
		t.Errorf("queries asked = %d, want 16", res.QueriesAsked)
	}
	var labeled []string
	for _, l := range res.Labeled.Positive {
		labeled = append(labeled, "+"+l.A.ID+"/"+l.B.ID)
	}
	for _, l := range res.Labeled.Negative {
		labeled = append(labeled, "-"+l.A.ID+"/"+l.B.ID)
	}
	want := []string{"+a3/b3", "+a46/b46", "+a21/b21", "+a58/b58", "+a14/b14", "+a49/b49", "+a56/b56", "+a7/b7", "+a39/b39",
		"+a47/b47", "+a25/b25", "-a0/b0", "-a57/b57", "-a42/b42", "-a52/b52", "-a11/b11", "-a23/b23", "-a45/b45"}
	if !slices.Equal(labeled, want) {
		t.Errorf("labeled pairs\n got %v\nwant %v", labeled, want)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.QueriesPerRound <= 0 || cfg.Rounds <= 0 || cfg.CommitteeSize <= 0 {
		t.Fatal("defaults must be positive")
	}
}

// The committee must be usable straight from a learner result.
func TestCommitteeFromLearner(t *testing.T) {
	pool, truth, seedLinks := activeTask(30, 4)
	_ = pool
	// Label everything to train one committee.
	refs := seedLinks.Clone()
	for p, m := range truth {
		if m {
			refs.Positive = append(refs.Positive, p)
		} else {
			refs.Negative = append(refs.Negative, p)
		}
	}
	cfg := genlink.DefaultConfig()
	cfg.PopulationSize = 40
	cfg.MaxIterations = 4
	cfg.Seed = 9
	res, err := genlink.NewLearner(cfg).Learn(refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopRules) == 0 {
		t.Fatal("learner returned no committee rules")
	}
	if res.TopRules[0].Compact() != res.Best.Compact() {
		t.Fatal("first committee rule should be the best rule")
	}
	// All committee rules are distinct.
	seen := make(map[string]bool)
	for _, r := range res.TopRules {
		key := r.Compact()
		if seen[key] {
			t.Fatal("duplicate committee rule")
		}
		seen[key] = true
	}
}
