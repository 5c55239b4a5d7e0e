// Package active implements the query-by-committee active learning
// extension the paper points to (Isele, Jentzsch & Bizer, "Active learning
// of expressive linkage rules for the web of data", ICWE 2012 — reference
// [21]): instead of requiring a large set of reference links up front, the
// learner iteratively selects the unlabeled entity pairs about which a
// committee of learned rules disagrees most and asks an oracle (the human
// expert) to confirm or reject them.
package active

import (
	"errors"
	"math/rand"
	"sort"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/genlink"
	"genlink/internal/rule"
)

// Oracle labels an entity pair: true means the pair matches. In
// experiments the oracle is the ground truth; in production it is a human.
type Oracle func(a, b *entity.Entity) bool

// Config controls the active learning loop.
type Config struct {
	// Learner configures the inner GenLink runs.
	Learner genlink.Config
	// QueriesPerRound is how many pairs the oracle labels per iteration.
	QueriesPerRound int
	// Rounds bounds the number of query rounds.
	Rounds int
	// CommitteeSize caps the rule committee used to score disagreement.
	CommitteeSize int
	// ExplorationFraction is the share of each round's queries drawn
	// uniformly at random instead of by disagreement. Pure exploitation
	// concentrates the labeled set on ambiguous corner cases and can make
	// it unrepresentative; a 25% random mix is the usual remedy.
	ExplorationFraction float64
	// Seed drives candidate sampling.
	Seed int64
}

// DefaultConfig returns sensible defaults (5 queries over 10 rounds, as in
// the reference's evaluation scale).
func DefaultConfig() Config {
	lcfg := genlink.DefaultConfig()
	lcfg.PopulationSize = 100
	lcfg.MaxIterations = 10
	return Config{
		Learner:             lcfg,
		QueriesPerRound:     5,
		Rounds:              10,
		CommitteeSize:       10,
		ExplorationFraction: 0.25,
		Seed:                1,
	}
}

// Result is the outcome of an active learning session.
type Result struct {
	// Best is the final learned rule.
	Best *rule.Rule
	// Labeled is the reference link set accumulated through queries.
	Labeled *entity.ReferenceLinks
	// QueriesAsked counts oracle invocations.
	QueriesAsked int
	// History records the training F1 after each round.
	History []float64
}

// Learn runs the active learning loop over a pool of unlabeled candidate
// pairs. seedLinks must contain at least one positive and one negative
// link to bootstrap the first committee.
func Learn(cfg Config, pool []entity.Pair, seedLinks *entity.ReferenceLinks, oracle Oracle) (*Result, error) {
	if oracle == nil {
		return nil, errors.New("active: oracle required")
	}
	if seedLinks == nil || len(seedLinks.Positive) == 0 || len(seedLinks.Negative) == 0 {
		return nil, errors.New("active: seed links need at least one positive and one negative")
	}
	if cfg.QueriesPerRound <= 0 {
		cfg.QueriesPerRound = DefaultConfig().QueriesPerRound
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultConfig().Rounds
	}
	if cfg.CommitteeSize <= 0 {
		cfg.CommitteeSize = DefaultConfig().CommitteeSize
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	labeled := seedLinks.Clone()
	remaining := append([]entity.Pair(nil), pool...)
	res := &Result{Labeled: labeled}

	for round := 0; round < cfg.Rounds; round++ {
		lcfg := cfg.Learner
		lcfg.Seed = cfg.Seed + int64(round)*7907
		learned, err := genlink.NewLearner(lcfg).Learn(labeled)
		if err != nil {
			return nil, err
		}
		res.Best = learned.Best
		res.History = append(res.History, learned.BestTrainF1)

		if len(remaining) == 0 {
			break
		}
		// Each committee rule is compiled once per round; its scorer
		// builds every pool entity's record once.
		committee := make([]*evalengine.Scorer, min(len(learned.TopRules), cfg.CommitteeSize))
		for i := range committee {
			committee[i] = evalengine.Compile(learned.TopRules[i]).Scorer()
		}

		// Score every remaining pair by committee disagreement; break ties
		// randomly so repeated rounds explore different regions.
		type scored struct {
			idx int
			dis float64
			tie float64
		}
		scores := make([]scored, len(remaining))
		for i, p := range remaining {
			scores[i] = scored{idx: i, dis: Disagreement(committee, p.A, p.B), tie: rng.Float64()}
		}
		sort.Slice(scores, func(i, j int) bool {
			if scores[i].dis != scores[j].dis {
				return scores[i].dis > scores[j].dis
			}
			return scores[i].tie < scores[j].tie
		})

		n := cfg.QueriesPerRound
		if n > len(scores) {
			n = len(scores)
		}
		explore := int(float64(n) * cfg.ExplorationFraction)
		taken := make(map[int]bool, n)
		label := func(idx int) {
			p := remaining[idx]
			if oracle(p.A, p.B) {
				labeled.Positive = append(labeled.Positive, p)
			} else {
				labeled.Negative = append(labeled.Negative, p)
			}
			res.QueriesAsked++
			taken[idx] = true
		}
		// Exploitation: the highest-disagreement pairs.
		for _, s := range scores[:n-explore] {
			label(s.idx)
		}
		// Exploration: uniformly random unlabeled pairs.
		for len(taken) < n {
			idx := rng.Intn(len(remaining))
			if taken[idx] {
				continue
			}
			label(idx)
		}
		next := remaining[:0]
		for i, p := range remaining {
			if !taken[i] {
				next = append(next, p)
			}
		}
		remaining = next
	}
	return res, nil
}

// Disagreement returns the vote-entropy-style disagreement of a committee
// on a pair: 0 when all rules agree, 1 when the committee splits evenly.
// The committee is given as its rules' compiled scorers
// (evalengine.Compile(r).Scorer()).
func Disagreement(committee []*evalengine.Scorer, a, b *entity.Entity) float64 {
	if len(committee) == 0 {
		return 0
	}
	frac := float64(votes(committee, a, b)) / float64(len(committee))
	// Scaled binary entropy surrogate: 4·p·(1−p) peaks at an even split.
	return 4 * frac * (1 - frac)
}

// votes counts the committee members that link the pair. A scorer's score
// is Rule.Evaluate's bit for bit, so each vote is Rule.Matches.
func votes(committee []*evalengine.Scorer, a, b *entity.Entity) int {
	n := 0
	for _, s := range committee {
		if s.Score(a, b) >= rule.MatchThreshold {
			n++
		}
	}
	return n
}
