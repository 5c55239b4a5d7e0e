package rule

import (
	"math/rand"
	"testing"
	"testing/quick"

	"genlink/internal/entity"
	"genlink/internal/similarity"
)

func cmpOn(p string, threshold float64) *ComparisonOp {
	return NewComparison(NewProperty(p), NewProperty(p), similarity.Levenshtein(), threshold)
}

func TestSimplifySingleOperandAggregation(t *testing.T) {
	inner := cmpOn("x", 1)
	agg := NewAggregation(Min(), inner)
	agg.SetWeight(7)
	r := New(agg)
	s := r.Simplify()
	c, ok := s.Root.(*ComparisonOp)
	if !ok {
		t.Fatalf("Simplify did not hoist single operand: %s", s.Compact())
	}
	if c.Weight() != 7 {
		t.Fatalf("hoisted operand lost aggregation weight: %d", c.Weight())
	}
}

func TestSimplifyFlattensNestedMin(t *testing.T) {
	r := New(NewAggregation(Min(),
		cmpOn("a", 1),
		NewAggregation(Min(), cmpOn("b", 1), cmpOn("c", 1))))
	s := r.Simplify()
	aggs := s.Aggregations()
	if len(aggs) != 1 {
		t.Fatalf("nested min not flattened: %s", s.Compact())
	}
	if len(aggs[0].Operands) != 3 {
		t.Fatalf("flattened min has %d operands", len(aggs[0].Operands))
	}
}

func TestSimplifyDoesNotFlattenWMean(t *testing.T) {
	r := New(NewAggregation(WMean(),
		cmpOn("a", 1),
		NewAggregation(WMean(), cmpOn("b", 1), cmpOn("c", 1))))
	s := r.Simplify()
	if len(s.Aggregations()) != 2 {
		t.Fatalf("wmean must not be flattened (weights differ): %s", s.Compact())
	}
}

func TestSimplifyDoesNotFlattenMixedFunctions(t *testing.T) {
	r := New(NewAggregation(Min(),
		cmpOn("a", 1),
		NewAggregation(Max(), cmpOn("b", 1), cmpOn("c", 1))))
	s := r.Simplify()
	if len(s.Aggregations()) != 2 {
		t.Fatalf("min(max(...)) must be preserved: %s", s.Compact())
	}
}

func TestSimplifyDeduplicatesSiblings(t *testing.T) {
	r := New(NewAggregation(Max(), cmpOn("a", 1), cmpOn("a", 1), cmpOn("b", 2)))
	s := r.Simplify()
	if got := len(s.Aggregations()[0].Operands); got != 2 {
		t.Fatalf("duplicate siblings not removed: %d operands in %s", got, s.Compact())
	}
}

func TestSimplifyPreservesOriginal(t *testing.T) {
	r := New(NewAggregation(Min(), cmpOn("a", 1)))
	before := r.Compact()
	r.Simplify()
	if r.Compact() != before {
		t.Fatal("Simplify mutated the original rule")
	}
}

func TestSimplifyEmpty(t *testing.T) {
	if (&Rule{}).Simplify().Root != nil {
		t.Fatal("empty rule should simplify to empty")
	}
	var nilRule *Rule
	if nilRule.Simplify().Root != nil {
		t.Fatal("nil rule should simplify to empty")
	}
}

// weighted sets op's weight and returns it.
func weighted(op SimilarityOp, w int) SimilarityOp {
	op.SetWeight(w)
	return op
}

// TestSimplifyKeepsSiblingsThatScoreDifferently pins that min/max
// deduplication merges only siblings with equal scores on every pair:
// siblings whose thresholds agree to three significant digits, or whose
// weighted means differ only in operand weights, both render alike in
// Compact but score differently. It also pins that a single-operand
// weighted mean whose operand weight is not 1 stays: its score w·s/w is
// not bitwise s (here 0.66666666666666663 against 0.66666666666666674).
func TestSimplifyKeepsSiblingsThatScoreDifferently(t *testing.T) {
	wmean := func(w1, w3 int) SimilarityOp {
		return NewAggregation(WMean(), weighted(cmpOn("p", 1), w1), weighted(cmpOn("p", 3), w3))
	}
	cases := []struct {
		name     string
		root     SimilarityOp
		operands int     // operands the simplified root keeps
		want     float64 // score of the pair, before and after Simplify
	}{
		{
			name:     "thresholds equal to three digits",
			root:     NewAggregation(Min(), cmpOn("p", 2.0004), cmpOn("p", 2.0001)),
			operands: 2,
			want:     1 - 1/2.0001,
		},
		{
			name:     "wmeans differing only in operand weights",
			root:     NewAggregation(Min(), wmean(1, 2), wmean(2, 1)),
			operands: 2,
			want:     (1 - 1.0/3) / 3,
		},
		{
			name:     "single-operand wmean with operand weight 3",
			root:     NewAggregation(WMean(), weighted(cmpOn("p", 3), 3)),
			operands: 1,
			want:     1 - 1.0/3,
		},
		{
			name:     "same comparison under different own weights",
			root:     NewAggregation(Max(), weighted(cmpOn("p", 2), 1), weighted(cmpOn("p", 2), 5)),
			operands: 1,
			want:     0.5,
		},
	}
	a, b := entity.New("a"), entity.New("b")
	a.Add("p", "abcd")
	b.Add("p", "abce")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New(tc.root)
			s := r.Simplify()
			got, simplified := r.Evaluate(a, b), s.Evaluate(a, b)
			if diff := got - tc.want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("rule scores %v, want %v", got, tc.want)
			}
			if simplified != got {
				t.Fatalf("Simplify changed the score %v → %v:\n%s\n%s", got, simplified, r.Compact(), s.Compact())
			}
			n := 1
			if agg, ok := s.Root.(*AggregationOp); ok {
				n = len(agg.Operands)
			}
			if n != tc.operands {
				t.Fatalf("simplified root has %d operands, want %d: %s", n, tc.operands, s.Compact())
			}
		})
	}
}

// Property: Simplify output still validates and is never larger.
func TestSimplifyShrinksProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(randomRule(rng, 3))
		s := r.Simplify()
		if s.Validate() != nil {
			return false
		}
		return s.OperatorCount() <= r.OperatorCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
