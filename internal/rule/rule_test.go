package rule

import (
	"math"
	"strings"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// figure2Rule builds the example rule of Figure 2: min aggregation of a
// label comparison (lowercased, levenshtein θ=1) and a geographic
// comparison.
func figure2Rule() *Rule {
	labelCmp := NewComparison(
		NewTransform(transform.LowerCase(), NewProperty("label")),
		NewTransform(transform.LowerCase(), NewProperty("label")),
		similarity.Levenshtein(), 1)
	geoCmp := NewComparison(
		NewProperty("coord"), NewProperty("point"),
		similarity.Geographic(), 50_000)
	return New(NewAggregation(Min(), labelCmp, geoCmp))
}

func cityPair(labelB, coordB string) (*entity.Entity, *entity.Entity) {
	a := entity.New("a/berlin")
	a.Add("label", "Berlin")
	a.Add("coord", "52.52 13.405")
	b := entity.New("b/berlin")
	b.Add("label", labelB)
	b.Add("point", coordB)
	return a, b
}

func TestFigure2RuleMatches(t *testing.T) {
	r := figure2Rule()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := cityPair("berlin", "52.52 13.405")
	if !r.Matches(a, b) {
		t.Fatalf("rule should match identical city, score %v", r.Evaluate(a, b))
	}
	// Case difference is normalized away by lowerCase.
	a2, b2 := cityPair("BERLIN", "52.521 13.406")
	if !r.Matches(a2, b2) {
		t.Fatalf("rule should match case-variant city, score %v", r.Evaluate(a2, b2))
	}
	// Same label but ~really far away: min aggregation rejects.
	a3, b3 := cityPair("Berlin", "40.44 -79.99") // Berlin, PA-ish
	if r.Matches(a3, b3) {
		t.Fatalf("rule should reject far-away homonym, score %v", r.Evaluate(a3, b3))
	}
	// Very different label nearby: rejected too.
	a4, b4 := cityPair("Potsdam", "52.52 13.405")
	if r.Matches(a4, b4) {
		t.Fatalf("rule should reject different label, score %v", r.Evaluate(a4, b4))
	}
}

func TestComparisonSemantics(t *testing.T) {
	// Definition 7: score = 1 − d/θ if d ≤ θ else 0.
	cmp := NewComparison(NewProperty("p"), NewProperty("p"), similarity.Levenshtein(), 2)
	a := entity.New("a")
	a.Add("p", "abcd")
	mk := func(v string) *entity.Entity {
		e := entity.New("b")
		e.Add("p", v)
		return e
	}
	if got := cmp.Evaluate(a, mk("abcd")); got != 1 {
		t.Fatalf("d=0: score = %v, want 1", got)
	}
	if got := cmp.Evaluate(a, mk("abcx")); got != 0.5 {
		t.Fatalf("d=1,θ=2: score = %v, want 0.5", got)
	}
	if got := cmp.Evaluate(a, mk("abxy")); got != 0 {
		t.Fatalf("d=2,θ=2: score = %v, want 0", got)
	}
	if got := cmp.Evaluate(a, mk("wxyz")); got != 0 {
		t.Fatalf("d=4 > θ: score = %v, want 0", got)
	}
}

func TestComparisonMissingValues(t *testing.T) {
	cmp := NewComparison(NewProperty("p"), NewProperty("p"), similarity.Levenshtein(), 2)
	a := entity.New("a") // property unset → distance +Inf → score 0
	b := entity.New("b")
	b.Add("p", "x")
	if got := cmp.Evaluate(a, b); got != 0 {
		t.Fatalf("missing value score = %v, want 0", got)
	}
}

func TestComparisonZeroThreshold(t *testing.T) {
	cmp := NewComparison(NewProperty("p"), NewProperty("p"), similarity.Levenshtein(), 0)
	a := entity.New("a")
	a.Add("p", "x")
	b := entity.New("b")
	b.Add("p", "x")
	if got := cmp.Evaluate(a, b); got != 1 {
		t.Fatalf("θ=0 exact match = %v, want 1", got)
	}
	b2 := entity.New("b2")
	b2.Add("p", "y")
	if got := cmp.Evaluate(a, b2); got != 0 {
		t.Fatalf("θ=0 mismatch = %v, want 0", got)
	}
}

func TestAggregators(t *testing.T) {
	scores := []float64{0.2, 0.8, 0.5}
	weights := []int{1, 1, 2}
	if got := Min().Combine(scores, weights); got != 0.2 {
		t.Fatalf("min = %v", got)
	}
	if got := Max().Combine(scores, weights); got != 0.8 {
		t.Fatalf("max = %v", got)
	}
	want := (0.2 + 0.8 + 2*0.5) / 4
	if got := WMean().Combine(scores, weights); math.Abs(got-want) > 1e-12 {
		t.Fatalf("wmean = %v, want %v", got, want)
	}
}

func TestWMeanZeroWeights(t *testing.T) {
	if got := WMean().Combine([]float64{0.5}, []int{0}); got != 0 {
		t.Fatalf("wmean zero weights = %v, want 0", got)
	}
}

func TestWMeanMissingWeights(t *testing.T) {
	// Fewer weights than scores: missing entries default to 1.
	got := WMean().Combine([]float64{1, 0}, []int{3})
	if want := 3.0 / 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("wmean defaulted = %v, want %v", got, want)
	}
}

func TestEmptyAggregationScoresZero(t *testing.T) {
	agg := NewAggregation(Min())
	a, b := entity.New("a"), entity.New("b")
	if got := agg.Evaluate(a, b); got != 0 {
		t.Fatalf("empty aggregation = %v, want 0", got)
	}
}

func TestNestedAggregation(t *testing.T) {
	// max(min(c1,c2), c3) — a non-linear hierarchy.
	mkCmp := func(p string) *ComparisonOp {
		return NewComparison(NewProperty(p), NewProperty(p), similarity.Equality(), 0.5)
	}
	r := New(NewAggregation(Max(),
		NewAggregation(Min(), mkCmp("x"), mkCmp("y")),
		mkCmp("z")))
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := entity.New("a"), entity.New("b")
	a.Set("x", "1")
	b.Set("x", "1")
	a.Set("y", "2")
	b.Set("y", "DIFFERENT")
	a.Set("z", "3")
	b.Set("z", "3")
	// min(1,0)=0, max(0, 1)=1.
	if got := r.Evaluate(a, b); got != 1 {
		t.Fatalf("nested = %v, want 1", got)
	}
}

func TestRuleNilSafety(t *testing.T) {
	var r *Rule
	if r.Evaluate(entity.New("a"), entity.New("b")) != 0 {
		t.Fatal("nil rule should evaluate to 0")
	}
	empty := &Rule{}
	if empty.Evaluate(entity.New("a"), entity.New("b")) != 0 {
		t.Fatal("empty rule should evaluate to 0")
	}
	if empty.OperatorCount() != 0 {
		t.Fatal("empty rule should have 0 operators")
	}
	if empty.Validate() == nil {
		t.Fatal("empty rule should fail validation")
	}
	c := empty.Clone()
	if c == nil || c.Root != nil {
		t.Fatal("cloning empty rule")
	}
}

func TestOperatorCount(t *testing.T) {
	r := figure2Rule()
	// agg(1) + cmp(1)+transform(1)+prop(1)+transform(1)+prop(1) + cmp(1)+prop(1)+prop(1) = 9
	if got := r.OperatorCount(); got != 9 {
		t.Fatalf("OperatorCount = %d, want 9", got)
	}
}

func TestComputeStats(t *testing.T) {
	s := figure2Rule().ComputeStats()
	if s.Comparisons != 2 || s.Aggregations != 1 || s.Transformations != 2 || s.Properties != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCloneDeep(t *testing.T) {
	r := figure2Rule()
	c := r.Clone()
	// Mutate the clone thoroughly.
	c.Comparisons()[0].Threshold = 99
	c.Comparisons()[1].SetWeight(42)
	c.Aggregations()[0].Function = Max()
	c.Transformations()[0].Function = transform.UpperCase()
	c.Properties()[0].Property = "zzz"

	if r.Comparisons()[0].Threshold == 99 {
		t.Fatal("clone shares comparison")
	}
	if r.Comparisons()[1].Weight() == 42 {
		t.Fatal("clone shares weight")
	}
	if r.Aggregations()[0].Function.Name() == "max" {
		t.Fatal("clone shares aggregation")
	}
	if r.Transformations()[0].Function.Name() == "upperCase" {
		t.Fatal("clone shares transform")
	}
	if r.Properties()[0].Property == "zzz" {
		t.Fatal("clone shares property")
	}
}

func TestWalkCollections(t *testing.T) {
	r := figure2Rule()
	if got := len(r.Comparisons()); got != 2 {
		t.Fatalf("Comparisons = %d", got)
	}
	if got := len(r.Aggregations()); got != 1 {
		t.Fatalf("Aggregations = %d", got)
	}
	if got := len(r.SimilarityOps()); got != 3 {
		t.Fatalf("SimilarityOps = %d", got)
	}
	if got := len(r.Transformations()); got != 2 {
		t.Fatalf("Transformations = %d", got)
	}
	if got := len(r.Properties()); got != 4 {
		t.Fatalf("Properties = %d", got)
	}
}

func TestReplaceSim(t *testing.T) {
	r := figure2Rule()
	oldCmp := r.Comparisons()[0]
	newCmp := NewComparison(NewProperty("x"), NewProperty("y"), similarity.Jaccard(), 0.5)
	root := ReplaceSim(r.Root, oldCmp, newCmp)
	r2 := New(root)
	if r2.Comparisons()[0] != newCmp {
		t.Fatal("ReplaceSim did not substitute child")
	}
	// Replacing the root returns the new op.
	if got := ReplaceSim(r.Root, r.Root, newCmp); got != SimilarityOp(newCmp) {
		t.Fatal("ReplaceSim at root should return new op")
	}
}

func TestReplaceValue(t *testing.T) {
	r := figure2Rule()
	cmp := r.Comparisons()[0]
	oldVal := cmp.InputA
	newVal := NewProperty("replaced")
	if !ReplaceValue(r.Root, oldVal, newVal) {
		t.Fatal("ReplaceValue reported no replacement")
	}
	if cmp.InputA != ValueOp(newVal) {
		t.Fatal("InputA not replaced")
	}
	// Replacing inside a transform chain.
	chain := NewTransform(transform.Tokenize(), NewTransform(transform.LowerCase(), NewProperty("deep")))
	cmp.InputB = chain
	inner := chain.Inputs[0]
	if !ReplaceValue(r.Root, inner, NewProperty("shallow")) {
		t.Fatal("nested ReplaceValue failed")
	}
}

func TestValidateCatchesBadTrees(t *testing.T) {
	bad := []*Rule{
		New(&ComparisonOp{InputA: NewProperty("p"), InputB: nil, Measure: similarity.Levenshtein(), Threshold: 1, W: 1}),
		New(&ComparisonOp{InputA: NewProperty("p"), InputB: NewProperty("q"), Measure: nil, Threshold: 1, W: 1}),
		New(&ComparisonOp{InputA: NewProperty("p"), InputB: NewProperty("q"), Measure: similarity.Levenshtein(), Threshold: -1, W: 1}),
		New(&ComparisonOp{InputA: NewProperty("p"), InputB: NewProperty("q"), Measure: similarity.Levenshtein(), Threshold: 1, W: -3}),
		New(&ComparisonOp{InputA: NewProperty(""), InputB: NewProperty("q"), Measure: similarity.Levenshtein(), Threshold: 1, W: 1}),
		New(NewAggregation(Min())),
		New(&AggregationOp{Function: nil, Operands: []SimilarityOp{NewComparison(NewProperty("p"), NewProperty("q"), similarity.Levenshtein(), 1)}, W: 1}),
		New(NewComparison(NewTransform(transform.LowerCase()), NewProperty("q"), similarity.Levenshtein(), 1)),
		New(NewComparison(NewTransform(transform.LowerCase(), NewProperty("a"), NewProperty("b")), NewProperty("q"), similarity.Levenshtein(), 1)),
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid rule %s", i, r.Compact())
		}
	}
}

func TestRenderContainsStructure(t *testing.T) {
	out := figure2Rule().Render()
	for _, want := range []string{"Aggregation[min", "Comparison[levenshtein", "Transform[lowerCase]", "Property[label]", "Comparison[geographic", "Property[coord]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	if (&Rule{}).Render() != "(empty rule)\n" {
		t.Error("empty render")
	}
}

func TestCompactNotation(t *testing.T) {
	got := figure2Rule().Compact()
	want := "min(cmp(levenshtein,1)(lowerCase(label), lowerCase(label)), cmp(geographic,5e+04)(coord, point))"
	if got != want {
		t.Fatalf("Compact = %q, want %q", got, want)
	}
	if (&Rule{}).Compact() != "∅" {
		t.Error("empty compact")
	}
}

func TestAggregatorRegistry(t *testing.T) {
	for _, agg := range CoreAggregators() {
		if a := AggregatorByName(agg.Name()); a == nil || a.Name() != agg.Name() {
			t.Fatalf("registry broken for %q", agg.Name())
		}
	}
	if AggregatorByName("nope") != nil {
		t.Fatal("unknown aggregator should be nil")
	}
	if len(CoreAggregators()) != 3 {
		t.Fatal("Table 3 has 3 aggregators")
	}
}

func TestMatchThresholdBoundary(t *testing.T) {
	cmp := NewComparison(NewProperty("p"), NewProperty("p"), similarity.Levenshtein(), 2)
	r := New(cmp)
	a := entity.New("a")
	a.Add("p", "ab")
	b := entity.New("b")
	b.Add("p", "ax") // d=1, θ=2 → score exactly 0.5
	if !r.Matches(a, b) {
		t.Fatal("score exactly 0.5 must link (l ≥ 0.5)")
	}
}
