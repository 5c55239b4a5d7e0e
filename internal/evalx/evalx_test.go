package evalx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"genlink/internal/entity"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, TN: 7, FP: 2, FN: 3}
	if got, want := c.Precision(), 0.8; got != want {
		t.Fatalf("precision = %v", got)
	}
	if got, want := c.Recall(), 8.0/11.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("recall = %v", got)
	}
	p, r := 0.8, 8.0/11.0
	if got, want := c.FMeasure(), 2*p*r/(p+r); math.Abs(got-want) > 1e-12 {
		t.Fatalf("f1 = %v", got)
	}
	if got, want := c.Accuracy(), 15.0/20.0; got != want {
		t.Fatalf("accuracy = %v", got)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.FMeasure() != 0 || c.Accuracy() != 0 || c.MCC() != 0 {
		t.Fatal("empty confusion should yield all-zero metrics")
	}
	// All predicted negative: precision undefined → 0.
	c = Confusion{TN: 5, FN: 5}
	if c.Precision() != 0 {
		t.Fatal("precision with no positives should be 0")
	}
}

func TestMCCKnownValues(t *testing.T) {
	// Perfect classifier.
	if got := (Confusion{TP: 10, TN: 10}).MCC(); got != 1 {
		t.Fatalf("perfect MCC = %v", got)
	}
	// Perfectly wrong classifier.
	if got := (Confusion{FP: 10, FN: 10}).MCC(); got != -1 {
		t.Fatalf("inverted MCC = %v", got)
	}
	// Verify a hand-computed case: TP=6,TN=3,FP=1,FN=2.
	c := Confusion{TP: 6, TN: 3, FP: 1, FN: 2}
	want := (6.0*3 - 1.0*2) / math.Sqrt(7*8*4*5)
	if got := c.MCC(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MCC = %v, want %v", got, want)
	}
}

// Property: MCC is always within [-1, 1].
func TestMCCBoundsProperty(t *testing.T) {
	f := func(tp, tn, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), TN: int(tn), FP: int(fp), FN: int(fn)}
		m := c.MCC()
		return m >= -1-1e-12 && m <= 1+1e-12 && !math.IsNaN(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: F-measure within [0,1].
func TestF1BoundsProperty(t *testing.T) {
	f := func(tp, tn, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), TN: int(tn), FP: int(fp), FN: int(fn)}
		v := c.FMeasure()
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func perfectRefs(n int) *entity.ReferenceLinks {
	refs := &entity.ReferenceLinks{}
	for i := 0; i < n; i++ {
		a := entity.New("a")
		a.Add("p", "match")
		b := entity.New("b")
		b.Add("p", "match")
		refs.Positive = append(refs.Positive, entity.Pair{A: a, B: b})
		c := entity.New("c")
		c.Add("p", "first")
		d := entity.New("d")
		d.Add("p", "totally-other")
		refs.Negative = append(refs.Negative, entity.Pair{A: c, B: d})
	}
	return refs
}

func TestEvaluate(t *testing.T) {
	r := rule.New(rule.NewComparison(rule.NewProperty("p"), rule.NewProperty("p"), similarity.Levenshtein(), 1))
	refs := perfectRefs(5)
	c := Evaluate(r, refs)
	if c.TP != 5 || c.TN != 5 || c.FP != 0 || c.FN != 0 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.FMeasure() != 1 || c.MCC() != 1 {
		t.Fatalf("perfect rule should score 1/1, got %v/%v", c.FMeasure(), c.MCC())
	}
}

func TestSplitFoldsStratified(t *testing.T) {
	refs := perfectRefs(10) // 10 pos, 10 neg
	rng := rand.New(rand.NewSource(1))
	folds := SplitFolds(refs, 2, rng)
	if len(folds) != 2 {
		t.Fatalf("folds = %d", len(folds))
	}
	for i, f := range folds {
		if len(f.Positive) != 5 || len(f.Negative) != 5 {
			t.Fatalf("fold %d = %d pos / %d neg, want 5/5", i, len(f.Positive), len(f.Negative))
		}
	}
	// Together the folds hold every link exactly once.
	seen := make(map[entity.Pair]int)
	for _, f := range folds {
		for _, p := range append(f.Positive, f.Negative...) {
			seen[p]++
		}
	}
	for _, p := range append(refs.Positive, refs.Negative...) {
		if seen[p] != 1 {
			t.Fatalf("link %s–%s is in %d folds, want 1", p.A.ID, p.B.ID, seen[p])
		}
	}
}

func TestSplitFoldsMinimumK(t *testing.T) {
	refs := perfectRefs(4)
	folds := SplitFolds(refs, 0, rand.New(rand.NewSource(1)))
	if len(folds) != 2 {
		t.Fatalf("k<2 should clamp to 2, got %d folds", len(folds))
	}
}

func TestSplitFoldsDeterministic(t *testing.T) {
	refs := perfectRefs(8)
	f1 := SplitFolds(refs, 2, rand.New(rand.NewSource(42)))
	f2 := SplitFolds(refs, 2, rand.New(rand.NewSource(42)))
	for i := range f1 {
		if len(f1[i].Positive) != len(f2[i].Positive) {
			t.Fatal("same seed should give same folds")
		}
		for j := range f1[i].Positive {
			if f1[i].Positive[j] != f2[i].Positive[j] {
				t.Fatal("same seed should give identical fold contents")
			}
		}
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample stats should be 0")
	}
	s.Add(2)
	if s.StdDev() != 0 {
		t.Fatal("single-value sample has no spread")
	}
	s.Add(4)
	s.Add(6)
	if got := s.Mean(); got != 4 {
		t.Fatalf("mean = %v", got)
	}
	want := math.Sqrt((4.0 + 0 + 4.0) / 3.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
}

func TestCrossValidationProtocol(t *testing.T) {
	refs := perfectRefs(10)
	cv := CrossValidation{Runs: 3, Seed: 7}
	var seenRuns []int
	agg := cv.Run(refs, func(run int, trainRefs, valRefs *entity.ReferenceLinks) RunResult {
		seenRuns = append(seenRuns, run)
		if trainRefs.Len() == 0 || valRefs.Len() == 0 {
			t.Fatal("folds must be non-empty")
		}
		if trainRefs.Len()+valRefs.Len() != refs.Len() {
			t.Fatal("folds must partition the links")
		}
		return RunResult{TrainF1: 0.9, ValF1: 0.8, Seconds: 1.5}
	})
	if len(seenRuns) != 3 {
		t.Fatalf("runs executed = %d", len(seenRuns))
	}
	if math.Abs(agg.TrainF1.Mean()-0.9) > 1e-12 || math.Abs(agg.ValF1.Mean()-0.8) > 1e-12 {
		t.Fatalf("aggregation wrong: %v/%v", agg.TrainF1.Mean(), agg.ValF1.Mean())
	}
	if agg.Seconds.Mean() != 1.5 {
		t.Fatal("seconds not aggregated")
	}
}

func TestCrossValidationDefaultRuns(t *testing.T) {
	refs := perfectRefs(4)
	cv := CrossValidation{Runs: 0, Seed: 1}
	count := 0
	cv.Run(refs, func(int, *entity.ReferenceLinks, *entity.ReferenceLinks) RunResult {
		count++
		return RunResult{}
	})
	if count != 1 {
		t.Fatalf("Runs=0 should default to 1, got %d", count)
	}
}

// TestConfusionZeroDenominators pins the zero-denominator conventions of
// every metric: each undefined ratio yields 0 rather than NaN.
func TestConfusionZeroDenominators(t *testing.T) {
	cases := []struct {
		name string
		c    Confusion
	}{
		{"empty", Confusion{}},
		{"precision: no predicted positives", Confusion{TN: 3, FN: 2}},
		{"recall: no actual positives", Confusion{TN: 3, FP: 2}},
		{"mcc: TP+FP factor zero", Confusion{TN: 4, FN: 4}},
		{"mcc: TP+FN factor zero", Confusion{TN: 4, FP: 4}},
		{"mcc: TN+FP factor zero", Confusion{TP: 4, FN: 4}},
		{"mcc: TN+FN factor zero", Confusion{TP: 4, FP: 4}},
	}
	for _, tc := range cases {
		for metric, got := range map[string]float64{
			"precision": tc.c.Precision(),
			"recall":    tc.c.Recall(),
			"f1":        tc.c.FMeasure(),
			"mcc":       tc.c.MCC(),
		} {
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("%s: %s is not finite: %v", tc.name, metric, got)
			}
		}
	}
	// The four one-sided matrices have an undefined MCC → 0 by convention.
	for _, c := range []Confusion{{TN: 4, FN: 4}, {TN: 4, FP: 4}, {TP: 4, FN: 4}, {TP: 4, FP: 4}} {
		if got := c.MCC(); got != 0 {
			t.Fatalf("MCC(%+v) = %v, want 0", c, got)
		}
	}
	// F1 with both precision and recall zero must be 0, not NaN.
	if got := (Confusion{FP: 3, FN: 3}).FMeasure(); got != 0 {
		t.Fatalf("F1 with p=r=0 should be 0, got %v", got)
	}
	// Sanity: a perfect matrix still reports 1 everywhere it should.
	perfect := Confusion{TP: 5, TN: 5}
	if perfect.Precision() != 1 || perfect.Recall() != 1 || perfect.FMeasure() != 1 || perfect.MCC() != 1 {
		t.Fatalf("perfect matrix mis-scored: %+v", perfect)
	}
}

// TestEvaluateMatchesTreeWalk checks the delegation to the compiled
// engine: Evaluate and the interpreted reference must agree.
func TestEvaluateMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	refs := &entity.ReferenceLinks{}
	for i := 0; i < 30; i++ {
		a := entity.New(fmt.Sprintf("a%d", i))
		a.Add("name", fmt.Sprintf("entity %d", i))
		b := entity.New(fmt.Sprintf("b%d", i))
		b.Add("name", fmt.Sprintf("entity %d", i+rng.Intn(2)))
		p := entity.Pair{A: a, B: b}
		if i%2 == 0 {
			refs.Positive = append(refs.Positive, p)
		} else {
			refs.Negative = append(refs.Negative, p)
		}
	}
	r := rule.New(rule.NewComparison(
		rule.NewProperty("name"), rule.NewProperty("name"),
		similarity.Levenshtein(), 1))
	if got, want := Evaluate(r, refs), treeWalk(r, refs); got != want {
		t.Fatalf("Evaluate %+v != tree-walk %+v", got, want)
	}
}

// treeWalk is the interpreted reference evaluation: classify every
// reference link with Rule.Matches and tally the confusion matrix.
func treeWalk(r *rule.Rule, refs *entity.ReferenceLinks) Confusion {
	var c Confusion
	for _, p := range refs.Positive {
		if r.Matches(p.A, p.B) {
			c.TP++
		} else {
			c.FN++
		}
	}
	for _, p := range refs.Negative {
		if r.Matches(p.A, p.B) {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}
