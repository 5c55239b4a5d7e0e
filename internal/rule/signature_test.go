package rule

import (
	"testing"

	"genlink/internal/similarity"
	"genlink/internal/transform"
)

func TestValueSignatureDistinguishesStructure(t *testing.T) {
	p := NewProperty("label")
	lower := NewTransform(transform.LowerCase(), NewProperty("label"))
	tok := NewTransform(transform.Tokenize(), NewProperty("label"))
	chain := NewTransform(transform.Tokenize(), NewTransform(transform.LowerCase(), NewProperty("label")))

	sigs := map[string]bool{}
	for _, op := range []ValueOp{p, lower, tok, chain} {
		s := ValueSignature(op)
		if sigs[s] {
			t.Fatalf("duplicate signature %q", s)
		}
		sigs[s] = true
	}

	if ValueSignature(lower) != ValueSignature(lower.CloneValue()) {
		t.Fatal("clone must share the signature")
	}
}

func TestValueSignatureQuotesPropertyNames(t *testing.T) {
	// A hostile property name must not collide with transform syntax.
	tricky := NewProperty(`lowerCase(label)`)
	wrapped := NewTransform(transform.LowerCase(), NewProperty("label"))
	if ValueSignature(tricky) == ValueSignature(wrapped) {
		t.Fatal("property name collided with transform signature")
	}
}

func TestSimSignatureThresholdExact(t *testing.T) {
	a := NewComparison(NewProperty("x"), NewProperty("y"), similarity.Levenshtein(), 0.123456789)
	b := NewComparison(NewProperty("x"), NewProperty("y"), similarity.Levenshtein(), 0.123456788)
	if SimSignature(a) == SimSignature(b) {
		t.Fatal("distinct thresholds must yield distinct signatures")
	}
	// Compact, by contrast, rounds them together — the signature is the
	// memoization-safe generalization.
	if New(a).Compact() != New(b).Compact() {
		t.Log("Compact distinguishes them too on this input; signature still must")
	}
}

func TestSimSignatureExcludesOwnWeight(t *testing.T) {
	a := NewComparison(NewProperty("x"), NewProperty("y"), similarity.Levenshtein(), 1)
	b := NewComparison(NewProperty("x"), NewProperty("y"), similarity.Levenshtein(), 1)
	b.SetWeight(7)
	if SimSignature(a) != SimSignature(b) {
		t.Fatal("an operator's own weight must not enter its signature")
	}
	// ...but the enclosing aggregation must see the weight.
	aggA := NewAggregation(WMean(), a.CloneSim())
	aggB := NewAggregation(WMean(), b.CloneSim())
	if SimSignature(aggA) == SimSignature(aggB) {
		t.Fatal("aggregation signature must include operand weights")
	}
}

func TestSimSignatureCommutativeSorting(t *testing.T) {
	c1 := NewComparison(NewProperty("x"), NewProperty("y"), similarity.Levenshtein(), 1)
	c2 := NewComparison(NewProperty("a"), NewProperty("b"), similarity.Jaccard(), 0.5)
	fwd := NewAggregation(Min(), c1, c2)
	rev := NewAggregation(Min(), c2.CloneSim(), c1.CloneSim())
	if SimSignature(fwd) != SimSignature(rev) {
		t.Fatal("commutative aggregation must ignore operand order")
	}
}

func TestRuleSignatureNilSafety(t *testing.T) {
	var r *Rule
	if got := r.Signature(); got != "∅" {
		t.Fatalf("nil rule signature = %q", got)
	}
	if got := (&Rule{}).Signature(); got != "∅" {
		t.Fatalf("empty rule signature = %q", got)
	}
}
