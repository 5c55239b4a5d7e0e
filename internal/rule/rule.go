// Package rule implements the expressive linkage rule representation of
// Section 3 of the paper: a strongly-typed operator tree built from four
// basic operators (property, transformation, comparison, aggregation).
//
// Value operators (property, transformation) yield a value set for one
// entity (Definitions 5 and 6). Similarity operators (comparison,
// aggregation) yield a similarity score in [0,1] for a pair of entities
// (Definitions 7 and 8). A rule links a pair iff its root similarity score
// is ≥ 0.5 (Definition 3).
package rule

import (
	"fmt"
	"math"
	"slices"

	"genlink/internal/entity"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// MatchThreshold is the fixed link-generation threshold of Definition 3.
const MatchThreshold = 0.5

// ValueOp yields a discriminative value set for a single entity
// (a member of V := [A ∪ B → Σ] in the paper's notation). The set of
// value operators is closed: PropertyOp and TransformOp are its only
// implementations.
type ValueOp interface {
	// Evaluate returns the operator's value set for the entity.
	Evaluate(e *entity.Entity) []string
	// CloneValue returns a deep copy of the operator subtree.
	CloneValue() ValueOp
	// Count returns the number of operators in the subtree.
	Count() int

	valueOp()
}

// SimilarityOp yields a similarity score in [0,1] for a pair of entities
// (a member of S := [A × B → [0,1]]). The set of similarity operators is
// closed: ComparisonOp and AggregationOp are its only implementations.
type SimilarityOp interface {
	// Evaluate returns the similarity of the pair in [0,1].
	Evaluate(a, b *entity.Entity) float64
	// CloneSim returns a deep copy of the operator subtree.
	CloneSim() SimilarityOp
	// Weight returns the weight used by a parent weighted aggregation.
	Weight() int
	// SetWeight updates the weight.
	SetWeight(w int)
	// Count returns the number of operators in the subtree.
	Count() int

	similarityOp()
}

// PropertyOp retrieves all values of a property of an entity (Definition 5).
type PropertyOp struct {
	// Property is the property name to retrieve.
	Property string
}

// NewProperty returns a property operator for p.
func NewProperty(p string) *PropertyOp { return &PropertyOp{Property: p} }

// Evaluate implements ValueOp.
func (o *PropertyOp) Evaluate(e *entity.Entity) []string { return e.Values(o.Property) }

// CloneValue implements ValueOp.
func (o *PropertyOp) CloneValue() ValueOp { c := *o; return &c }

func (o *PropertyOp) Count() int { return 1 }

func (*PropertyOp) valueOp() {}

// TransformOp transforms the value sets of its inputs with a transformation
// function (Definition 6). Transformations may be nested to form chains.
type TransformOp struct {
	// Function is the transformation applied to the input value sets.
	Function transform.Transformation
	// Inputs are the value operators feeding the transformation.
	Inputs []ValueOp
}

// NewTransform returns a transformation operator applying fn to the inputs.
func NewTransform(fn transform.Transformation, inputs ...ValueOp) *TransformOp {
	return &TransformOp{Function: fn, Inputs: inputs}
}

// Evaluate implements ValueOp.
func (o *TransformOp) Evaluate(e *entity.Entity) []string {
	in := make([][]string, len(o.Inputs))
	for i, op := range o.Inputs {
		in[i] = op.Evaluate(e)
	}
	return o.Function.Apply(in...)
}

// CloneValue implements ValueOp.
func (o *TransformOp) CloneValue() ValueOp {
	c := &TransformOp{Function: o.Function, Inputs: make([]ValueOp, len(o.Inputs))}
	for i, in := range o.Inputs {
		c.Inputs[i] = in.CloneValue()
	}
	return c
}

func (o *TransformOp) Count() int {
	n := 1
	for _, in := range o.Inputs {
		n += in.Count()
	}
	return n
}

func (*TransformOp) valueOp() {}

// ComparisonOp compares the value sets of two value operators with a
// distance measure and threshold (Definition 7):
//
//	score = 1 − d/θ  if d ≤ θ, else 0, with d = f_d(v_a(e_a), v_b(e_b)).
type ComparisonOp struct {
	// InputA is evaluated against entities of source A.
	InputA ValueOp
	// InputB is evaluated against entities of source B.
	InputB ValueOp
	// Measure is the distance measure f_d.
	Measure similarity.Measure
	// Threshold is the maximum accepted distance θ.
	Threshold float64
	// W is the weight used by a parent weighted aggregation.
	W int
}

// NewComparison returns a comparison operator with weight 1.
func NewComparison(a, b ValueOp, m similarity.Measure, threshold float64) *ComparisonOp {
	return &ComparisonOp{InputA: a, InputB: b, Measure: m, Threshold: threshold, W: 1}
}

// Evaluate implements SimilarityOp.
func (o *ComparisonOp) Evaluate(a, b *entity.Entity) float64 {
	d := o.Measure.Distance(o.InputA.Evaluate(a), o.InputB.Evaluate(b))
	if math.IsInf(d, 1) || math.IsNaN(d) {
		return 0
	}
	if o.Threshold <= 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	if d > o.Threshold {
		return 0
	}
	return 1 - d/o.Threshold
}

// CloneSim implements SimilarityOp.
func (o *ComparisonOp) CloneSim() SimilarityOp {
	return &ComparisonOp{
		InputA:    o.InputA.CloneValue(),
		InputB:    o.InputB.CloneValue(),
		Measure:   o.Measure,
		Threshold: o.Threshold,
		W:         o.W,
	}
}

// Weight implements SimilarityOp.
func (o *ComparisonOp) Weight() int { return o.W }

// SetWeight implements SimilarityOp.
func (o *ComparisonOp) SetWeight(w int) { o.W = w }

func (o *ComparisonOp) Count() int { return 1 + o.InputA.Count() + o.InputB.Count() }

func (*ComparisonOp) similarityOp() {}

// Aggregator combines the similarity scores of an aggregation's operands
// (f_a of Definition 8). The set of aggregators is closed: Min, Max and
// WMean of Table 3 are the only ones. All three are monotone in every
// non-negatively weighted operand, which the evalengine prefilter relies
// on, and insensitive to operand order, which the canonical signatures
// rely on.
type Aggregator interface {
	// Name returns the registry name, e.g. "min".
	Name() string
	// Combine folds operand scores and weights into one score.
	Combine(scores []float64, weights []int) float64

	aggregator()
}

// AggregationOp combines multiple similarity operators (Definition 8).
// Aggregations may be nested, enabling non-linear classifiers.
type AggregationOp struct {
	// Function is the aggregation function f_a.
	Function Aggregator
	// Operands are the aggregated similarity operators.
	Operands []SimilarityOp
	// W is the weight used by a parent weighted aggregation.
	W int
}

// NewAggregation returns an aggregation with weight 1.
func NewAggregation(fn Aggregator, operands ...SimilarityOp) *AggregationOp {
	return &AggregationOp{Function: fn, Operands: operands, W: 1}
}

// Evaluate implements SimilarityOp. An aggregation without operands scores 0:
// it provides no evidence for a match.
func (o *AggregationOp) Evaluate(a, b *entity.Entity) float64 {
	if len(o.Operands) == 0 {
		return 0
	}
	scores := make([]float64, len(o.Operands))
	weights := make([]int, len(o.Operands))
	for i, op := range o.Operands {
		scores[i] = op.Evaluate(a, b)
		weights[i] = op.Weight()
	}
	return clamp01(o.Function.Combine(scores, weights))
}

// CloneSim implements SimilarityOp.
func (o *AggregationOp) CloneSim() SimilarityOp {
	c := &AggregationOp{Function: o.Function, Operands: make([]SimilarityOp, len(o.Operands)), W: o.W}
	for i, op := range o.Operands {
		c.Operands[i] = op.CloneSim()
	}
	return c
}

// Weight implements SimilarityOp.
func (o *AggregationOp) Weight() int { return o.W }

// SetWeight implements SimilarityOp.
func (o *AggregationOp) SetWeight(w int) { o.W = w }

func (o *AggregationOp) Count() int {
	n := 1
	for _, op := range o.Operands {
		n += op.Count()
	}
	return n
}

func (*AggregationOp) similarityOp() {}

func clamp01(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Rule is a complete linkage rule: l : A×B → [0,1] (Definition 3).
type Rule struct {
	// Root is the top similarity operator of the tree.
	Root SimilarityOp
}

// New returns a rule with the given root.
func New(root SimilarityOp) *Rule { return &Rule{Root: root} }

// Evaluate returns the similarity the rule assigns to a pair.
// A rule with a nil root assigns 0 to every pair.
func (r *Rule) Evaluate(a, b *entity.Entity) float64 {
	if r == nil || r.Root == nil {
		return 0
	}
	return r.Root.Evaluate(a, b)
}

// Matches reports whether the rule links the pair (score ≥ 0.5).
func (r *Rule) Matches(a, b *entity.Entity) bool {
	return r.Evaluate(a, b) >= MatchThreshold
}

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule {
	if r == nil || r.Root == nil {
		return &Rule{}
	}
	return &Rule{Root: r.Root.CloneSim()}
}

// OperatorCount returns the number of operators in the tree — the quantity
// penalized by the parsimony pressure (fitness = MCC − 0.05·count).
func (r *Rule) OperatorCount() int {
	if r == nil || r.Root == nil {
		return 0
	}
	return r.Root.Count()
}

// Stats summarizes the structural composition of a rule, as discussed for
// the DBpediaDrugBank experiment (number of comparisons/transformations).
type Stats struct {
	Comparisons     int
	Transformations int
	Aggregations    int
	Properties      int
}

// ComputeStats walks the tree and tallies operator kinds.
func (r *Rule) ComputeStats() Stats {
	var s Stats
	if r == nil || r.Root == nil {
		return s
	}
	WalkSim(r.Root, func(op SimilarityOp) {
		switch o := op.(type) {
		case *ComparisonOp:
			s.Comparisons++
			WalkValue(o.InputA, func(v ValueOp) { tallyValue(v, &s) })
			WalkValue(o.InputB, func(v ValueOp) { tallyValue(v, &s) })
		case *AggregationOp:
			s.Aggregations++
		}
	})
	return s
}

func tallyValue(v ValueOp, s *Stats) {
	switch v.(type) {
	case *TransformOp:
		s.Transformations++
	case *PropertyOp:
		s.Properties++
	}
}

// HasOnlyCoreOps reports true: the operator interfaces are closed, so
// every rule is built from the four core kinds. It is kept only because
// the benchmark rig's tests (benchmark/rules_test.go) still call it; it
// goes when the rig next changes.
func (r *Rule) HasOnlyCoreOps() bool { return true }

// Validate checks the strong typing constraints of Figure 1:
// comparisons take exactly two value inputs, transformation inputs respect
// the transformation's arity, aggregations contain only similarity
// operators (guaranteed by construction) and at least one operand, and
// thresholds and weights are sane. It is the one check of rule shape:
// every decoded rule passes it (see UnmarshalJSON), while a rule built in
// code is checked only if its builder calls it.
func (r *Rule) Validate() error {
	if r == nil || r.Root == nil {
		return fmt.Errorf("rule: nil root")
	}
	var err error
	WalkSim(r.Root, func(op SimilarityOp) {
		if err != nil {
			return
		}
		switch o := op.(type) {
		case *ComparisonOp:
			if o.InputA == nil || o.InputB == nil {
				err = fmt.Errorf("rule: comparison with missing input")
				return
			}
			if o.Measure == nil {
				err = fmt.Errorf("rule: comparison with nil measure")
				return
			}
			if o.Threshold < 0 || math.IsNaN(o.Threshold) {
				err = fmt.Errorf("rule: invalid threshold %v", o.Threshold)
				return
			}
			if o.W < 0 {
				err = fmt.Errorf("rule: negative weight %d", o.W)
				return
			}
			for _, in := range []ValueOp{o.InputA, o.InputB} {
				WalkValue(in, func(v ValueOp) {
					if err != nil {
						return
					}
					if tr, ok := v.(*TransformOp); ok {
						if tr.Function == nil {
							err = fmt.Errorf("rule: transformation with nil function")
							return
						}
						if len(tr.Inputs) == 0 {
							err = fmt.Errorf("rule: transformation %q without inputs", tr.Function.Name())
							return
						}
						if slices.Contains(tr.Inputs, nil) {
							err = fmt.Errorf("rule: transformation %q with a missing input", tr.Function.Name())
							return
						}
						if a := tr.Function.Arity(); a > 0 && len(tr.Inputs) != a {
							err = fmt.Errorf("rule: transformation %q has %d inputs, wants %d",
								tr.Function.Name(), len(tr.Inputs), a)
							return
						}
					}
					if p, ok := v.(*PropertyOp); ok && p.Property == "" {
						err = fmt.Errorf("rule: property operator with empty property")
					}
				})
			}
		case *AggregationOp:
			if o.Function == nil {
				err = fmt.Errorf("rule: aggregation with nil function")
				return
			}
			if len(o.Operands) == 0 {
				err = fmt.Errorf("rule: aggregation %q without operands", o.Function.Name())
				return
			}
			if slices.Contains(o.Operands, nil) {
				err = fmt.Errorf("rule: aggregation %q with a missing operand", o.Function.Name())
				return
			}
			if o.W < 0 {
				err = fmt.Errorf("rule: negative weight %d", o.W)
			}
		}
	})
	return err
}
