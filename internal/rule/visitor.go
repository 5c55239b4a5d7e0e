package rule

// Visitor receives one callback per operator kind during a traversal.
// It is the typed alternative to the WalkSim/WalkValue closures: consumers
// that need to distinguish operator kinds (compilers, signature builders,
// statistics) implement Visitor once instead of type-switching at every
// call site.
type Visitor interface {
	// Property is called for every property operator.
	Property(*PropertyOp)
	// Transform is called for every transformation operator.
	Transform(*TransformOp)
	// Comparison is called for every comparison operator.
	Comparison(*ComparisonOp)
	// Aggregation is called for every aggregation operator.
	Aggregation(*AggregationOp)
}

// VisitPostOrder walks the similarity tree rooted at op in post-order:
// children are visited before their parents, and a comparison's value
// inputs (input A first) before the comparison itself. Post-order is the
// natural order for bottom-up consumers — a visitor that maintains a stack
// sees every child's result on top of the stack when its parent is visited,
// which is exactly how the evalengine compiler emits flat stack programs
// and how canonical signatures are composed. A nil operator is skipped.
func VisitPostOrder(op SimilarityOp, v Visitor) {
	switch o := op.(type) {
	case nil:
	case *ComparisonOp:
		VisitValuePostOrder(o.InputA, v)
		VisitValuePostOrder(o.InputB, v)
		v.Comparison(o)
	case *AggregationOp:
		for _, child := range o.Operands {
			VisitPostOrder(child, v)
		}
		v.Aggregation(o)
	}
}

// VisitValuePostOrder walks the value tree rooted at op in post-order,
// visiting transformation inputs left to right before the transformation.
func VisitValuePostOrder(op ValueOp, v Visitor) {
	switch o := op.(type) {
	case nil:
	case *PropertyOp:
		v.Property(o)
	case *TransformOp:
		for _, child := range o.Inputs {
			VisitValuePostOrder(child, v)
		}
		v.Transform(o)
	}
}

// HasOnlyCoreOps reports true: the operator interfaces are closed, so
// every rule is built from the four core kinds. It is kept only because
// the benchmark rig's tests (benchmark/rules_test.go) still call it; it
// goes when the rig next changes.
func (r *Rule) HasOnlyCoreOps() bool { return true }
