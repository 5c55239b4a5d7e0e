package rule

// Simplify returns a semantically equivalent but structurally smaller copy
// of the rule:
//
//   - min and max aggregations with a single operand are replaced by that
//     operand (the min or max of one score is the score itself), and so
//     are single-operand weighted means whose operand has weight 1 (for
//     any other weight w, w·s/w need not round back to s exactly),
//   - nested aggregations with the same min/max function are flattened
//     (min(a, min(b, c)) = min(a, b, c)); wmean is not flattened because
//     nested weighted means weight differently,
//   - siblings under min/max with equal SimSignature are deduplicated
//     (idempotence), keeping the first occurrence.
//
// Learned rules often carry such redundancies; Simplify makes them easier
// to read without changing any similarity score.
func (r *Rule) Simplify() *Rule {
	if r == nil || r.Root == nil {
		return &Rule{}
	}
	return &Rule{Root: simplifySim(r.Root.CloneSim())}
}

func simplifySim(op SimilarityOp) SimilarityOp {
	agg, ok := op.(*AggregationOp)
	if !ok {
		return op
	}
	// Simplify children first.
	for i, child := range agg.Operands {
		agg.Operands[i] = simplifySim(child)
	}
	name := agg.Function.Name()
	if name == "min" || name == "max" {
		// Flatten same-function nested aggregations.
		var flat []SimilarityOp
		for _, child := range agg.Operands {
			if childAgg, ok := child.(*AggregationOp); ok && childAgg.Function.Name() == name {
				flat = append(flat, childAgg.Operands...)
				continue
			}
			flat = append(flat, child)
		}
		// Deduplicate siblings that score identically (idempotent
		// functions). The key is the behavioural signature: exact
		// thresholds, quoted property names, operand weights of nested
		// aggregations — but not the sibling's own weight, which min and
		// max ignore.
		seen := make(map[string]bool, len(flat))
		var unique []SimilarityOp
		for _, child := range flat {
			key := SimSignature(child)
			if seen[key] {
				continue
			}
			seen[key] = true
			unique = append(unique, child)
		}
		agg.Operands = unique
	}
	if len(agg.Operands) == 1 && (name != "wmean" || agg.Operands[0].Weight() == 1) {
		// Hoist the child but keep the aggregation's weight so a parent
		// weighted mean is unaffected.
		child := agg.Operands[0]
		child.SetWeight(agg.W)
		return child
	}
	return agg
}
