package rule

import (
	"sort"
	"strconv"
	"strings"
)

// Canonical subtree signatures.
//
// A signature is a string that identifies the *behaviour* of an operator
// subtree: two subtrees with equal signatures evaluate identically on every
// input. Signatures generalize the Compact rendering in three ways that
// matter for memoization:
//
//   - thresholds are formatted round-trip exactly (Compact rounds to three
//     significant digits, which would conflate distinct comparisons);
//   - property names are quoted, so names containing commas or parentheses
//     cannot collide with the surrounding syntax;
//   - aggregation operands are sorted, so rules that only differ in
//     operand order — a routine outcome of the crossover operators —
//     share one signature. Every aggregator (min, max, wmean) is
//     insensitive to operand order as long as weights stay attached to
//     their scores, up to the rounding of wmean's floating-point sums.
//
// The evalengine keys its cross-generation caches by signature, and the
// learner uses Rule.Signature to deduplicate its rule committee. Like the
// serializer, signatures identify measures, transformations and aggregators
// by Name(), so registered names must uniquely determine behaviour.

// ValueSignature returns the canonical signature of a value operator
// subtree; a nil subtree signs as "?". Transformation input order is
// preserved: transformations such as concatenate are order-sensitive.
func ValueSignature(op ValueOp) string {
	switch o := op.(type) {
	case *PropertyOp:
		return "p:" + strconv.Quote(o.Property)
	case *TransformOp:
		args := make([]string, len(o.Inputs))
		for i, in := range o.Inputs {
			args[i] = ValueSignature(in)
		}
		return "t:" + o.Function.Name() + "(" + strings.Join(args, ",") + ")"
	}
	return "?"
}

// SimSignature returns the canonical signature of a similarity operator
// subtree; a nil root signs as "?". The operator's own weight is
// excluded — it only influences the enclosing aggregation, which records
// it next to the operand signature — so comparisons that differ only in
// weight share cache entries. A comparison's threshold is formatted with
// the shortest round-trip representation so distinct thresholds never
// collide; an aggregation's weighted operand entries are sorted into
// canonical order.
func SimSignature(op SimilarityOp) string {
	switch o := op.(type) {
	case *ComparisonOp:
		thr := strconv.FormatFloat(o.Threshold, 'g', -1, 64)
		return "c:" + o.Measure.Name() + "@" + thr + "(" + ValueSignature(o.InputA) + "," + ValueSignature(o.InputB) + ")"
	case *AggregationOp:
		entries := make([]string, len(o.Operands))
		for i, child := range o.Operands {
			entries[i] = strconv.Itoa(child.Weight()) + "*" + SimSignature(child)
		}
		sort.Strings(entries)
		return "a:" + o.Function.Name() + "(" + strings.Join(entries, ",") + ")"
	}
	return "?"
}

// Signature returns the canonical signature of the whole rule.
func (r *Rule) Signature() string {
	if r == nil || r.Root == nil {
		return "∅"
	}
	return SimSignature(r.Root)
}
