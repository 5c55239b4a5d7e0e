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
// subtree.
func ValueSignature(op ValueOp) string {
	var b sigBuilder
	VisitValuePostOrder(op, &b)
	return b.result()
}

// SimSignature returns the canonical signature of a similarity operator
// subtree. The operator's own weight is excluded — it only influences the
// enclosing aggregation, which records it next to the operand signature —
// so comparisons that differ only in weight share cache entries.
func SimSignature(op SimilarityOp) string {
	var b sigBuilder
	VisitPostOrder(op, &b)
	return b.result()
}

// Signature returns the canonical signature of the whole rule.
func (r *Rule) Signature() string {
	if r == nil || r.Root == nil {
		return "∅"
	}
	return SimSignature(r.Root)
}

// sigBuilder composes signatures bottom-up over a post-order traversal:
// every visit pops its children's signatures off the stack and pushes its
// own.
type sigBuilder struct {
	stack []string
}

func (b *sigBuilder) result() string {
	if len(b.stack) == 0 {
		return "?"
	}
	return b.stack[len(b.stack)-1]
}

func (b *sigBuilder) push(s string) { b.stack = append(b.stack, s) }
func (b *sigBuilder) pop(n int) []string {
	if n > len(b.stack) {
		n = len(b.stack)
	}
	args := b.stack[len(b.stack)-n:]
	b.stack = b.stack[:len(b.stack)-n]
	return args
}

// Property implements Visitor.
func (b *sigBuilder) Property(o *PropertyOp) {
	b.push("p:" + strconv.Quote(o.Property))
}

// Transform implements Visitor. Input order is preserved: transformations
// such as concatenate are order-sensitive.
func (b *sigBuilder) Transform(o *TransformOp) {
	args := b.pop(len(o.Inputs))
	b.push("t:" + o.Function.Name() + "(" + strings.Join(args, ",") + ")")
}

// Comparison implements Visitor. The threshold is formatted with the
// shortest round-trip representation so distinct thresholds never collide.
func (b *sigBuilder) Comparison(o *ComparisonOp) {
	args := b.pop(2)
	thr := strconv.FormatFloat(o.Threshold, 'g', -1, 64)
	b.push("c:" + o.Measure.Name() + "@" + thr + "(" + strings.Join(args, ",") + ")")
}

// Aggregation implements Visitor. Operand weights are recorded next to each
// operand signature, and the weighted entries are sorted into canonical
// order.
func (b *sigBuilder) Aggregation(o *AggregationOp) {
	args := b.pop(len(o.Operands))
	entries := make([]string, len(args))
	for i, a := range args {
		w := 1
		if i < len(o.Operands) {
			w = o.Operands[i].Weight()
		}
		entries[i] = strconv.Itoa(w) + "*" + a
	}
	sort.Strings(entries)
	b.push("a:" + o.Function.Name() + "(" + strings.Join(entries, ",") + ")")
}
