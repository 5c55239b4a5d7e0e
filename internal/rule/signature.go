package rule

import (
	"bytes"
	"slices"
	"strconv"
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
//
// One writer produces every signature: AppendValueSignature and
// appendSimSignature append a subtree's signature to a byte buffer, quoting
// property names with strconv.AppendQuote and formatting thresholds with
// strconv.AppendFloat, and an aggregation writes its weighted operand
// entries into the same buffer and then reorders them in place, so a
// whole rule costs one growing buffer instead of a string per node. The
// evalengine compiler keys its value and distance programs with the same
// writer. Signing runs for every rule of every generation, and nodes do
// not cache their signature: every crossover operator and repair would
// have to invalidate it, and a stale one would give a rule another
// rule's fitness.

// ValueSignature returns the canonical signature of a value operator
// subtree; a nil subtree signs as "?". Transformation input order is
// preserved: transformations such as concatenate are order-sensitive.
func ValueSignature(op ValueOp) string {
	var buf [128]byte
	return string(AppendValueSignature(buf[:0], op))
}

// AppendValueSignature appends ValueSignature(op) to b and returns the
// extended buffer.
func AppendValueSignature(b []byte, op ValueOp) []byte {
	switch o := op.(type) {
	case *PropertyOp:
		return strconv.AppendQuote(append(b, "p:"...), o.Property)
	case *TransformOp:
		b = append(append(append(b, "t:"...), o.Function.Name()...), '(')
		for i, in := range o.Inputs {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendValueSignature(b, in)
		}
		return append(b, ')')
	}
	return append(b, '?')
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
	var buf [512]byte
	return string(appendSimSignature(buf[:0], op))
}

// appendSimSignature appends SimSignature(op) to b. An aggregation
// writes each operand's "w*signature" entry after its own prefix, sorts
// the entries' spans bytewise (the order sort.Strings gives their
// strings), appends them comma-separated in that order past the unsorted
// ones and moves the result back over them.
func appendSimSignature(b []byte, op SimilarityOp) []byte {
	switch o := op.(type) {
	case *ComparisonOp:
		b = append(append(append(b, "c:"...), o.Measure.Name()...), '@')
		b = append(strconv.AppendFloat(b, o.Threshold, 'g', -1, 64), '(')
		b = append(AppendValueSignature(b, o.InputA), ',')
		return append(AppendValueSignature(b, o.InputB), ')')
	case *AggregationOp:
		b = append(append(append(b, "a:"...), o.Function.Name()...), '(')
		start := len(b)
		var small [8][2]int
		spans := small[:0]
		for _, child := range o.Operands {
			lo := len(b)
			b = appendSimSignature(append(strconv.AppendInt(b, int64(child.Weight()), 10), '*'), child)
			spans = append(spans, [2]int{lo, len(b)})
		}
		slices.SortFunc(spans, func(x, y [2]int) int {
			return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]])
		})
		end := len(b)
		for i, s := range spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, b[s[0]:s[1]]...)
		}
		n := copy(b[start:], b[end:])
		return append(b[:start+n], ')')
	}
	return append(b, '?')
}

// Signature returns the canonical signature of the whole rule.
func (r *Rule) Signature() string {
	if r == nil || r.Root == nil {
		return "∅"
	}
	return SimSignature(r.Root)
}
