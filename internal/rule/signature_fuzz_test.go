package rule

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// concatValueSignature and concatSimSignature are the signatures as
// first written, one string concatenation per node: the oracle the
// one-buffer writer (signature.go) is held to byte for byte.
func concatValueSignature(op ValueOp) string {
	switch o := op.(type) {
	case *PropertyOp:
		return "p:" + strconv.Quote(o.Property)
	case *TransformOp:
		args := make([]string, len(o.Inputs))
		for i, in := range o.Inputs {
			args[i] = concatValueSignature(in)
		}
		return "t:" + o.Function.Name() + "(" + strings.Join(args, ",") + ")"
	}
	return "?"
}

func concatSimSignature(op SimilarityOp) string {
	switch o := op.(type) {
	case *ComparisonOp:
		thr := strconv.FormatFloat(o.Threshold, 'g', -1, 64)
		return "c:" + o.Measure.Name() + "@" + thr + "(" + concatValueSignature(o.InputA) + "," + concatValueSignature(o.InputB) + ")"
	case *AggregationOp:
		entries := make([]string, len(o.Operands))
		for i, child := range o.Operands {
			entries[i] = strconv.Itoa(child.Weight()) + "*" + concatSimSignature(child)
		}
		sort.Strings(entries)
		return "a:" + o.Function.Name() + "(" + strings.Join(entries, ",") + ")"
	}
	return "?"
}

// fuzzSignatureRule builds a random rule (randomRule) from seed and
// plants the fuzzed property name, threshold and weight in about half of
// its property, comparison and operand slots. It replaces some value
// inputs with nil, and for odd seeds nests the rule and a twin differing
// in one threshold under a new aggregation, so that two long entries
// share all but a few bytes.
func fuzzSignatureRule(seed int64, name string, threshold float64, weight int) *Rule {
	build := func() SimilarityOp {
		rng := rand.New(rand.NewSource(seed))
		root := randomRule(rng, 3)
		WalkSim(root, func(op SimilarityOp) {
			if rng.Intn(2) == 0 {
				switch o := op.(type) {
				case *ComparisonOp:
					o.SetWeight(weight)
				case *AggregationOp:
					o.SetWeight(weight)
				}
			}
			c, ok := op.(*ComparisonOp)
			if !ok {
				return
			}
			if rng.Intn(2) == 0 {
				c.Threshold = threshold
			}
			for _, in := range []ValueOp{c.InputA, c.InputB} {
				WalkValue(in, func(v ValueOp) {
					switch o := v.(type) {
					case *PropertyOp:
						if rng.Intn(2) == 0 {
							o.Property = name
						}
					case *TransformOp:
						if len(o.Inputs) > 1 && rng.Intn(4) == 0 {
							o.Inputs[rng.Intn(len(o.Inputs))] = nil
						}
					}
				})
			}
			if rng.Intn(8) == 0 {
				c.InputB = nil
			}
		})
		return root
	}
	root := build()
	if seed%2 == 0 {
		return New(root)
	}
	twin := build()
	var last *ComparisonOp
	WalkSim(twin, func(op SimilarityOp) {
		if c, ok := op.(*ComparisonOp); ok {
			last = c
		}
	})
	last.Threshold = math.Nextafter(last.Threshold, math.Inf(1))
	rng := rand.New(rand.NewSource(^seed))
	aggs := CoreAggregators()
	return New(NewAggregation(aggs[rng.Intn(len(aggs))], root, twin, randomRule(rng, 1)))
}

// FuzzSignature holds the one-buffer writer to the concatenating oracle:
// Rule.Signature, SimSignature of every similarity subtree and
// ValueSignature of every value input must be byte-equal to it. The
// seeds cover property names that need quoting, thresholds at the edges
// of 'g' formatting, weights whose entries sort by their first byte
// ("10*" before "9*"), nested aggregations with entries sharing long
// prefixes, and nil operands.
func FuzzSignature(f *testing.F) {
	names := []string{"title", `a,"b"(c)`, "line\nbreak", "\xff\xfe\xfd", "café ☃", `x","y`, ""}
	thresholds := []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 2.5e-310, 1e21, 123456789.125}
	weights := []int{1, 0, -3, 10, 123, math.MinInt64}
	for i := 0; i < 24; i++ {
		f.Add(int64(i), names[i%len(names)], thresholds[i%len(thresholds)], weights[i%len(weights)])
	}
	f.Fuzz(func(t *testing.T, seed int64, name string, threshold float64, weight int) {
		r := fuzzSignatureRule(seed, name, threshold, weight)
		if got, want := r.Signature(), concatSimSignature(r.Root); got != want {
			t.Fatalf("Rule.Signature\n%q\nwant\n%q", got, want)
		}
		WalkSim(r.Root, func(op SimilarityOp) {
			if got, want := SimSignature(op), concatSimSignature(op); got != want {
				t.Fatalf("SimSignature\n%q\nwant\n%q", got, want)
			}
			c, ok := op.(*ComparisonOp)
			if !ok {
				return
			}
			for _, in := range []ValueOp{c.InputA, c.InputB} {
				if got, want := ValueSignature(in), concatValueSignature(in); got != want {
					t.Fatalf("ValueSignature\n%q\nwant\n%q", got, want)
				}
				WalkValue(in, func(v ValueOp) {
					if got, want := ValueSignature(v), concatValueSignature(v); got != want {
						t.Fatalf("ValueSignature\n%q\nwant\n%q", got, want)
					}
				})
			}
		})
	})
}
