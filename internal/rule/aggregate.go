package rule

// aggFunc adapts a function to an Aggregator.
type aggFunc struct {
	name string
	fn   func(scores []float64, weights []int) float64
}

func (a aggFunc) Name() string { return a.name }

func (a aggFunc) Combine(scores []float64, weights []int) float64 {
	return a.fn(scores, weights)
}

func (aggFunc) aggregator() {}

// Min returns the minimum aggregation of Table 3: all operands must exceed
// the threshold for a link (the conjunction of a boolean classifier).
func Min() Aggregator {
	return aggFunc{name: "min", fn: func(scores []float64, _ []int) float64 {
		best := 1.0
		for _, s := range scores {
			if s < best {
				best = s
			}
		}
		return best
	}}
}

// Max returns the maximum aggregation of Table 3: any operand exceeding the
// threshold yields a link (disjunction).
func Max() Aggregator {
	return aggFunc{name: "max", fn: func(scores []float64, _ []int) float64 {
		best := 0.0
		for _, s := range scores {
			if s > best {
				best = s
			}
		}
		return best
	}}
}

// WMean returns the weighted-average aggregation of Table 3:
// Σ w_i·s_i / Σ w_i. A zero weight sum yields 0.
func WMean() Aggregator {
	return aggFunc{name: "wmean", fn: func(scores []float64, weights []int) float64 {
		var num, den float64
		for i, s := range scores {
			w := 1
			if i < len(weights) {
				w = weights[i]
			}
			num += float64(w) * s
			den += float64(w)
		}
		if den == 0 {
			return 0
		}
		return num / den
	}}
}

// aggregators is the registry used for (de)serialization and random draws.
var aggregators = map[string]func() Aggregator{
	"min":   Min,
	"max":   Max,
	"wmean": WMean,
}

// AggregatorByName returns the aggregator registered under name, or nil.
func AggregatorByName(name string) Aggregator {
	if ctor, ok := aggregators[name]; ok {
		return ctor()
	}
	return nil
}

// CoreAggregators returns the three aggregation functions used in all paper
// experiments (Table 3).
func CoreAggregators() []Aggregator {
	return []Aggregator{Max(), Min(), WMean()}
}
