package evalengine

import (
	"math"

	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// Compilation turns a rule tree into three layers of flat post-order
// programs, deduplicated by canonical signature:
//
//	rule  ──compile──▶  value programs   (one per distinct value subtree)
//	                    distance programs (one per distinct
//	                                       measure × valueA × valueB combo)
//	                    similarity instructions (stack program over
//	                                             distances and aggregations)
//
// The split mirrors what is worth memoizing: a value program depends on one
// entity, a distance program on a pair, and — crucially — a comparison's
// *distance* does not depend on its threshold (score = 1 − d/θ), so
// comparisons that only differ in threshold, the typical outcome of
// threshold crossover, share one distance program. Thresholds are applied
// by the similarity instructions at fold time, which is a handful of
// floating-point operations per pair.

// value instruction opcodes.
const (
	vProp uint8 = iota
	vTransform
)

// valInstr is one step of a value-program stack machine.
type valInstr struct {
	op    uint8
	prop  string                   // vProp: property name
	fn    transform.Transformation // vTransform
	nargs int                      // vTransform: inputs popped
}

// valueProgram computes one value subtree for an entity.
type valueProgram struct {
	sig    string
	id     int // index within Compiled.values
	instrs []valInstr
	depth  int // maximum operand-stack depth
}

// eval runs the program against a property lookup function. scratch must
// have at least depth slots.
func (p *valueProgram) eval(get func(prop string) []string, scratch [][]string) []string {
	sp := 0
	for i := range p.instrs {
		in := &p.instrs[i]
		switch in.op {
		case vProp:
			scratch[sp] = get(in.prop)
			sp++
		case vTransform:
			sp -= in.nargs
			scratch[sp] = in.fn.Apply(scratch[sp : sp+in.nargs]...)
			sp++
		}
	}
	if sp == 0 {
		return nil
	}
	return scratch[sp-1]
}

// distProgram computes the raw distance of one measure over two value
// programs. Its signature deliberately omits any threshold.
type distProgram struct {
	sig     string
	id      int // index within Compiled.dists
	measure similarity.Measure
	a, b    *valueProgram
}

// similarity instruction opcodes.
const (
	sDist uint8 = iota
	sAgg
)

// simInstr is one step of the similarity stack machine.
type simInstr struct {
	op        uint8
	dist      int     // sDist: distProgram id
	threshold float64 // sDist: comparison threshold θ
	agg       rule.Aggregator
	weights   []int // sAgg: operand weights; len == operand count
}

// Compiled is an executable form of a linkage rule. It is immutable after
// Compile and safe to share across goroutines; per-query state lives in
// Probe.
type Compiled struct {
	sims   []simInstr
	values []*valueProgram // deduplicated by signature
	dists  []*distProgram  // deduplicated by signature
	depth  int             // maximum similarity-stack depth
	vdepth int             // maximum value-stack depth over all programs
	// pf is the pushdown prefilter (prefilter.go), nil when the rule
	// admits no sound metadata-level score bound.
	pf *Prefilter
}

// Compile translates a rule into flat post-order programs. The operator
// kinds and aggregators of package rule are a closed set, and the compiler
// handles every one of them: every rule is guaranteed (and differentially
// tested) to score identically to Rule.Evaluate.
func Compile(r *rule.Rule) *Compiled {
	c := &Compiled{}
	if r == nil || r.Root == nil {
		return c
	}
	comp := compiler{c: c, valueBySig: make(map[string]*valueProgram), distBySig: make(map[string]*distProgram)}
	comp.sim(r.Root)
	c.depth = comp.maxDepth
	for _, v := range c.values {
		if v.depth > c.vdepth {
			c.vdepth = v.depth
		}
	}
	c.pf = newPrefilter(c)
	return c
}

// NumValuePrograms returns the number of distinct value subtrees. It is
// kept only because the benchmark rig's tests (benchmark/rules_test.go)
// still call it; it goes when the rig next changes.
func (c *Compiled) NumValuePrograms() int { return len(c.values) }

// NumDistPrograms returns the number of distinct distance computations.
func (c *Compiled) NumDistPrograms() int { return len(c.dists) }

type compiler struct {
	c          *Compiled
	valueBySig map[string]*valueProgram
	distBySig  map[string]*distProgram
	depth      int
	maxDepth   int
}

func (k *compiler) push() {
	k.depth++
	if k.depth > k.maxDepth {
		k.maxDepth = k.depth
	}
}

// sim emits the post-order similarity instructions for op.
func (k *compiler) sim(op rule.SimilarityOp) {
	switch o := op.(type) {
	case *rule.ComparisonOp:
		a := k.value(o.InputA)
		b := k.value(o.InputB)
		d := k.dist(o.Measure, a, b)
		k.c.sims = append(k.c.sims, simInstr{op: sDist, dist: d.id, threshold: o.Threshold})
		k.push()
	case *rule.AggregationOp:
		weights := make([]int, len(o.Operands))
		for i, child := range o.Operands {
			k.sim(child)
			weights[i] = child.Weight()
		}
		k.c.sims = append(k.c.sims, simInstr{op: sAgg, agg: o.Function, weights: weights})
		k.depth -= len(o.Operands)
		k.push()
	}
}

// value compiles a value subtree, reusing an existing program with the same
// signature.
func (k *compiler) value(op rule.ValueOp) *valueProgram {
	sig := rule.ValueSignature(op)
	if p, ok := k.valueBySig[sig]; ok {
		return p
	}
	p := &valueProgram{sig: sig, id: len(k.c.values)}
	depth := 0
	var flatten func(rule.ValueOp)
	flatten = func(op rule.ValueOp) {
		switch o := op.(type) {
		case *rule.PropertyOp:
			p.instrs = append(p.instrs, valInstr{op: vProp, prop: o.Property})
			depth++
			if depth > p.depth {
				p.depth = depth
			}
		case *rule.TransformOp:
			for _, child := range o.Inputs {
				flatten(child)
			}
			p.instrs = append(p.instrs, valInstr{op: vTransform, fn: o.Function, nargs: len(o.Inputs)})
			depth -= len(o.Inputs)
			depth++
			if depth > p.depth {
				p.depth = depth
			}
		}
	}
	flatten(op)
	k.c.values = append(k.c.values, p)
	k.valueBySig[sig] = p
	return p
}

// dist interns the distance program for (measure, a, b).
func (k *compiler) dist(m similarity.Measure, a, b *valueProgram) *distProgram {
	sig := "d:" + m.Name() + "(" + a.sig + "|" + b.sig + ")"
	if d, ok := k.distBySig[sig]; ok {
		return d
	}
	d := &distProgram{sig: sig, id: len(k.c.dists), measure: m, a: a, b: b}
	k.c.dists = append(k.c.dists, d)
	k.distBySig[sig] = d
	return d
}

// scoreFromDist applies Definition 7 to a raw distance, replicating
// ComparisonOp.Evaluate exactly: non-finite distances score 0, a
// non-positive threshold degenerates to exact matching, and otherwise
// score = 1 − d/θ for d ≤ θ.
func scoreFromDist(d, threshold float64) float64 {
	if math.IsInf(d, 1) || math.IsNaN(d) {
		return 0
	}
	if threshold <= 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	if d > threshold {
		return 0
	}
	return 1 - d/threshold
}

// clamp01 replicates the aggregation clamping of the rule package.
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

// fold runs the similarity stack machine for one pair given the pair's
// distance per distProgram id. stack must have at least c.depth slots.
func (c *Compiled) fold(dists []float64, stack []float64) float64 {
	sp := 0
	for i := range c.sims {
		in := &c.sims[i]
		switch in.op {
		case sDist:
			stack[sp] = scoreFromDist(dists[in.dist], in.threshold)
			sp++
		case sAgg:
			n := len(in.weights)
			if n == 0 {
				// An aggregation without operands provides no evidence
				// (AggregationOp.Evaluate returns 0).
				stack[sp] = 0
				sp++
				continue
			}
			sp -= n
			stack[sp] = clamp01(in.agg.Combine(stack[sp:sp+n], in.weights))
			sp++
		}
	}
	if sp == 0 {
		return 0
	}
	return stack[sp-1]
}

// score computes every distance program from the two sides' records and
// folds the similarity program: the score Rule.Evaluate gives the pair
// the records were built from. dists and stack are scratch of the usual
// sizes.
func (c *Compiled) score(ra, rb *Record, dists, stack []float64) float64 {
	for _, d := range c.dists {
		dists[d.id] = d.measure.Distance(ra.sets[d.a.id], rb.sets[d.b.id])
	}
	return c.fold(dists, stack)
}
