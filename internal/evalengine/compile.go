package evalengine

import (
	"fmt"
	"math"
	"slices"

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
// by the similarity instructions at fold time, which runs each
// instruction over a whole column of pairs (fold).

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
	// ta and tb index the typed forms of a's and b's value sets in a
	// Record (Compiled.typed) when the measure is similarity.Prepared,
	// and are -1 otherwise.
	ta, tb int
	// theta is the largest threshold among the comparisons reading this
	// distance: every distance above it folds like +Inf.
	theta float64
	// rank is the distance's place in Probe.Score's order (rankOf).
	rank int
	// pattern marks a patterned measure, whose probe side a Probe
	// prepares once; cutoff marks the integral one (levenshtein), which
	// Probe.Score bounds by the largest distance that can still reach its
	// floor.
	pattern, cutoff bool
}

// rankParsed is the rank of the measures that parse their values.
const rankParsed = 0

// rankOf orders a rule's distances for Probe.Score, cheapest first: the
// arithmetic over parsed numbers, dates and coordinates, then the set
// measures (one merge of sorted tokens) and equality, then the edit
// distances, then every measure that allocates per comparison. Scores do
// not depend on the order; how early a candidate is declined does.
func rankOf(m similarity.Measure) int {
	switch m.Name() {
	case "numeric", "date", "geographic":
		return rankParsed
	case "jaccard", "dice", "cosine", "equality":
		return 1
	case "levenshtein", "normLevenshtein":
		return 2
	default:
		return 3
	}
}

// patterned is a measure that prepares one side of its comparisons as a
// pattern (similarity's edit distances): the function Pattern returns is
// the measure's Distance from the pattern side's values, exact up to the
// bound k and above k past it, and Within is one such call without a
// pattern to keep.
type patterned interface {
	Pattern(values []string) func(text []string, k float64) float64
	Within(a, b []string, k float64) float64
}

// typedForm is one value program's output in the typed form of one
// prepared measure, kept in every Record.
type typedForm struct {
	value int // value program id
	m     similarity.Prepared
}

// similarity instruction opcodes: a comparison, and the aggregations of
// package rule, lowered by name at Compile (lowerAgg).
const (
	sDist uint8 = iota
	sMin
	sMax
	sWMean
)

// simInstr is one step of the similarity machine (fold), which runs each
// step over a whole column of pairs: a comparison turns its distance
// column into a score column, an aggregation combines the score columns
// of its operands into one.
type simInstr struct {
	op        uint8
	dist      int     // sDist: distProgram id
	threshold float64 // sDist: comparison threshold θ
	// weights are an aggregation's operand weights as floats, in operand
	// order; len == operand count.
	weights []float64
	// den is an sWMean's weight sum, added up in operand order as
	// rule.WMean adds it.
	den float64
}

// Compiled is an executable form of a linkage rule. It is immutable after
// Compile and safe to share across goroutines; per-query state lives in
// Probe.
type Compiled struct {
	sims   []simInstr
	values []*valueProgram // deduplicated by signature
	dists  []*distProgram  // deduplicated by signature
	order  []*distProgram  // dists in Probe.Score's order (rankOf)
	typed  []typedForm     // deduplicated by (value program, measure)
	depth  int             // maximum similarity-stack depth
	vdepth int             // maximum value-stack depth over all programs
	// pf is the pushdown prefilter (prefilter.go), nil when the rule
	// admits no sound metadata-level score bound.
	pf *Prefilter
}

// Compile translates a rule into flat post-order programs. The operator
// kinds and aggregators of package rule are a closed set, and the compiler
// handles every one of them, lowering each aggregator to its opcode:
// every rule is guaranteed (and differentially tested) to score
// identically to Rule.Evaluate.
func Compile(r *rule.Rule) *Compiled {
	c := &Compiled{}
	if r == nil || r.Root == nil {
		return c
	}
	comp := compiler{c: c, valueBySig: make(map[string]*valueProgram), distBySig: make(map[string]*distProgram)}
	comp.sim(r.Root)
	c.depth = comp.maxDepth
	byRank := func(x, y *distProgram) int { return x.rank - y.rank }
	c.order = c.dists
	if !slices.IsSortedFunc(c.order, byRank) {
		c.order = slices.Clone(c.dists)
		slices.SortStableFunc(c.order, byRank)
	}
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
	// buf is where value and distance signatures are written (package
	// rule's signature writer), so a lookup that finds its program
	// allocates no string.
	buf []byte
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
		d.theta = max(d.theta, o.Threshold)
		k.c.sims = append(k.c.sims, simInstr{op: sDist, dist: d.id, threshold: o.Threshold})
		k.push()
	case *rule.AggregationOp:
		in := simInstr{op: lowerAgg(o.Function), weights: make([]float64, len(o.Operands))}
		for i, child := range o.Operands {
			k.sim(child)
			in.weights[i] = float64(child.Weight())
			in.den += in.weights[i]
		}
		k.c.sims = append(k.c.sims, in)
		k.depth -= len(o.Operands)
		k.push()
	}
}

// value compiles a value subtree, reusing an existing program with the same
// signature.
func (k *compiler) value(op rule.ValueOp) *valueProgram {
	k.buf = rule.AppendValueSignature(k.buf[:0], op)
	if p, ok := k.valueBySig[string(k.buf)]; ok {
		return p
	}
	sig := string(k.buf)
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
	k.buf = append(append(append(k.buf[:0], "d:"...), m.Name()...), '(')
	k.buf = append(append(append(append(k.buf, a.sig...), '|'), b.sig...), ')')
	if d, ok := k.distBySig[string(k.buf)]; ok {
		return d
	}
	sig := string(k.buf)
	d := &distProgram{sig: sig, id: len(k.c.dists), measure: m, a: a, b: b,
		ta: -1, tb: -1, theta: math.Inf(-1), rank: rankOf(m)}
	if p, ok := m.(similarity.Prepared); ok {
		d.ta, d.tb = k.typed(a, p), k.typed(b, p)
	}
	_, d.pattern = m.(patterned)
	d.cutoff = d.pattern && m.Name() == "levenshtein"
	k.c.dists = append(k.c.dists, d)
	k.distBySig[sig] = d
	return d
}

// typed interns the typed form of value program v under measure m. A
// rule has few, so a scan finds them.
func (k *compiler) typed(v *valueProgram, m similarity.Prepared) int {
	for i, t := range k.c.typed {
		if t.value == v.id && t.m.Name() == m.Name() {
			return i
		}
	}
	k.c.typed = append(k.c.typed, typedForm{value: v.id, m: m})
	return len(k.c.typed) - 1
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

// lowerAgg returns the opcode of an aggregation function. The
// aggregators of package rule are a closed set (rule.Aggregator is
// sealed), and an aggregation without one is refused here.
func lowerAgg(agg rule.Aggregator) uint8 {
	if agg != nil {
		switch agg.Name() {
		case "min":
			return sMin
		case "max":
			return sMax
		case "wmean":
			return sWMean
		}
		panic(fmt.Sprintf("evalengine: no opcode for aggregation %q", agg.Name()))
	}
	panic("evalengine: aggregation without a function")
}

// distColumns is where fold reads its distance columns: the engine's
// cached vectors, vecs[j] distance program j's over every reference pair,
// or, when vecs is nil, flat, which holds program j's column of n at
// flat[j*n:(j+1)*n] — one pair's distances when n = 1.
type distColumns struct {
	vecs [][]float64
	flat []float64
}

// column returns distance program j's column of n.
func (d distColumns) column(j, n int) []float64 {
	if d.vecs != nil {
		return d.vecs[j][:n]
	}
	return d.flat[j*n : (j+1)*n]
}

// fold runs the similarity machine over a column of n pairs, reading
// the distance columns from dists; stack holds the operand stack, c.depth
// columns of n, column k at stack[k*n:(k+1)*n]. Each instruction is one
// loop over the column, so a rule is folded over every pair at once; the
// per-pair callers run it at n = 1 (pairFold). It returns the root
// column, a column of stack, or nil for the empty rule, whose pairs all
// score 0. Every score is bit-identical to Rule.Evaluate's on the pair.
func (c *Compiled) fold(dists distColumns, stack []float64, n int) []float64 {
	sp := 0
	for i := range c.sims {
		in := &c.sims[i]
		if in.op == sDist {
			scoreColumn(stack[sp*n:(sp+1)*n], dists.column(in.dist, n), in.threshold)
			sp++
			continue
		}
		k := len(in.weights)
		sp -= k
		// The operands are the k columns from sp on; the result
		// replaces the first.
		out, ops := stack[sp*n:(sp+1)*n], stack[sp*n:(sp+k)*n]
		switch in.op {
		case sMin:
			minColumn(out, ops)
		case sMax:
			maxColumn(out, ops)
		case sWMean:
			wmeanColumn(out, ops, in.weights, in.den)
		}
		sp++
	}
	if sp == 0 {
		return nil
	}
	return stack[(sp-1)*n : sp*n]
}

// scoreColumn writes every pair's comparison score (scoreFromDist) from
// its distance.
func scoreColumn(out, dist []float64, threshold float64) {
	dist = dist[:len(out)]
	for p, d := range dist {
		out[p] = scoreFromDist(d, threshold)
	}
}

// minColumn writes rule.Min of the operand columns ops, clamped, into
// out, which is ops' first column: from 1, each operand in order replaces
// a larger running minimum. No operands give 0, as an empty
// AggregationOp scores.
func minColumn(out, ops []float64) {
	if len(ops) == 0 {
		clear(out)
		return
	}
	n := len(out)
	for p, s := range ops[:n] {
		best := 1.0
		if s < best {
			best = s
		}
		out[p] = best
	}
	for j := n; j < len(ops); j += n {
		for p, s := range ops[j : j+n] {
			if s < out[p] {
				out[p] = s
			}
		}
	}
	clampColumn(out)
}

// maxColumn is minColumn for rule.Max, from 0.
func maxColumn(out, ops []float64) {
	if len(ops) == 0 {
		clear(out)
		return
	}
	n := len(out)
	for p, s := range ops[:n] {
		best := 0.0
		if s > best {
			best = s
		}
		out[p] = best
	}
	for j := n; j < len(ops); j += n {
		for p, s := range ops[j : j+n] {
			if s > out[p] {
				out[p] = s
			}
		}
	}
	clampColumn(out)
}

// wmeanColumn is minColumn for rule.WMean with the operand weights
// weights, whose sum is den: the numerator adds weight·score from 0 in
// operand order, and is divided by den, a zero den (no operands, or
// weights that cancel) giving 0.
func wmeanColumn(out, ops, weights []float64, den float64) {
	if den == 0 {
		clear(out)
		return
	}
	n := len(out)
	for i, w := range weights {
		col := ops[i*n : (i+1)*n]
		if i == 0 {
			for p, s := range col {
				out[p] = 0 + w*s // a −0 product sums to +0, as from 0
			}
			continue
		}
		for p, s := range col {
			out[p] += w * s
		}
	}
	for p, num := range out {
		out[p] = clamp01(num / den)
	}
}

// clampColumn applies clamp01 to every score of out.
func clampColumn(out []float64) {
	for p, v := range out {
		out[p] = clamp01(v)
	}
}

// pairFold is the similarity machine at n = 1, for the callers that fold
// one pair at a time (Probe, Prefilter.probeBound, EditBound): dists
// holds the pair's distance per distProgram id, each a column of one, and
// stack c.depth columns of one.
type pairFold struct {
	c     *Compiled
	dists []float64
	stack []float64
}

// newPairFold returns a pairFold for c in one allocation.
func (c *Compiled) newPairFold() pairFold {
	buf := make([]float64, len(c.dists)+c.depth)
	return pairFold{c: c, dists: buf[:len(c.dists)], stack: buf[len(c.dists):]}
}

// fold returns the pair's score at the distances in f.dists.
func (f *pairFold) fold() float64 {
	if root := f.c.fold(distColumns{flat: f.dists}, f.stack, 1); root != nil {
		return root[0]
	}
	return 0
}
