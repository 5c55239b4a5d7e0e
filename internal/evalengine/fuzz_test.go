package evalengine_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// fuzzTitle returns n runes cycled from alphabet.
func fuzzTitle(alphabet string, n int) string {
	rs := []rune(alphabet)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(rs[i%len(rs)])
	}
	return sb.String()
}

// fuzzEdit applies a few random rune edits to s.
func fuzzEdit(rng *rand.Rand, s string) string {
	rs := []rune(s)
	for n := rng.Intn(6); n > 0; n-- {
		i := rng.Intn(len(rs) + 1)
		switch rng.Intn(3) {
		case 0:
			rs = append(rs[:i], append([]rune{'é'}, rs[i:]...)...)
		case 1:
			if i < len(rs) {
				rs = append(rs[:i], rs[i+1:]...)
			}
		default:
			if i < len(rs) {
				rs[i] = 'q'
			}
		}
	}
	return string(rs)
}

// fuzzRule draws a rule over every registry measure, with thresholds on
// every scale an edit distance over long titles can meet, and now and
// then a negatively weighted operand, which leaves the rule without a
// prefilter.
func fuzzRule(rng *rand.Rand) *rule.Rule {
	measures := registryMeasures()
	props := []string{"title", "name", "year"}
	value := func() rule.ValueOp {
		var op rule.ValueOp = rule.NewProperty(props[rng.Intn(len(props))])
		switch rng.Intn(4) {
		case 0:
			op = rule.NewTransform(transform.LowerCase(), op)
		case 1:
			op = rule.NewTransform(transform.Tokenize(), op)
		}
		return op
	}
	threshold := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64()
		case 2:
			return rng.Float64() * 8
		default:
			return rng.Float64() * 140
		}
	}
	var sim func(depth int) rule.SimilarityOp
	sim = func(depth int) rule.SimilarityOp {
		if depth <= 0 || rng.Float64() < 0.4 {
			c := rule.NewComparison(value(), value(), measures[rng.Intn(len(measures))], threshold())
			c.SetWeight(rng.Intn(5))
			if rng.Intn(20) == 0 {
				c.SetWeight(-1)
			}
			return c
		}
		aggs := rule.CoreAggregators()
		ops := make([]rule.SimilarityOp, 1+rng.Intn(3))
		for i := range ops {
			ops[i] = sim(depth - 1)
		}
		return &rule.AggregationOp{Function: aggs[rng.Intn(len(aggs))], Operands: ops, W: rng.Intn(4)}
	}
	return rule.New(sim(2))
}

// fuzzEntity builds an entity whose properties hold x, y, edits of them
// and values the parsing measures read, some properties multi-valued.
func fuzzEntity(rng *rand.Rand, id, x, y string) *entity.Entity {
	pool := []string{x, y, fuzzEdit(rng, x), fuzzEdit(rng, y), x + " " + y, "2001-05-03", "1999", "52.52 13.405"}
	e := entity.New(id)
	for _, p := range []string{"title", "name", "year"} {
		for n := rng.Intn(3); n > 0; n-- {
			e.Add(p, pool[rng.Intn(len(pool))])
		}
	}
	return e
}

// FuzzProbeScore pins Probe.Score's contract from both sides on random
// rules over every registry measure, random pairs — titles on and around
// the 64-rune block boundary, non-ASCII, multi-valued sets — and random
// floors: a pair whose prefilter bound is below the floor is declined; a
// declined pair's Rule.Evaluate score is below the floor; and an accepted
// pair's score is Rule.Evaluate's, bit for bit.
func FuzzProbeScore(f *testing.F) {
	for _, n := range []int{63, 64, 65, 128, 129} {
		title := fuzzTitle("genetic programming for linkage rules ", n)
		f.Add(int64(n), title, strings.Replace(title, "g", "q", 3)+"x", 0.5)
		f.Add(int64(n+1), fuzzTitle("日本語のタイトル", n), fuzzTitle("日本語タイトル", n+3), 0.9)
		f.Add(int64(n+2), title, title[1:]+"s", 0.25)
	}
	f.Add(int64(1), "", "", 0.0)
	f.Add(int64(2), "café", "cafe", 1.0)
	f.Add(int64(3), "\xff\xfe invalid", "\xff invalid\x00", -1.0)
	f.Fuzz(func(t *testing.T, seed int64, x, y string, floor float64) {
		rng := rand.New(rand.NewSource(seed))
		r := fuzzRule(rng)
		c := evalengine.Compile(r)
		a, b := fuzzEntity(rng, "a", x, y), fuzzEntity(rng, "b", y, fuzzEdit(rng, x))
		want := r.Evaluate(a, b)
		bound := c.Scorer().Bound(a, b)
		p, rb := c.Bind(c.Record(a)), c.Record(b)
		for _, fl := range []float64{floor, math.Inf(-1), rng.Float64(), bound, math.Nextafter(bound, math.Inf(1)),
			want, math.Nextafter(want, math.Inf(1)), math.Nextafter(want, math.Inf(-1))} {
			got, ok := p.Score(rb, fl)
			switch {
			case ok && bound < fl:
				t.Fatalf("Score(b, %v) scored a pair bounded by %v\nrule: %s\na: %v\nb: %v", fl, bound, r.Render(), a, b)
			case !ok && !(want < fl):
				t.Fatalf("Score(b, %v) declined a pair scoring %v\nrule: %s\na: %v\nb: %v", fl, want, r.Render(), a, b)
			case ok && math.Float64bits(got) != math.Float64bits(want):
				t.Fatalf("Score(b, %v) = %v, Evaluate = %v\nrule: %s\na: %v\nb: %v", fl, got, want, r.Render(), a, b)
			}
		}
	})
}

// FuzzEngineGenerations feeds one engine a fuzzed sequence of batches
// drawn from a pool of random rules — signatures that repeat inside a
// batch, sit out batches and come back — under small distance and value
// caps and keepGenerations 1, so that batches evict and the per-signature
// memo must decline whenever a vector its rule reads was dropped. Each
// schedule byte adds pool rule byte%8 to the current batch; a byte with
// the high bit set also closes the batch. Every count of every batch must
// equal the tree-walk's.
func FuzzEngineGenerations(f *testing.F) {
	var memo []byte
	for _, picks := range memoSchedule {
		for i, p := range picks {
			b := byte(p)
			if i == len(picks)-1 {
				b |= 0x80
			}
			memo = append(memo, b)
		}
	}
	f.Add(int64(23), uint8(3), uint8(4), memo)
	f.Add(int64(1), uint8(0), uint8(0), []byte{0, 1, 0x82, 0, 0x81, 0x83, 2, 0x80})
	f.Add(int64(7), uint8(1), uint8(7), []byte{0x80, 0x80, 1, 2, 3, 4, 5, 6, 7, 0x87})
	// Found by fuzzing an engine that filled a cached value column for
	// one side only and never for the other side a later batch needed.
	f.Add(int64(-51), uint8('='), uint8('='), []byte("\x820"))
	f.Fuzz(func(t *testing.T, seed int64, maxDist, maxValue uint8, schedule []byte) {
		if len(schedule) > 96 {
			schedule = schedule[:96]
		}
		rng := rand.New(rand.NewSource(seed))
		refs := randomRefs(rng, 16)
		pool := make([]*rule.Rule, 8)
		for i := range pool {
			pool[i] = randomRule(rng)
		}
		eng := evalengine.New(refs, evalengine.Options{Workers: 2})
		eng.SetLimits(1+int(maxDist%4), 1+int(maxValue%8), 1)
		var batch []*rule.Rule
		batches := 0
		run := func() {
			got := eng.EvaluateBatch(batch)
			for i, r := range batch {
				if want := treeWalkCounts(r, refs); got[i] != want {
					t.Fatalf("batch %d rule %d: engine %+v, tree-walk %+v\nrule: %s", batches, i, got[i], want, r.Render())
				}
			}
			batch = batch[:0]
			batches++
		}
		for _, b := range schedule {
			batch = append(batch, pool[b%8].Clone())
			if b&0x80 != 0 {
				run()
			}
		}
		run()
	})
}

// TestProbeScoreAllocationFree pins the per-candidate cost of the rig's
// rule — title edit distance, author-token jaccard and date, under
// wmean — on Cora-like records: once the probe has built its title
// pattern (at the second candidate that reaches the edit distance),
// scoring a candidate allocates nothing, whatever the floor declines or
// accepts.
func TestProbeScoreAllocationFree(t *testing.T) {
	r := rigRule()
	c := evalengine.Compile(r)
	probe := entity.New("p")
	probe.Add("title", "Learning Expressive Linkage Rules using Genetic Programming")
	probe.Add("author", "Robert Isele, Christian Bizer")
	probe.Add("date", "2012")
	near := entity.New("near")
	near.Add("title", "learning expresive linkage rules using genetic programing")
	near.Add("author", "R. Isele, C. Bizer")
	near.Add("date", "2012")
	far := entity.New("far")
	far.Add("title", "Efficient Similarity Joins for Near Duplicate Detection")
	far.Add("author", "Chuan Xiao, Wei Wang")
	far.Add("date", "2008")
	p := c.Bind(c.Record(probe))
	rnear := c.Record(near)
	p.Score(rnear, math.Inf(-1))
	p.Score(rnear, math.Inf(-1))
	for _, cand := range []*entity.Entity{near, far, probe} {
		rb := c.Record(cand)
		for _, floor := range []float64{math.Inf(-1), 0.5, 0.9} {
			if n := testing.AllocsPerRun(100, func() { p.Score(rb, floor) }); n != 0 {
				t.Errorf("Score(%s, %v) allocates %v times per call", cand.ID, floor, n)
			}
		}
	}
}

// rigRule is the benchmark rig's rule (benchmark/rules/cora.json) as a
// literal.
func rigRule() *rule.Rule {
	lower := func(p string) rule.ValueOp { return rule.NewTransform(transform.LowerCase(), rule.NewProperty(p)) }
	title := rule.NewComparison(lower("title"), lower("title"), similarity.Levenshtein(), 8)
	title.SetWeight(4)
	authors := rule.NewComparison(
		rule.NewTransform(transform.Tokenize(), lower("author")),
		rule.NewTransform(transform.Tokenize(), lower("author")),
		similarity.Jaccard(), 0.8)
	date := rule.NewComparison(rule.NewProperty("date"), rule.NewProperty("date"), similarity.Date(), 400)
	return rule.New(rule.NewAggregation(rule.WMean(), title, authors, date))
}
