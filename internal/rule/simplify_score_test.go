package rule_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
)

// Property: Simplify never changes any similarity score, bit for bit,
// whether the rules are scored by the tree-walk or compiled. Rounding
// differences are rare — a weighted mean's w·s/w usually rounds back to
// s — hence the many draws.
func TestSimplifySemanticsPreservedProperty(t *testing.T) {
	props := []string{"name", "label", "date", "coord"}
	words := []string{"berlin", "52.5 13.4", "2001-05-02", "alpha beta", "x"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := rule.New(rule.RandomSimOp(rng, 3))
		s := r.Simplify()
		cr, cs := evalengine.Compile(r), evalengine.Compile(s)
		for trial := 0; trial < 5; trial++ {
			a, b := entity.New("a"), entity.New("b")
			for _, p := range props {
				if rng.Float64() < 0.8 {
					a.Add(p, words[rng.Intn(len(words))])
				}
				if rng.Float64() < 0.8 {
					b.Add(p, words[rng.Intn(len(words))])
				}
			}
			want := r.Evaluate(a, b)
			got := []float64{
				s.Evaluate(a, b),
				compiledScore(cr, a, b),
				compiledScore(cs, a, b),
			}
			for _, g := range got {
				if math.Float64bits(g) != math.Float64bits(want) {
					t.Logf("rule: %s\nsimplified: %s\nscores %v, want %v", r.Compact(), s.Compact(), got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func compiledScore(c *evalengine.Compiled, a, b *entity.Entity) float64 {
	score, _ := c.Bind(c.Record(a)).Score(c.Record(b), math.Inf(-1))
	return score
}
