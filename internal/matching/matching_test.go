package matching

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

func citySources(n int) (*entity.Source, *entity.Source) {
	a := entity.NewSource("a")
	b := entity.NewSource("b")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("city%03d", i)
		ea := entity.New("a/" + name)
		ea.Add("label", name)
		ea.Add("coord", fmt.Sprintf("%f %f", 40+float64(i)*0.1, 10+float64(i)*0.1))
		a.Add(ea)
		eb := entity.New("b/" + name)
		eb.Add("label", name)
		eb.Add("point", fmt.Sprintf("%f %f", 40+float64(i)*0.1, 10+float64(i)*0.1))
		b.Add(eb)
	}
	return a, b
}

// labelRule compares lowercased labels by levenshtein at θ 0.5, which
// has an edit bound (K = 0): Match serves it from the rule index,
// whatever the blocker.
func labelRule() *rule.Rule {
	return rule.New(rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("label")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("label")),
		similarity.Levenshtein(), 0.5))
}

// normLabelRule is labelRule's comparison over normLevenshtein at θ 0.2,
// which has no edit bound: Match serves it from the blocker, so the
// tests of a blocker's enumeration run it.
func normLabelRule() *rule.Rule {
	r := rule.New(rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("label")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("label")),
		similarity.NormalizedLevenshtein(), 0.2))
	if _, ok := evalengine.Compile(r).EditBound(rule.MatchThreshold); ok {
		panic("normLevenshtein has an edit bound")
	}
	return r
}

func TestMatchFindsAllPairs(t *testing.T) {
	a, b := citySources(30)
	links := Match(labelRule(), a, b, Options{})
	if len(links) != 30 {
		t.Fatalf("links = %d, want 30", len(links))
	}
	for _, l := range links {
		if l.AID[2:] != l.BID[2:] {
			t.Fatalf("wrong link %v", l)
		}
		if l.Score < rule.MatchThreshold {
			t.Fatalf("link below threshold: %v", l)
		}
	}
}

// TestMatchAgainstCartesian pins that Match of a rule with an edit bound
// returns exactly MatchCartesian's links, under the default options and
// under every blocker: the rule index serves it, whatever the blocker.
func TestMatchAgainstCartesian(t *testing.T) {
	a, b := citySources(25)
	exact := MatchCartesian(labelRule(), a, b, Options{})
	for _, opts := range append([]Options{{}}, blockerOptions()...) {
		if blocked := Match(labelRule(), a, b, opts); !reflect.DeepEqual(blocked, exact) {
			t.Fatalf("blocker %v changed results: %d vs %d links", opts.Blocker, len(blocked), len(exact))
		}
	}
}

func TestMatchThresholdOption(t *testing.T) {
	a, b := citySources(10)
	// Threshold above 1 can never be reached.
	links := Match(labelRule(), a, b, Options{Threshold: 1.1})
	if len(links) != 0 {
		t.Fatalf("links above threshold 1.1 = %d", len(links))
	}
}

func TestIndexCandidates(t *testing.T) {
	src := entity.NewSource("s")
	e1 := entity.New("e1")
	e1.Add("label", "Berlin Mitte")
	e2 := entity.New("e2")
	e2.Add("label", "Berlin Spandau")
	e3 := entity.New("e3")
	e3.Add("label", "Hamburg")
	src.Add(e1)
	src.Add(e2)
	src.Add(e3)
	idx := NewBlockIndex(TokenBlocking())
	idx.BulkAdd(src.Entities)
	if idx.Keys() != 4 { // berlin, mitte, spandau, hamburg
		t.Fatalf("tokens = %d", idx.Keys())
	}
	probe := entity.New("p")
	probe.Add("name", "berlin")
	cands := idx.Candidates(probe, 0)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
}

func TestIndexStopTokenSuppression(t *testing.T) {
	src := entity.NewSource("s")
	for i := 0; i < 100; i++ {
		e := entity.New(fmt.Sprint("e", i))
		e.Add("label", fmt.Sprintf("the item%d", i)) // "the" is shared by all
		src.Add(e)
	}
	idx := NewBlockIndex(TokenBlocking())
	idx.BulkAdd(src.Entities)
	probe := entity.New("p")
	probe.Add("label", "the item5")
	all := idx.Candidates(probe, 0)
	if len(all) != 100 {
		t.Fatalf("unbounded candidates = %d", len(all))
	}
	limited := idx.Candidates(probe, 50)
	if len(limited) != 1 {
		t.Fatalf("suppressed candidates = %d, want 1 (only item5)", len(limited))
	}
}

func TestMatchSkipsSelfPairs(t *testing.T) {
	// Dedup setup: A and B are the same source.
	src := entity.NewSource("s")
	e1 := entity.New("e1")
	e1.Add("label", "alpha")
	e2 := entity.New("e2")
	e2.Add("label", "alpha")
	src.Add(e1)
	src.Add(e2)
	links := Match(labelRule(), src, src, Options{})
	for _, l := range links {
		if l.AID == l.BID {
			t.Fatalf("self link emitted: %v", l)
		}
	}
	if len(links) != 2 { // e1→e2 and e2→e1
		t.Fatalf("links = %d, want 2", len(links))
	}
}

func TestLinksSortedDeterministically(t *testing.T) {
	a, b := citySources(20)
	l1 := Match(labelRule(), a, b, Options{})
	l2 := Match(labelRule(), a, b, Options{})
	if !reflect.DeepEqual(l1, l2) {
		t.Fatal("match output not deterministic")
	}
	for i := 1; i < len(l1); i++ {
		if l1[i-1].Score < l1[i].Score {
			t.Fatal("links not sorted by descending score")
		}
	}
}

func TestBlockingRecallOnNoisyData(t *testing.T) {
	// Token blocking must retain pairs that share at least one token even
	// under per-token noise elsewhere.
	rng := rand.New(rand.NewSource(1))
	a := entity.NewSource("a")
	b := entity.NewSource("b")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key%04d", i)
		ea := entity.New(fmt.Sprint("a", i))
		ea.Add("label", key+" alpha gamma")
		a.Add(ea)
		eb := entity.New(fmt.Sprint("b", i))
		noise := fmt.Sprintf("beta%d", rng.Intn(1000))
		eb.Add("label", key+" alpha "+noise)
		b.Add(eb)
	}
	// Shared tokens {key, alpha} of 4 distinct → jaccard d = 0.5;
	// with θ = 1 the score is exactly 0.5, the link threshold.
	r := rule.New(rule.NewComparison(
		rule.NewTransform(transform.Tokenize(), rule.NewProperty("label")),
		rule.NewTransform(transform.Tokenize(), rule.NewProperty("label")),
		similarity.Jaccard(), 1))
	links := Match(r, a, b, Options{})
	found := make(map[string]bool)
	for _, l := range links {
		if l.AID[1:] == l.BID[1:] {
			found[l.AID] = true
		}
	}
	if len(found) != 50 {
		t.Fatalf("blocking lost matches: found %d/50", len(found))
	}
}
