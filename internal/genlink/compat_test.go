package genlink

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// figure3Links reproduces the example of Figure 3: two city entities whose
// label properties hold similar values and whose point/coord properties
// hold identical coordinates.
func figure3Links() []entity.Pair {
	a := entity.New("a/berlin")
	a.Add("label", "Berlin")
	a.Add("point", "52.31 13.24")
	b := entity.New("b/berlin")
	b.Add("label", "berlin")
	b.Add("coord", "52.31 13.24")
	return []entity.Pair{{A: a, B: b}}
}

func TestCompatiblePropertiesFigure3(t *testing.T) {
	measures := []similarity.Measure{similarity.Levenshtein(), similarity.Geographic()}
	pairs := CompatibleProperties(figure3Links(), measures, 1, 0, rand.New(rand.NewSource(1)))

	want := map[[3]string]bool{
		{"label", "label", "levenshtein"}: false,
		{"point", "coord", "geographic"}:  false,
	}
	for _, p := range pairs {
		key := [3]string{p.A, p.B, p.Measure}
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for key, found := range want {
		if !found {
			t.Errorf("expected compatible pair %v (Figure 3)", key)
		}
	}
	// The cross pair (label, coord) must not match under levenshtein θ=1.
	for _, p := range pairs {
		if p.A == "label" && p.B == "coord" && p.Measure == "levenshtein" {
			t.Error("label/coord should not be levenshtein-compatible")
		}
	}
}

func TestCompatiblePropertiesThreshold(t *testing.T) {
	a := entity.New("a")
	a.Add("name", "completely")
	b := entity.New("b")
	b.Add("title", "different")
	links := []entity.Pair{{A: a, B: b}}
	pairs := CompatibleProperties(links, []similarity.Measure{similarity.Levenshtein()}, 1, 0, rand.New(rand.NewSource(1)))
	if len(pairs) != 0 {
		t.Fatalf("dissimilar values produced pairs: %v", pairs)
	}
}

func TestCompatiblePropertiesLowercasesAndTokenizes(t *testing.T) {
	// "The Great Escape" vs "great escape, the" share lowercase tokens.
	a := entity.New("a")
	a.Add("title", "The Great Escape")
	b := entity.New("b")
	b.Add("name", "GREAT escape")
	links := []entity.Pair{{A: a, B: b}}
	pairs := CompatibleProperties(links, []similarity.Measure{similarity.Levenshtein()}, 1, 0, rand.New(rand.NewSource(1)))
	if len(pairs) != 1 || pairs[0].A != "title" || pairs[0].B != "name" {
		t.Fatalf("pairs = %v, want title→name", pairs)
	}
}

func TestCompatiblePropertiesSupportOrdering(t *testing.T) {
	var links []entity.Pair
	for i := 0; i < 4; i++ {
		a := entity.New("a")
		a.Add("strong", "shared")
		b := entity.New("b")
		b.Add("strong", "shared")
		if i == 0 {
			a.Add("weak", "once")
			b.Add("weak", "once")
		}
		links = append(links, entity.Pair{A: a, B: b})
	}
	pairs := CompatibleProperties(links, []similarity.Measure{similarity.Levenshtein()}, 1, 0, rand.New(rand.NewSource(1)))
	if len(pairs) < 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].A != "strong" || pairs[0].Support != 4 {
		t.Fatalf("highest-support pair should come first, got %+v", pairs[0])
	}
}

func TestCompatiblePropertiesSampling(t *testing.T) {
	var links []entity.Pair
	for i := 0; i < 100; i++ {
		a := entity.New("a")
		a.Add("p", "same")
		b := entity.New("b")
		b.Add("q", "same")
		links = append(links, entity.Pair{A: a, B: b})
	}
	pairs := CompatibleProperties(links, []similarity.Measure{similarity.Levenshtein()}, 1, 10, rand.New(rand.NewSource(1)))
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].Support > 10 {
		t.Fatalf("sampled support = %d, cap was 10", pairs[0].Support)
	}
}

func TestAllPropertyPairs(t *testing.T) {
	a := entity.New("a")
	a.Add("p1", "x")
	a.Add("p2", "y")
	b := entity.New("b")
	b.Add("q1", "x")
	pairs := AllPropertyPairs([]entity.Pair{{A: a, B: b}})
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want 2 (cross product)", pairs)
	}
	for _, p := range pairs {
		if p.Measure != "" {
			t.Fatal("AllPropertyPairs should leave measures empty")
		}
	}
}

// pairwiseCompatibleProperties is Algorithm 2 as it was before the
// prepared measures: every measure re-run on the strings of every property
// pair. It is the reference CompatibleProperties is held to.
func pairwiseCompatibleProperties(links []entity.Pair, measures []similarity.Measure, threshold float64) map[[3]string]int {
	lower, tokenize := transform.LowerCase(), transform.Tokenize()
	support := make(map[[3]string]int)
	for _, link := range links {
		for _, pa := range link.A.PropertyNames() {
			rawA := lower.Apply(link.A.Values(pa))
			for _, pb := range link.B.PropertyNames() {
				rawB := lower.Apply(link.B.Values(pb))
				if len(rawA) == 0 || len(rawB) == 0 {
					continue
				}
				for _, m := range measures {
					if m.Distance(tokenize.Apply(rawA), tokenize.Apply(rawB)) < threshold ||
						m.Distance(rawA, rawB) < threshold {
						support[[3]string{pa, pb, m.Name()}]++
					}
				}
			}
		}
	}
	return support
}

func TestCompatiblePropertiesMatchesPairwiseReference(t *testing.T) {
	parsed := 0 // pairs found by a measure that parses its values
	for _, ds := range datagen.All(3) {
		links := ds.Refs.Positive[:min(10, len(ds.Refs.Positive))]
		for _, threshold := range []float64{1, 400} { // 400: days, meters and plain numbers within reach
			want := pairwiseCompatibleProperties(links, similarity.Core(), threshold)
			got := CompatibleProperties(links, similarity.Core(), threshold, 0, nil)
			if len(got) != len(want) {
				t.Errorf("%s θ=%v: %d pairs, reference has %d", ds.Name, threshold, len(got), len(want))
			}
			for _, p := range got {
				switch p.Measure {
				case "numeric", "geographic", "date":
					parsed++
				}
				if want[[3]string{p.A, p.B, p.Measure}] != p.Support {
					t.Errorf("%s θ=%v: %+v, reference support %d", ds.Name, threshold, p, want[[3]string{p.A, p.B, p.Measure}])
				}
			}
		}
	}
	if parsed == 0 {
		t.Error("no pair was found by numeric, geographic or date: the prepared columns went unexercised")
	}
}

// TestCompatiblePropertiesAnyCoreCount runs Algorithm 2 on every positive
// link of each dataset, and on a sample of half of them, at GOMAXPROCS 1
// and 4: the links are split across that many workers, whose support
// counts are summed, and the list must not depend on how they were
// split.
func TestCompatiblePropertiesAnyCoreCount(t *testing.T) {
	run := func(procs int, links []entity.Pair, maxLinks int) []PropertyPair {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return CompatibleProperties(links, similarity.Core(), 1, maxLinks, rand.New(rand.NewSource(5)))
	}
	for _, ds := range datagen.All(3) {
		links := ds.Refs.Positive
		for _, maxLinks := range []int{0, len(links) / 2} {
			one, four := run(1, links, maxLinks), run(4, links, maxLinks)
			if len(one) == 0 {
				t.Fatalf("%s maxLinks=%d: no compatible pairs", ds.Name, maxLinks)
			}
			if !reflect.DeepEqual(one, four) {
				t.Errorf("%s maxLinks=%d: %d pairs at GOMAXPROCS 1, %d at 4, or their order or support differs",
					ds.Name, maxLinks, len(one), len(four))
			}
		}
	}
}
