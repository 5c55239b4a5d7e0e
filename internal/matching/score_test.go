package matching

import (
	"fmt"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// countingEdit is similarity.Levenshtein counting every edit distance it
// runs, through any form the scoring engine calls.
type countingEdit struct {
	similarity.Measure
	n *int
}

func (m countingEdit) Distance(a, b []string) float64 {
	*m.n++
	return m.Measure.Distance(a, b)
}

// Within wraps the edit distance's bounded form for one pair of value
// sets, which the scoring engine runs for a probe's first candidate.
func (m countingEdit) Within(a, b []string, k float64) float64 {
	*m.n++
	return m.Measure.(interface {
		Within(a, b []string, k float64) float64
	}).Within(a, b, k)
}

// Pattern wraps the edit distance's bounded form, which the scoring
// engine finds by this method.
func (m countingEdit) Pattern(values []string) func([]string, float64) float64 {
	within := m.Measure.(interface {
		Pattern([]string) func([]string, float64) float64
	}).Pattern(values)
	return func(text []string, k float64) float64 {
		*m.n++
		return within(text, k)
	}
}

// countingEnumerator counts the Each calls made on it.
type countingEnumerator struct {
	Enumerator
	calls int
}

func (c *countingEnumerator) Each(probe *entity.Entity, maxBlock int, seen *SlotSet, yield func(slot int32) bool) bool {
	c.calls++
	return c.Enumerator.Each(probe, maxBlock, seen, yield)
}

// TestBatchProbeBelowThresholdComputesNothing pins the early exit batch
// matching shares with the served index: a probe whose Upper() bound is
// below the threshold — here it has no title, and the title comparison
// holds 3 of the wmean's 4 weight units — enumerates no candidate and
// computes no edit distance, while a probe with a title over the same
// B does compute them.
func TestBatchProbeBelowThresholdComputesNothing(t *testing.T) {
	var edits int
	title := rule.NewComparison(rule.NewProperty("title"), rule.NewProperty("title"), countingEdit{similarity.Levenshtein(), &edits}, 3)
	title.SetWeight(3)
	r := rule.New(rule.NewAggregation(rule.WMean(), title,
		rule.NewComparison(rule.NewProperty("label"), rule.NewProperty("label"), similarity.Jaccard(), 0.5)))
	b := entity.NewSource("b")
	for i := range 20 {
		e := entity.New(fmt.Sprintf("b%d", i))
		e.Add("title", fmt.Sprintf("linkage rule %d", i))
		e.Add("label", "linkage rule")
		b.Add(e)
	}
	untitled := entity.New("a0")
	untitled.Add("label", "linkage rule")
	titled := entity.New("a1")
	titled.Add("title", "linkage rule 7")
	titled.Add("label", "linkage rule")

	c := evalengine.Compile(r)
	if up := c.Bind(c.Record(untitled)).Upper(); up >= rule.MatchThreshold {
		t.Fatalf("untitled probe bound %v, want < %v", up, rule.MatchThreshold)
	}
	opts := Options{MaxBlockSize: -1}
	a := entity.NewSource("a")
	a.Add(untitled)
	if links := Match(r, a, b, opts); len(links) != 0 || edits != 0 {
		t.Fatalf("untitled probe: %d links, %d edit distances; want none", len(links), edits)
	}
	opts.normalize(b.Len())
	records := make([]*evalengine.Record, b.Len())
	for s, e := range b.Entities {
		records[s] = c.Record(e)
	}
	en := &countingEnumerator{Enumerator: newEnumerator(opts.Blocker, a.Entities, b.Entities)}
	if links, scored := ScoreCandidates(c, c.Record(untitled), untitled, en, 0, records, opts.Threshold, 0); scored || len(links) != 0 || en.calls != 0 || edits != 0 {
		t.Fatalf("untitled probe: scored %v, %d links, %d enumerations, %d edit distances; want none", scored, len(links), en.calls, edits)
	}

	a = entity.NewSource("a")
	a.Add(titled)
	if links := Match(r, a, b, opts); len(links) == 0 || edits == 0 {
		t.Fatalf("titled probe: %d links, %d edit distances; want some of both", len(links), edits)
	}
}
