package matching

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFilterOneToOne(t *testing.T) {
	links := []Link{
		{AID: "a1", BID: "b1", Score: 0.9},
		{AID: "a1", BID: "b2", Score: 0.8}, // a1 already used
		{AID: "a2", BID: "b1", Score: 0.7}, // b1 already used
		{AID: "a2", BID: "b2", Score: 0.6},
	}
	got := FilterOneToOne(links)
	want := []Link{
		{AID: "a1", BID: "b1", Score: 0.9},
		{AID: "a2", BID: "b2", Score: 0.6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FilterOneToOne = %v", got)
	}
}

func TestFilterOneToOnePrefersHigherScore(t *testing.T) {
	links := []Link{
		{AID: "a1", BID: "b1", Score: 0.6},
		{AID: "a2", BID: "b1", Score: 0.9},
	}
	got := FilterOneToOne(links)
	if len(got) != 1 || got[0].AID != "a2" {
		t.Fatalf("greedy assignment should pick the higher score: %v", got)
	}
}

// Property: the filtered set is one-to-one and a subset of the input.
func TestFilterOneToOneProperty(t *testing.T) {
	f := func(pairs []struct{ A, B uint8 }) bool {
		links := make([]Link, len(pairs))
		for i, p := range pairs {
			links[i] = Link{
				AID:   string(rune('a' + p.A%16)),
				BID:   string(rune('A' + p.B%16)),
				Score: float64(i%10) / 10,
			}
		}
		out := FilterOneToOne(links)
		seenA := make(map[string]bool)
		seenB := make(map[string]bool)
		for _, l := range out {
			if seenA[l.AID] || seenB[l.BID] {
				return false
			}
			seenA[l.AID] = true
			seenB[l.BID] = true
		}
		return len(out) <= len(links)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKPerSource(t *testing.T) {
	links := []Link{
		{AID: "a1", BID: "b1", Score: 0.9},
		{AID: "a1", BID: "b2", Score: 0.8},
		{AID: "a1", BID: "b3", Score: 0.7},
		{AID: "a2", BID: "b4", Score: 0.5},
	}
	got := TopKPerSource(links, 2)
	if len(got) != 3 {
		t.Fatalf("TopK(2) = %v", got)
	}
	for _, l := range got {
		if l.AID == "a1" && l.BID == "b3" {
			t.Fatal("third link for a1 should be dropped")
		}
	}
	if got := TopKPerSource(links, 0); len(got) != 4 {
		t.Fatal("k=0 should keep everything")
	}
}

func TestWriteSameAs(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSameAs(&buf, []Link{
		{AID: "http://a/1", BID: "http://b/1", Score: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "<http://a/1> <http://www.w3.org/2002/07/owl#sameAs> <http://b/1> .\n"
	if buf.String() != want {
		t.Fatalf("sameAs output = %q", buf.String())
	}
}

func TestPostprocessEmptyLinks(t *testing.T) {
	if got := FilterOneToOne(nil); len(got) != 0 {
		t.Fatalf("FilterOneToOne(nil) = %v", got)
	}
	if got := FilterOneToOne([]Link{}); len(got) != 0 {
		t.Fatalf("FilterOneToOne(empty) = %v", got)
	}
	if got := TopKPerSource(nil, 3); len(got) != 0 {
		t.Fatalf("TopKPerSource(nil, 3) = %v", got)
	}
	if got := TopKPerSource(nil, 0); len(got) != 0 {
		t.Fatalf("TopKPerSource(nil, 0) = %v", got)
	}
	var buf bytes.Buffer
	if err := WriteSameAs(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("WriteSameAs(nil): err=%v out=%q", err, buf.String())
	}
}

func TestFilterOneToOneTieBreaksByID(t *testing.T) {
	// Equal scores: the sort falls back to ascending AID then BID, so a1
	// must claim b1 and a2 is left with b2 — deterministically.
	links := []Link{
		{AID: "a2", BID: "b1", Score: 0.8},
		{AID: "a1", BID: "b1", Score: 0.8},
		{AID: "a2", BID: "b2", Score: 0.8},
	}
	want := []Link{
		{AID: "a1", BID: "b1", Score: 0.8},
		{AID: "a2", BID: "b2", Score: 0.8},
	}
	for i := 0; i < 5; i++ {
		if got := FilterOneToOne(links); !reflect.DeepEqual(got, want) {
			t.Fatalf("tie-break not deterministic: %v", got)
		}
	}
}

func TestFilterOneToOneDoesNotMutateInput(t *testing.T) {
	links := []Link{
		{AID: "a2", BID: "b2", Score: 0.5},
		{AID: "a1", BID: "b1", Score: 0.9},
	}
	orig := append([]Link(nil), links...)
	FilterOneToOne(links)
	if !reflect.DeepEqual(links, orig) {
		t.Fatalf("input reordered: %v", links)
	}
}

func TestTopKPerSourceTieBreaksByID(t *testing.T) {
	// Three equal-score links for a1: TopK(2) must keep the two with the
	// smallest BIDs, not an arbitrary pair.
	links := []Link{
		{AID: "a1", BID: "b3", Score: 0.7},
		{AID: "a1", BID: "b1", Score: 0.7},
		{AID: "a1", BID: "b2", Score: 0.7},
	}
	got := TopKPerSource(links, 2)
	want := []Link{
		{AID: "a1", BID: "b1", Score: 0.7},
		{AID: "a1", BID: "b2", Score: 0.7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK tie-break = %v", got)
	}
}

func TestTopKPerSourceNegativeKKeepsEverything(t *testing.T) {
	links := []Link{{AID: "a1", BID: "b1", Score: 0.9}}
	if got := TopKPerSource(links, -1); len(got) != 1 {
		t.Fatalf("TopK(-1) = %v", got)
	}
}

func TestMatchParallelMatchesSerial(t *testing.T) {
	a, b := citySources(40)
	serial := Match(labelRule(), a, b, Options{})
	parallel := MatchParallel(labelRule(), a, b, Options{}, 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel match differs: %d vs %d links", len(serial), len(parallel))
	}
	single := MatchParallel(labelRule(), a, b, Options{}, 1)
	if !reflect.DeepEqual(serial, single) {
		t.Fatal("workers=1 should equal serial")
	}
	auto := MatchParallel(labelRule(), a, b, Options{}, 0)
	if !reflect.DeepEqual(serial, auto) {
		t.Fatal("workers=0 (auto) should equal serial")
	}
}
