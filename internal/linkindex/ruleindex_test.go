package linkindex

import (
	"strings"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// TestProbeKeysSkipEarlyExit pins that a probe whose bound already
// misses the threshold gets no rule-index keys: no shard enumerates for
// it, so none are derived. The rule is a min over the name's
// edit distance and the titles' overlap, so a probe without a title has
// a bound of 0 however close a stored name is to its own.
func TestProbeKeysSkipEarlyExit(t *testing.T) {
	r := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(rule.NewProperty("name"), rule.NewProperty("name"), similarity.Levenshtein(), 2),
		rule.NewComparison(rule.NewProperty("title"), rule.NewProperty("title"), similarity.Jaccard(), 0.5)))
	ix := NewSharded(r, 2, matching.Options{Threshold: 0.5})
	if !strings.HasPrefix(ix.CandidateSource(), "rule index") {
		t.Fatalf("min(levenshtein θ 2, …) at T = 0.5 is served from %s", ix.CandidateSource())
	}
	titled, untitled := entity.New("a"), entity.New("b")
	titled.Set("name", "alice")
	titled.Set("title", "x")
	untitled.Set("name", "alice")
	if keys := ix.source.ProbeKeys(ix.compiled.Record(titled)); len(keys) == 0 {
		t.Error("a probe that can reach the threshold got no keys")
	}
	if keys := ix.source.ProbeKeys(ix.compiled.Record(untitled)); keys != nil {
		t.Errorf("an early-exit probe got %d keys", len(keys))
	}
}
