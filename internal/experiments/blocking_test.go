package experiments

import (
	"strings"
	"testing"

	"genlink/internal/matching"
)

func TestProbeRuleKnownDatasets(t *testing.T) {
	for name := range blockingProbes {
		if ProbeRule(name) == nil {
			t.Fatalf("no probe rule for %s", name)
		}
	}
	if ProbeRule("nope") != nil {
		t.Fatal("unknown dataset should have no probe rule")
	}
	if AblationBlockers("nope") != nil {
		t.Fatal("unknown dataset should have no ablation blockers")
	}
}

// The headline claim of the blocking ablation: on Cora, the multi-pass
// sorted-neighborhood composite generates several times fewer candidates
// than token blocking at equal F1 under the fixed probe rule. This pins
// the acceptance criterion without paying for the full (cartesian-anchored)
// ablation in tests.
func TestMultiPassBeatsTokenOnCora(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	ds := Dataset("Cora", 1)
	r := ProbeRule(ds.Name)
	positives := make(map[[2]string]bool, len(ds.Refs.Positive))
	for _, p := range ds.Refs.Positive {
		positives[[2]string{p.A.ID, p.B.ID}] = true
	}
	blockers := AblationBlockers(ds.Name)
	token, multi := blockers[0], blockers[3]
	if !strings.HasPrefix(multi.Name(), "multipass(") {
		t.Fatalf("expected multipass last, got %s", multi.Name())
	}

	measure := func(bl matching.Blocker) (int, float64) {
		opts := matching.Options{Blocker: bl}
		pairs := matching.CandidatePairs(bl, ds.A, ds.B, opts)
		links := matching.MatchPairs(r, pairs, opts)
		return len(pairs), linkF1(links, positives)
	}
	tokenPairs, tokenF1 := measure(token)
	multiPairs, multiF1 := measure(multi)
	if multiPairs*3 > tokenPairs {
		t.Fatalf("multipass should generate ≤⅓ of token's candidates: %d vs %d",
			multiPairs, tokenPairs)
	}
	if multiF1 < tokenF1-0.01 {
		t.Fatalf("multipass F1 %.3f below token F1 %.3f", multiF1, tokenF1)
	}
}

// TestBlockingAblationPinned pins the blocking ablation's rows on the two
// datasets it runs on in about a second each: every row's candidate
// count, pairs completeness, link recall and F1 are the values recorded
// before batch matching and the served index shared one scoring loop.
// CandidatePairs + MatchPairs build this table, so a change to either
// that moves a link shows here; only Millis is left out.
func TestBlockingAblationPinned(t *testing.T) {
	type row struct {
		dataset, blocker   string
		candidates         int
		pc, linkRecall, f1 float64
	}
	want := []row{
		{"Restaurant", "token", 63392, 1, 0.6372549019607843, 0.6892655367231638},
		{"Restaurant", "sortedneighborhood(w=10,key=name)", 8176, 0.5178571428571429, 0.7450980392156863, 0.5957446808510638},
		{"Restaurant", "qgram(q=3)", 198666, 1, 0.8725490196078431, 0.6069651741293532},
		{"Restaurant", "multipass(sortedneighborhood(w=10,key=name)+sortedneighborhood(w=10,revkey=name))", 16159, 0.9821428571428571, 0.9803921568627451, 0.5754716981132075},
		{"LinkedMDB", "token", 130, 1, 1, 0.801980198019802},
		{"LinkedMDB", "sortedneighborhood(w=10,key=movieTitle)", 1895, 1, 1, 0.801980198019802},
		{"LinkedMDB", "qgram(q=3)", 34611, 1, 1, 0.801980198019802},
		{"LinkedMDB", "multipass(sortedneighborhood(w=10,key=movieTitle)+sortedneighborhood(w=10,revkey=movieTitle))", 3435, 1, 1, 0.801980198019802},
	}
	var got []row
	for _, name := range []string{"Restaurant", "LinkedMDB"} {
		for _, r := range BlockingAblation(Dataset(name, 1)) {
			got = append(got, row{r.Dataset, r.Blocker, r.Candidates, r.PairsCompleteness, r.LinkRecall, r.F1})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestFormatBlockingTable(t *testing.T) {
	rows := []BlockingRow{{
		Dataset: "Cora", Blocker: "token", Candidates: 100,
		CartesianPairs: 1000, PairsCompleteness: 0.9, LinkRecall: 0.95,
		F1: 0.8, Millis: 1.5,
	}}
	out := FormatBlockingTable(rows)
	for _, want := range []string{"Cora", "token", "100", "10.0%", "0.900"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestLinkF1(t *testing.T) {
	positives := map[[2]string]bool{{"a1", "b1"}: true, {"a2", "b2"}: true}
	links := []matching.Link{
		{AID: "a1", BID: "b1", Score: 1},
		{AID: "b2", BID: "a2", Score: 1}, // reversed direction still counts
		{AID: "a9", BID: "b9", Score: 1}, // false positive
	}
	got := linkF1(links, positives)
	// precision 2/3, recall 2/2 → F1 = 0.8
	if got < 0.799 || got > 0.801 {
		t.Fatalf("linkF1 = %f, want 0.8", got)
	}
	if linkF1(nil, positives) != 0 {
		t.Fatal("no links should score 0")
	}
	if linkF1(links, nil) != 0 {
		t.Fatal("no positives should score 0")
	}
}
