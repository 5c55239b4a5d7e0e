package genlink

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/evalx"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/learner_golden.json from this build")

// goldenGeneration is what one IterationStats entry must reproduce:
// every field that describes the evolution. Wall-clock fields and the
// engine's work counters are left out — they describe how the result
// was computed, not what it is.
type goldenGeneration struct {
	Iteration     int
	TrainF1       float64
	ValF1         float64
	MeanF1        float64
	BestFitness   float64
	OperatorCount int
}

type goldenRun struct {
	Dataset string
	Seed    int64
	History []goldenGeneration
	Best    string
}

// TestLearnerGolden holds the learner to the evolution recorded in
// testdata/learner_golden.json (written at the commit before the
// prepared measures and the per-signature Counts memo landed): one fixed
// seed per Table 5 dataset, 2-fold split, every generation's statistics
// and the best rule's signature, compared exactly. Anything that changes
// a distance by one bit, a confusion count by one pair or the order in
// which the random source is consumed shows up here.
func TestLearnerGolden(t *testing.T) {
	var got []goldenRun
	for di, ds := range datagen.All(1) {
		folds := evalx.SplitFolds(ds.Refs, 2, rand.New(rand.NewSource(int64(100+di))))
		cfg := DefaultConfig()
		cfg.PopulationSize = 150
		cfg.MaxIterations = 10
		cfg.TargetFMeasure = 2 // never reached: every run does all ten generations
		cfg.Seed = int64(7 + di)
		cfg.Workers = 2
		res, err := NewLearner(cfg).LearnWithValidation(folds[0], folds[1])
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		run := goldenRun{Dataset: ds.Name, Seed: cfg.Seed, Best: res.Best.Signature()}
		for _, h := range res.History {
			run.History = append(run.History, goldenGeneration{
				Iteration:     h.Iteration,
				TrainF1:       h.TrainF1,
				ValF1:         h.ValF1,
				MeanF1:        h.MeanF1,
				BestFitness:   h.BestFitness,
				OperatorCount: h.OperatorCount,
			})
		}
		got = append(got, run)
	}

	path := filepath.Join("testdata", "learner_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Dataset != w.Dataset || g.Seed != w.Seed || len(g.History) != len(w.History) {
			t.Fatalf("run %d: %s seed %d with %d generations, golden is %s seed %d with %d",
				i, g.Dataset, g.Seed, len(g.History), w.Dataset, w.Seed, len(w.History))
		}
		for j := range w.History {
			if g.History[j] != w.History[j] {
				t.Errorf("%s generation %d:\n got  %+v\n want %+v", w.Dataset, j, g.History[j], w.History[j])
			}
		}
		if g.Best != w.Best {
			t.Errorf("%s best rule:\n got  %s\n want %s", w.Dataset, g.Best, w.Best)
		}
	}
}
