package main

import (
	"path/filepath"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/evalengine"
	"genlink/internal/evalx"
)

// The pinned rule must stay parseable, compile to value and distance
// programs (not the opaque tree-walk fallback) and be a good Cora rule:
// the service workloads measure how fast it is served, and a rule that
// matched nothing would make them measure an empty funnel.
func TestPinnedRule(t *testing.T) {
	rl, err := loadRule(filepath.Join("rules", "cora.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Validate(); err != nil {
		t.Fatal(err)
	}
	if !rl.HasOnlyCoreOps() {
		t.Fatal("pinned rule uses non-core operators: evalengine would serve it through the interpreted walk")
	}
	st := rl.ComputeStats()
	if c := evalengine.Compile(rl); c.NumDistPrograms() != 3 || c.NumValuePrograms() == 0 {
		t.Fatalf("compiled to %d distance and %d value programs, want 3 comparisons (stats %+v)", c.NumDistPrograms(), c.NumValuePrograms(), st)
	}
	for seed := int64(1); seed <= 3; seed++ {
		if f1 := evalx.Evaluate(rl, datagen.Cora(seed).Refs).FMeasure(); f1 < 0.90 {
			t.Errorf("F1 %.3f on datagen.Cora(%d) reference links, want ≥ 0.90", f1, seed)
		}
	}
}
