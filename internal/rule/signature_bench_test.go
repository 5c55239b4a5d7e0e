package rule_test

import (
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/genlink"
	"genlink/internal/rule"
)

// BenchmarkSignature signs a fixed population of learned rules — the
// committees (Result.TopRules) of short learning runs on the six
// datasets — once per op, as EvaluateBatch signs every rule of every
// generation.
func BenchmarkSignature(b *testing.B) {
	var rules []*rule.Rule
	for _, ds := range datagen.All(1) {
		cfg := genlink.DefaultConfig()
		cfg.PopulationSize, cfg.MaxIterations = 100, 10
		res, err := genlink.NewLearner(cfg).Learn(ds.Refs)
		if err != nil {
			b.Fatal(err)
		}
		rules = append(rules, res.TopRules...)
	}
	bytes := 0
	for _, r := range rules {
		bytes += len(r.Signature())
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range rules {
			r.Signature()
		}
	}
	b.ReportMetric(float64(len(rules)), "rules/op")
	b.ReportMetric(float64(bytes), "sigbytes/op")
}
