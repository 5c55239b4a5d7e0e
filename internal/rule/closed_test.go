package rule_test

import (
	"reflect"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/rule"
)

// Would-be extension kinds: each declares every exported method of one
// operator interface.
type (
	extensionValue struct{}
	extensionSim   struct{}
	extensionAgg   struct{}
)

func (extensionValue) Evaluate(*entity.Entity) []string              { return nil }
func (extensionValue) CloneValue() rule.ValueOp                      { return nil }
func (extensionValue) Count() int                                    { return 1 }
func (extensionSim) Evaluate(a, b *entity.Entity) float64            { return 0 }
func (extensionSim) CloneSim() rule.SimilarityOp                     { return nil }
func (extensionSim) Weight() int                                     { return 1 }
func (extensionSim) SetWeight(int)                                   {}
func (extensionSim) Count() int                                      { return 1 }
func (extensionAgg) Name() string                                    { return "ext" }
func (extensionAgg) Combine(scores []float64, weights []int) float64 { return 0 }

// TestOperatorKindsAreClosed pins that the rule algebra is closed: a type
// declared outside package rule cannot implement ValueOp, SimilarityOp or
// Aggregator, so the four operator kinds and min/max/wmean are all the
// compiler, the signatures and the prefilter ever see.
func TestOperatorKindsAreClosed(t *testing.T) {
	cases := []struct {
		ext, iface reflect.Type
	}{
		{reflect.TypeOf(extensionValue{}), reflect.TypeOf((*rule.ValueOp)(nil)).Elem()},
		{reflect.TypeOf(extensionSim{}), reflect.TypeOf((*rule.SimilarityOp)(nil)).Elem()},
		{reflect.TypeOf(extensionAgg{}), reflect.TypeOf((*rule.Aggregator)(nil)).Elem()},
	}
	for _, c := range cases {
		for i := 0; i < c.iface.NumMethod(); i++ {
			if m := c.iface.Method(i); m.IsExported() {
				if _, ok := c.ext.MethodByName(m.Name); !ok {
					t.Fatalf("%v lacks %v.%s: the check would pass for the wrong reason", c.ext, c.iface, m.Name)
				}
			}
		}
		if c.ext.Implements(c.iface) {
			t.Errorf("%v implements %v from outside package rule", c.ext, c.iface)
		}
	}
}
