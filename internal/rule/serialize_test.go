package rule

import (
	"encoding/json"
	"encoding/xml"
	"math/rand"
	"testing"
	"testing/quick"

	"genlink/internal/similarity"
	"genlink/internal/transform"
)

func TestJSONRoundTrip(t *testing.T) {
	r := figure2Rule()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Compact() != r.Compact() {
		t.Fatalf("round trip changed rule:\n%s\n%s", r.Compact(), back.Compact())
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParseReturnsValidateError pins decoding as the boundary of rule
// shape: for a rule Validate rejects, ParseJSON and ParseXML of its
// encodings fail with Validate's own error instead of serving the rule.
func TestParseReturnsValidateError(t *testing.T) {
	negative := NewComparison(NewProperty("a"), NewProperty("b"), similarity.Levenshtein(), -3)
	negative.SetWeight(-2)
	for name, r := range map[string]*Rule{
		"empty wmean":                   New(NewAggregation(WMean())),
		"negative threshold and weight": New(negative),
		"null":                          {},
	} {
		t.Run(name, func(t *testing.T) {
			want := r.Validate()
			if want == nil {
				t.Fatal("Validate accepts the rule")
			}
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseJSON(data); err == nil || err.Error() != want.Error() {
				t.Errorf("ParseJSON(%s) = %v, want %v", data, err, want)
			}
			if data, err = xml.Marshal(r); err != nil {
				t.Fatal(err)
			}
			if _, err := ParseXML(data); err == nil || err.Error() != want.Error() {
				t.Errorf("ParseXML(%s) = %v, want %v", data, err, want)
			}
		})
	}
}

func TestJSONNull(t *testing.T) {
	data, err := json.Marshal(&Rule{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "null" {
		t.Fatalf("empty rule JSON = %s", data)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	r := figure2Rule()
	data, err := xml.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Compact() != r.Compact() {
		t.Fatalf("XML round trip changed rule:\n%s\n%s", r.Compact(), back.Compact())
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		`{"kind":"comparison","function":"levenshtein","children":[{"kind":"property","property":"a"}]}`,                                                                                        // one child
		`{"kind":"comparison","function":"nope","children":[{"kind":"property","property":"a"},{"kind":"property","property":"b"}]}`,                                                            // bad measure
		`{"kind":"aggregation","function":"nope","children":[]}`,                                                                                                                                // bad aggregator
		`{"kind":"property","property":"a"}`,                                                                                                                                                    // value op at root
		`{"kind":"comparison","function":"levenshtein","children":[{"kind":"property"},{"kind":"property","property":"b"}]}`,                                                                    // empty property
		`{"kind":"comparison","function":"levenshtein","children":[{"kind":"transform","function":"nope","children":[{"kind":"property","property":"a"}]},{"kind":"property","property":"b"}]}`, // bad transform
		`{"kind":"comparison","function":"levenshtein","children":[{"kind":"transform","function":"lowerCase"},{"kind":"property","property":"b"}]}`,                                            // transform w/o inputs
		`{"kind":"comparison","function":"levenshtein","children":[{"kind":"mystery"},{"kind":"property","property":"b"}]}`,                                                                     // unknown value kind
		`{"kind":"aggregation","function":"max","children":[null]}`,                                                                                                                             // null operand
		`{"kind":"comparison","function":"levenshtein","children":[{"kind":"transform","function":"lowerCase","children":[null]},{"kind":"property","property":"b"}]}`,                          // null transformation input
		`not even json`,
	}
	for i, s := range bad {
		if _, err := ParseJSON([]byte(s)); err == nil {
			t.Errorf("case %d: ParseJSON accepted invalid input", i)
		}
	}
}

func TestDefaultWeightOnDecode(t *testing.T) {
	src := `{"kind":"aggregation","function":"wmean","children":[
		{"kind":"comparison","function":"levenshtein","threshold":1,"children":[
			{"kind":"property","property":"a"},{"kind":"property","property":"b"}]}]}`
	r, err := ParseJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if w := r.Comparisons()[0].Weight(); w != 1 {
		t.Fatalf("decoded weight = %d, want default 1", w)
	}
	if w := r.Aggregations()[0].Weight(); w != 1 {
		t.Fatalf("decoded agg weight = %d, want default 1", w)
	}
}

// randomRule builds a random valid rule for round-trip property tests.
func randomRule(rng *rand.Rand, depth int) SimilarityOp {
	if depth <= 0 || rng.Float64() < 0.5 {
		return randomComparison(rng)
	}
	n := rng.Intn(3) + 1
	ops := make([]SimilarityOp, n)
	for i := range ops {
		ops[i] = randomRule(rng, depth-1)
	}
	aggs := CoreAggregators()
	agg := NewAggregation(aggs[rng.Intn(len(aggs))], ops...)
	agg.SetWeight(rng.Intn(9) + 1)
	return agg
}

func randomComparison(rng *rand.Rand) SimilarityOp {
	measures := similarity.Core()
	cmp := NewComparison(
		randomValue(rng, 2),
		randomValue(rng, 2),
		measures[rng.Intn(len(measures))],
		float64(rng.Intn(10))+0.5)
	cmp.SetWeight(rng.Intn(9) + 1)
	return cmp
}

func randomValue(rng *rand.Rand, depth int) ValueOp {
	props := []string{"name", "label", "date", "coord"}
	if depth <= 0 || rng.Float64() < 0.5 {
		return NewProperty(props[rng.Intn(len(props))])
	}
	unary := transform.Unary()
	fn := unary[rng.Intn(len(unary))]
	if rng.Float64() < 0.2 {
		return NewTransform(transform.Concatenate(), randomValue(rng, depth-1), randomValue(rng, depth-1))
	}
	return NewTransform(fn, randomValue(rng, depth-1))
}

// Property: every randomly generated valid rule survives a JSON and an XML
// round trip and still validates.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(randomRule(rng, 3))
		if err := r.Validate(); err != nil {
			t.Logf("generated invalid rule: %v", err)
			return false
		}
		jsonData, err := json.Marshal(r)
		if err != nil {
			return false
		}
		fromJSON, err := ParseJSON(jsonData)
		if err != nil || fromJSON.Compact() != r.Compact() {
			return false
		}
		xmlData, err := xml.Marshal(r)
		if err != nil {
			return false
		}
		fromXML, err := ParseXML(xmlData)
		if err != nil || fromXML.Compact() != r.Compact() {
			return false
		}
		return fromXML.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone preserves the compact form and operator count.
func TestClonePreservesStructureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(randomRule(rng, 3))
		c := r.Clone()
		return c.Compact() == r.Compact() && c.OperatorCount() == r.OperatorCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
