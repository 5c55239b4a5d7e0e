package rule_test

import (
	"encoding/json"
	"encoding/xml"
	"testing"

	"genlink/internal/rule"
)

// Fuzzing the serialization round trip: any input that parses must pass
// Validate and re-serialize to a form that parses back to the same rule
// (canonical signature and stable bytes), and no input — valid,
// truncated, deeply nested, adversarial UTF-8 — may panic the decoder.

// fuzzSeedRules are hand-written encodings covering every operator kind,
// defaulted weights, degenerate thresholds and nesting.
var fuzzSeedRules = []string{
	`{"kind":"comparison","function":"levenshtein","threshold":2,"children":[
	   {"kind":"property","property":"name"},
	   {"kind":"property","property":"label"}]}`,
	`{"kind":"aggregation","function":"max","children":[
	   {"kind":"comparison","function":"jaccard","threshold":0.8,"weight":2,"children":[
	     {"kind":"transform","function":"lowerCase","children":[{"kind":"property","property":"a"}]},
	     {"kind":"transform","function":"tokenize","children":[{"kind":"property","property":"b"}]}]},
	   {"kind":"comparison","function":"numeric","threshold":0,"children":[
	     {"kind":"property","property":"year"},
	     {"kind":"property","property":"year"}]}]}`,
	`{"kind":"aggregation","function":"wmean","children":[]}`,
	`{"kind":"comparison","function":"geographic","threshold":1000,"children":[
	   {"kind":"property","property":"coord ☃"},
	   {"kind":"property","property":"coord"}]}`,
	`null`,
	`{"kind":"aggregation","function":"min","children":[null]}`,
	`{"kind":"nonsense"}`,
	`{"kind":"comparison","function":"unknownMeasure","threshold":1,"children":[
	   {"kind":"property","property":"x"},{"kind":"property","property":"y"}]}`,
}

func FuzzRuleJSONRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedRules {
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte("\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := rule.ParseJSON(data)
		if err != nil {
			return // invalid inputs just need to fail cleanly
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseJSON accepted %q, which fails Validate: %v", data, err)
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("rule parsed from %q does not re-marshal: %v", data, err)
		}
		r2, err := rule.ParseJSON(enc)
		if err != nil {
			t.Fatalf("re-marshaled rule does not parse: %v\nencoding: %s", err, enc)
		}
		if r.Signature() != r2.Signature() {
			t.Fatalf("round trip changed the rule\nbefore: %s\nafter:  %s\nencoding: %s",
				r.Signature(), r2.Signature(), enc)
		}
		enc2, err := json.Marshal(r2)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
	})
}

func FuzzRuleXMLRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedRules {
		if r, err := rule.ParseJSON([]byte(seed)); err == nil {
			if enc, err := xml.Marshal(r); err == nil {
				f.Add(enc)
			}
		}
	}
	f.Add([]byte(`<LinkageRule></LinkageRule>`))
	f.Add([]byte(`<LinkageRule><Operator kind="property" property="p"/></LinkageRule>`))
	f.Add([]byte(`<LinkageRule><Operator kind="aggregation" function="max"></Operator></LinkageRule>`))
	f.Add([]byte(`<not-xml`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := rule.ParseXML(data)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseXML accepted %q, which fails Validate: %v", data, err)
		}
		enc, err := xml.Marshal(r)
		if err != nil {
			t.Fatalf("rule parsed from %q does not re-marshal: %v", data, err)
		}
		r2, err := rule.ParseXML(enc)
		if err != nil {
			t.Fatalf("re-marshaled rule does not parse: %v\nencoding: %s", err, enc)
		}
		if r.Signature() != r2.Signature() {
			t.Fatalf("round trip changed the rule\nbefore: %s\nafter:  %s\nencoding: %s",
				r.Signature(), r2.Signature(), enc)
		}
	})
}
