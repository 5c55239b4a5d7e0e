package rule

import (
	"testing"

	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// TestSignatureExact pins the exact signature strings of rules that use
// every operator kind, operand weights, property-name quoting, exact
// thresholds and operand sorting. The caches of package evalengine and the
// learner's committee key on these strings, so any change to them is a
// change of behaviour, not of formatting.
func TestSignatureExact(t *testing.T) {
	lower := func(p string) ValueOp { return NewTransform(transform.LowerCase(), NewProperty(p)) }
	weighted := func(op SimilarityOp, w int) SimilarityOp {
		switch o := op.(type) {
		case *ComparisonOp:
			o.SetWeight(w)
		case *AggregationOp:
			o.SetWeight(w)
		}
		return op
	}
	for _, tc := range []struct {
		name string
		r    *Rule
		want string
	}{
		{"comparison", New(NewComparison(NewProperty("x"), NewProperty("y"), similarity.Levenshtein(), 1)),
			`c:levenshtein@1(p:"x",p:"y")`},
		{"exact threshold", New(NewComparison(NewProperty("x"), NewProperty("y"), similarity.Numeric(), 0.123456789)),
			`c:numeric@0.123456789(p:"x",p:"y")`},
		{"quoted property", New(NewComparison(NewProperty(`a,"b"(c)`), NewProperty("label\n"), similarity.Equality(), 0)),
			`c:equality@0(p:"a,\"b\"(c)",p:"label\n")`},
		{"transform chain", New(NewComparison(
			NewTransform(transform.Tokenize(), lower("title")),
			NewTransform(transform.StripURIPrefix(), NewProperty("uri")),
			similarity.Jaccard(), 0.5)),
			`c:jaccard@0.5(t:tokenize(t:lowerCase(p:"title")),t:stripUriPrefix(p:"uri"))`},
		{"concatenate keeps input order", New(NewComparison(
			NewTransform(transform.Concatenate(), NewProperty("first"), NewProperty("last")),
			NewTransform(transform.Concatenate(), NewProperty("last"), NewProperty("first")),
			similarity.Levenshtein(), 2)),
			`c:levenshtein@2(t:concatenate(p:"first",p:"last"),t:concatenate(p:"last",p:"first"))`},
		{"weighted mean", New(NewAggregation(WMean(),
			weighted(NewComparison(lower("name"), lower("label"), similarity.Levenshtein(), 2), 3),
			NewComparison(NewProperty("date"), NewProperty("released"), similarity.Date(), 365),
			weighted(NewComparison(NewProperty("geo"), NewProperty("point"), similarity.Geographic(), 50), 2))),
			`a:wmean(1*c:date@365(p:"date",p:"released"),2*c:geographic@50(p:"geo",p:"point"),3*c:levenshtein@2(t:lowerCase(p:"name"),t:lowerCase(p:"label")))`},
		{"sorted operands", New(NewAggregation(Min(),
			NewComparison(NewProperty("z"), NewProperty("z"), similarity.Dice(), 0.3),
			NewComparison(NewProperty("a"), NewProperty("a"), similarity.Cosine(), 0.7))),
			`a:min(1*c:cosine@0.7(p:"a",p:"a"),1*c:dice@0.3(p:"z",p:"z"))`},
		{"nested aggregations", New(weighted(NewAggregation(Max(),
			weighted(NewAggregation(Min(),
				NewComparison(lower("title"), lower("name"), similarity.JaroWinkler(), 0.2),
				NewComparison(NewProperty("year"), NewProperty("year"), similarity.Numeric(), 1)), 4),
			NewComparison(NewTransform(transform.Stem(), NewProperty("abstract")), NewProperty("summary"),
				similarity.Jaro(), 0.25)), 9)),
			`a:max(1*c:jaro@0.25(t:stem(p:"abstract"),p:"summary"),4*a:min(1*c:jaroWinkler@0.2(t:lowerCase(p:"title"),t:lowerCase(p:"name")),1*c:numeric@1(p:"year",p:"year")))`},
		{"nil rule", nil, "∅"},
		{"empty rule", &Rule{}, "∅"},
	} {
		if got := tc.r.Signature(); got != tc.want {
			t.Errorf("%s: signature\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
