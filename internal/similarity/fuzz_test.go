package similarity

import (
	"math"
	"strings"
	"testing"
)

// FuzzMeasures feeds adversarial UTF-8 (and invalid byte sequences,
// parseable-as-NaN numerics, WKT fragments, huge repeats) to every
// registered distance measure. The contract under fuzzing: no panics,
// and every distance is either non-negative or +Inf — never NaN and
// never negative, since ComparisonOp.Evaluate turns distances into
// scores assuming exactly that. The three prepared measures are
// additionally held, bit for bit, to the oracle in prepared_test.go: the
// minimum over the cross product of single-value distances, every value
// re-parsed for every pair, the date parser trying every layout.
func FuzzMeasures(f *testing.F) {
	f.Add("hello", "world")
	f.Add("", "")
	f.Add("", "nonempty")
	f.Add("héllo wörld", "hello world")
	f.Add("日本語", "日本")
	f.Add("\xff\xfe invalid", "\x00\x01")
	f.Add("NaN", "0")
	f.Add("Inf", "-Inf")
	f.Add("1e308", "-1e308")
	f.Add("52.5,13.4", "POINT(13.4 52.5)")
	f.Add("POINT(NaN NaN)", "0 0")
	f.Add("2006-01-02", "Jan 2, 2006")
	f.Add("nan", "+Inf")
	f.Add("1e400", "1")
	f.Add(" 1994 ", "May 2, 2006")
	f.Add("9999-99-99", "1999-09-09")
	f.Add("0001-01-01", "2024-01-01") // further apart than time.Time.Sub can say
	f.Add("52.39,13.06", "52.52 13.405")
	f.Add(strings.Repeat("a", 500), strings.Repeat("ab", 250))
	f.Add("́́́", "́́") // combining marks
	f.Fuzz(func(t *testing.T, a, b string) {
		sets := [][2][]string{
			{{a}, {b}},
			{{a, b}, {b}},
			{{a, ""}, {"", b}},
			{nil, {b}},
		}
		for _, name := range Names() {
			m := ByName(name)
			for _, s := range sets {
				d := m.Distance(s[0], s[1])
				if math.IsNaN(d) {
					t.Fatalf("%s.Distance(%q, %q) = NaN", name, s[0], s[1])
				}
				if d < 0 {
					t.Fatalf("%s.Distance(%q, %q) = %v < 0", name, s[0], s[1], d)
				}
			}
			if _, ok := m.(Prepared); ok {
				for _, s := range sets {
					checkAgainstOracle(t, name, s[0], s[1])
				}
			}
			// Identity: a value set compared with itself is at distance 0
			// for every string measure over finite, comparable values
			// (numeric/geographic/date may legitimately fail to parse and
			// return +Inf, but must still not panic — covered above).
			if a != "" {
				d := m.Distance([]string{a}, []string{a})
				if !math.IsInf(d, 1) && d != 0 {
					t.Fatalf("%s.Distance(x, x) = %v, want 0 or +Inf", name, d)
				}
			}
		}
	})
}

// FuzzParseDate holds the shape-dispatched date parser to the loop that
// tries every layout in turn (oracleParseDate): same verdict, same time.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{
		"2006-01-02", "2006/01/02", "02.01.2006", "January 2, 2006", "Jan 2, 2006", "2006",
		" 1994 ", "May 2, 2006", "may  2,  2006", "9999-99-99", "2023-02-29", "0000", "+2006", "-2006",
		"Mayday 2, 2006", "Jan 2,2006", "12.4-56.78", "", "nan", "\xff\xfe",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseDate(s)
		want, wantOK := oracleParseDate(s)
		if ok != wantOK || got != want {
			t.Fatalf("ParseDate(%q) = %v, %v; every-layout loop gives %v, %v", s, got, ok, want, wantOK)
		}
	})
}
