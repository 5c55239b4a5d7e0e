package similarity

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The oracles: the three parsing measures as they were before they became
// one prepared measure — a closure that re-parses both strings for every
// value pair, under Func's min-over-cross-product — the date parser that
// tried every layout in turn, and the three set measures as their
// definitions over map-built sets. They share no code with prepared.go
// or the set columns; FuzzParseDate and FuzzMeasures hold the new code to
// them bit for bit.

var oracleDateLayouts = []string{
	"2006-01-02",
	"2006/01/02",
	"02.01.2006",
	"January 2, 2006",
	"Jan 2, 2006",
	"2006",
}

func oracleParseDate(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	for _, layout := range oracleDateLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

func oracleParseCoord(s string) (lat, lon float64, ok bool) {
	s = strings.TrimSpace(s)
	if rest, found := strings.CutPrefix(s, "POINT("); found {
		parts := strings.Fields(strings.TrimSuffix(rest, ")"))
		if len(parts) != 2 {
			return 0, 0, false
		}
		lonV, err1 := strconv.ParseFloat(parts[0], 64)
		latV, err2 := strconv.ParseFloat(parts[1], 64)
		return latV, lonV, err1 == nil && err2 == nil
	}
	parts := strings.Fields(strings.ReplaceAll(s, ",", " "))
	if len(parts) != 2 {
		return 0, 0, false
	}
	latV, err1 := strconv.ParseFloat(parts[0], 64)
	lonV, err2 := strconv.ParseFloat(parts[1], 64)
	return latV, lonV, err1 == nil && err2 == nil
}

// setOracle is a set measure by its definition: of combines the distinct
// value counts of both sets and the size of their intersection.
type setOracle func(ca, cb, inter float64) float64

func (setOracle) Name() string { return "" }

func (o setOracle) Distance(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	setA, setB := make(map[string]bool), make(map[string]bool)
	for _, v := range a {
		setA[v] = true
	}
	for _, v := range b {
		setB[v] = true
	}
	inter := 0
	for v := range setA {
		if setB[v] {
			inter++
		}
	}
	return o(float64(len(setA)), float64(len(setB)), float64(inter))
}

var oracles = map[string]Measure{
	"jaccard": setOracle(func(ca, cb, inter float64) float64 { return 1 - inter/(ca+cb-inter) }),
	"dice":    setOracle(func(ca, cb, inter float64) float64 { return 1 - 2*inter/(ca+cb) }),
	"cosine":  setOracle(func(ca, cb, inter float64) float64 { return 1 - inter/math.Sqrt(ca*cb) }),
	"numeric": Func{Single: func(a, b string) float64 {
		fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
		fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
		if errA != nil || errB != nil {
			return math.Inf(1)
		}
		return math.Abs(fa - fb)
	}},
	"geographic": Func{Single: func(a, b string) float64 {
		latA, lonA, okA := oracleParseCoord(a)
		latB, lonB, okB := oracleParseCoord(b)
		if !okA || !okB {
			return math.Inf(1)
		}
		return Haversine(latA, lonA, latB, lonB)
	}},
	"date": Func{Single: func(a, b string) float64 {
		ta, okA := oracleParseDate(a)
		tb, okB := oracleParseDate(b)
		if !okA || !okB {
			return math.Inf(1)
		}
		return math.Abs(ta.Sub(tb).Hours() / 24)
	}},
}

// checkAgainstOracle holds a prepared measure's Distance, and the same
// distance read off two prepared columns, to the oracle.
func checkAgainstOracle(t *testing.T, name string, a, b []string) {
	t.Helper()
	m := ByName(name).(Prepared)
	want := math.Float64bits(oracles[name].Distance(a, b))
	if got := math.Float64bits(m.Distance(a, b)); got != want {
		t.Fatalf("%s.Distance(%q, %q) = %v, oracle %v", name, a, b,
			math.Float64frombits(got), math.Float64frombits(want))
	}
	ca, cb := m.NewColumn(2), m.NewColumn(3)
	ca.Prepare(1, a)
	cb.Prepare(2, b)
	if got := math.Float64bits(ca.Distance(1, cb, 2)); got != want {
		t.Fatalf("%s column distance of (%q, %q) = %v, oracle %v", name, a, b,
			math.Float64frombits(got), math.Float64frombits(want))
	}
	if d := ca.Distance(0, cb, 2); !math.IsInf(d, 1) {
		t.Fatalf("%s column distance from a set never prepared = %v, want +Inf", name, d)
	}
}

func TestPreparedMeasuresMatchOracle(t *testing.T) {
	sets := [][]string{
		nil,
		{""},
		{"nan"}, {"+Inf", "-Inf"}, {"1e400"}, {"1e308", "-1e308"}, {" 12.5 ", "x", "7"}, {".5"}, {"0x1p-2"}, {"1_000"},
		{" 1994 "}, {"1994"}, {"May 2, 2006"}, {"January 2, 2006", "Jan 2, 2006"}, {"june 12, 1999"}, {"Sept 2, 2006"},
		{"9999-99-99"}, {"2006-01-02", "2006/01/02", "02.01.2006"}, {"0001-01-01"}, {"1700-06-15", "2024-02-29"}, {"2023-02-29"},
		{"+2006"}, {"2006-1-2"}, {"12.4-56.78"},
		{"52.52 13.405"}, {"52.39,13.06", "garbage"}, {"POINT(13.405 52.52)"}, {"POINT(NaN NaN)"}, {"POINT(1,2 3)"},
		{"1 2 3"}, {" 1 ,\t2 "}, {"1 2"}, {"1,,2"}, {"Berlin", "New York"},
		{"1", "2", "3", "4", "5", "6"}, // more values than Distance keeps on the stack
		// Duplicates and overlaps for the set measures.
		{"rules", "linkage", "rules", "genetic"}, {"genetic", "rules", "x"},
	}
	for name := range oracles {
		for _, a := range sets {
			for _, b := range sets {
				checkAgainstOracle(t, name, a, b)
			}
		}
	}
}

// TestDateSaturates pins the one place where the typed form matters: two
// dates more than 292 years apart are as far apart as a Duration can say,
// not as far as the calendar says.
func TestDateSaturates(t *testing.T) {
	got := Date().Distance([]string{"0001-01-01"}, []string{"2024-01-01"})
	if want := time.Duration(math.MaxInt64).Hours() / 24; got != want {
		t.Fatalf("date distance over 2023 years = %v days, want the saturated %v", got, want)
	}
}

// TestPreparedMeasuresAllocationFree: a comparison that parses nothing —
// the normal case for a date or numeric comparison over names — and a
// comparison of year-only dates allocate nothing.
func TestPreparedMeasuresAllocationFree(t *testing.T) {
	unparsable := [2][]string{{"Berlin", "learning expressive linkage rules"}, {"New York"}}
	parsable := map[string][2][]string{
		"numeric":    {{"1994", "x"}, {"1995"}},
		"geographic": {{"52.52 13.405"}, {"52.39,13.06", "POINT(13.06 52.39)"}},
		"date":       {{"1994", " 1996 "}, {"1995"}},
	}
	for _, name := range []string{"numeric", "geographic", "date"} {
		m := ByName(name)
		for _, in := range [][2][]string{unparsable, parsable[name]} {
			if n := testing.AllocsPerRun(100, func() { m.Distance(in[0], in[1]) }); n != 0 {
				t.Errorf("%s.Distance(%q, %q) allocates %v times per run", name, in[0], in[1], n)
			}
		}
	}
}

func TestParseDateShapes(t *testing.T) {
	for _, s := range []string{
		"2006-01-02", "2006/01/02", "02.01.2006", "January 2, 2006", "Jan 2, 2006", "2006",
		"May 2, 2006", "may  12,  2006", "DECEMBER 31, 1999", " 1994 ", "0000",
		"", "x", "199", "19945", "+2006", "-2006", "2006-13-01", "2006-02-30", "31.02.2006", "9999-99-99",
		"2006-01-02 ", "2006-01-02T", "Mayday 2, 2006", "Janu 2, 2006", "Jan 2,2006", "Jan 2 2006", "Jan\t2, 2006",
		"12.4-56.78", "12/4-56/78",
	} {
		got, ok := ParseDate(s)
		want, wantOK := oracleParseDate(s)
		if ok != wantOK || got != want {
			t.Errorf("ParseDate(%q) = %v, %v; every-layout loop gives %v, %v", s, got, ok, want, wantOK)
		}
	}
}
