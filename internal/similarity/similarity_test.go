package similarity

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func dist1(m Measure, a, b string) float64 {
	return m.Distance([]string{a}, []string{b})
}

func TestLevenshteinBasic(t *testing.T) {
	m := Levenshtein()
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"", "abc", 3},
		{"abc", "", 3},
		{"iPod", "IPOD", 3},
	}
	for _, c := range cases {
		if got := dist1(m, c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinUnicode(t *testing.T) {
	// Rune-based: one substitution, not a byte-count difference.
	if got := dist1(Levenshtein(), "café", "cafe"); got != 1 {
		t.Fatalf("levenshtein unicode = %v, want 1", got)
	}
}

func TestSetSemanticsMinOverPairs(t *testing.T) {
	m := Levenshtein()
	a := []string{"zzzzz", "abc"}
	b := []string{"abd", "qqqq"}
	if got := m.Distance(a, b); got != 1 {
		t.Fatalf("set distance = %v, want 1 (closest pair)", got)
	}
}

func TestEmptySetIsInf(t *testing.T) {
	for _, m := range []Measure{Levenshtein(), Jaccard(), Numeric(), Geographic(), Date(), Dice(), Cosine(), Jaro(), JaroWinkler(), Equality()} {
		if got := m.Distance(nil, []string{"x"}); !math.IsInf(got, 1) {
			t.Errorf("%s: distance with empty A = %v, want +Inf", m.Name(), got)
		}
		if got := m.Distance([]string{"x"}, nil); !math.IsInf(got, 1) {
			t.Errorf("%s: distance with empty B = %v, want +Inf", m.Name(), got)
		}
	}
}

func TestJaccard(t *testing.T) {
	m := Jaccard()
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 0},
		{[]string{"a", "b"}, []string{"b", "c"}, 1 - 1.0/3.0},
		{[]string{"a"}, []string{"b"}, 1},
		{[]string{"a", "a"}, []string{"a"}, 0}, // duplicates collapse
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDice(t *testing.T) {
	m := Dice()
	// |A∩B|=1, |A|=2, |B|=2 → 1 − 2/4 = 0.5
	if got := m.Distance([]string{"a", "b"}, []string{"b", "c"}); got != 0.5 {
		t.Fatalf("dice = %v, want 0.5", got)
	}
}

func TestCosine(t *testing.T) {
	m := Cosine()
	// |A∩B|=1, sqrt(2·2)=2 → 0.5
	if got := m.Distance([]string{"a", "b"}, []string{"b", "c"}); got != 0.5 {
		t.Fatalf("cosine = %v, want 0.5", got)
	}
	if got := m.Distance([]string{"a"}, []string{"a"}); got != 0 {
		t.Fatalf("cosine identical = %v, want 0", got)
	}
}

func TestNumeric(t *testing.T) {
	m := Numeric()
	if got := dist1(m, "10", "7.5"); got != 2.5 {
		t.Fatalf("numeric = %v, want 2.5", got)
	}
	if got := dist1(m, "x", "7"); !math.IsInf(got, 1) {
		t.Fatalf("numeric unparsable = %v, want +Inf", got)
	}
	if got := dist1(m, " 5 ", "5"); got != 0 {
		t.Fatalf("numeric should trim spaces, got %v", got)
	}
}

func TestGeographic(t *testing.T) {
	m := Geographic()
	// Berlin (52.52, 13.405) to Potsdam (52.39, 13.06): ~27km.
	d := dist1(m, "52.52 13.405", "52.39,13.06")
	if d < 20000 || d > 35000 {
		t.Fatalf("geographic Berlin-Potsdam = %v m, want ~27km", d)
	}
	if got := dist1(m, "52.52 13.405", "52.52 13.405"); got != 0 {
		t.Fatalf("geographic identical = %v, want 0", got)
	}
	if got := dist1(m, "not-a-coord", "52.52 13.405"); !math.IsInf(got, 1) {
		t.Fatalf("geographic unparsable = %v, want +Inf", got)
	}
}

func TestParseCoordWKT(t *testing.T) {
	lat, lon, ok := ParseCoord("POINT(13.405 52.52)")
	if !ok || lat != 52.52 || lon != 13.405 {
		t.Fatalf("ParseCoord WKT = %v,%v,%v", lat, lon, ok)
	}
	if _, _, ok := ParseCoord("POINT(13.405)"); ok {
		t.Fatal("malformed WKT should not parse")
	}
	if _, _, ok := ParseCoord("1 2 3"); ok {
		t.Fatal("three fields should not parse")
	}
}

func TestHaversineAntipodal(t *testing.T) {
	// Half Earth circumference ≈ 20,015 km.
	d := Haversine(0, 0, 0, 180)
	if d < 19.9e6 || d > 20.1e6 {
		t.Fatalf("antipodal haversine = %v", d)
	}
}

func TestDate(t *testing.T) {
	m := Date()
	if got := dist1(m, "2001-01-01", "2001-01-11"); got != 10 {
		t.Fatalf("date = %v, want 10", got)
	}
	if got := dist1(m, "2000", "2001"); got != 366 { // 2000 is a leap year
		t.Fatalf("date years = %v, want 366", got)
	}
	if got := dist1(m, "January 2, 2006", "2006-01-02"); got != 0 {
		t.Fatalf("date mixed layouts = %v, want 0", got)
	}
	if got := dist1(m, "garbage", "2001-01-01"); !math.IsInf(got, 1) {
		t.Fatalf("date unparsable = %v, want +Inf", got)
	}
}

func TestJaro(t *testing.T) {
	m := Jaro()
	if got := dist1(m, "abc", "abc"); got != 0 {
		t.Fatalf("jaro identical = %v", got)
	}
	if got := dist1(m, "", ""); got != 0 {
		t.Fatalf("jaro empty-empty = %v", got)
	}
	if got := dist1(m, "abc", ""); got != 1 {
		t.Fatalf("jaro vs empty = %v", got)
	}
	// Classic example MARTHA/MARHTA: jaro sim 0.944..., distance ~0.0556.
	d := dist1(m, "MARTHA", "MARHTA")
	if math.Abs(d-(1-0.944444444)) > 1e-6 {
		t.Fatalf("jaro MARTHA/MARHTA = %v", d)
	}
	if got := dist1(m, "abc", "xyz"); got != 1 {
		t.Fatalf("jaro disjoint = %v, want 1", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	m := JaroWinkler()
	// DWAYNE/DUANE: JW sim 0.84.
	d := dist1(m, "DWAYNE", "DUANE")
	if math.Abs(d-(1-0.84)) > 1e-2 {
		t.Fatalf("jaroWinkler DWAYNE/DUANE = %v", d)
	}
	// Prefix boost: jaroWinkler must be at most jaro distance.
	if dw, dj := dist1(m, "prefixed", "prefixes"), dist1(Jaro(), "prefixed", "prefixes"); dw > dj {
		t.Fatalf("jaroWinkler %v > jaro %v", dw, dj)
	}
}

func TestEquality(t *testing.T) {
	m := Equality()
	if got := dist1(m, "a", "a"); got != 0 {
		t.Fatalf("equality same = %v", got)
	}
	if got := dist1(m, "a", "b"); got != 1 {
		t.Fatalf("equality diff = %v", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		m := ByName(name)
		if m == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if m.Name() != name {
			t.Fatalf("measure %q reports name %q", name, m.Name())
		}
	}
	if ByName("no-such-measure") != nil {
		t.Fatal("unknown name should yield nil")
	}
	if len(Core()) != 5 {
		t.Fatalf("Core() has %d measures, want 5 (Table 2)", len(Core()))
	}
}

// ---------------------------------------------------------------------------
// Property-based tests

func TestLevenshteinProperties(t *testing.T) {
	symmetry := func(a, b string) bool {
		return levenshtein(a, b) == levenshtein(b, a)
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool {
		return levenshtein(a, a) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error("identity:", err)
	}
	upperBound := func(a, b string) bool {
		la, lb := len([]rune(a)), len([]rune(b))
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		d := levenshtein(a, b)
		return d <= float64(maxLen) && d >= math.Abs(float64(la-lb))
	}
	if err := quick.Check(upperBound, nil); err != nil {
		t.Error("bounds:", err)
	}
	triangle := func(a, b, c string) bool {
		return levenshtein(a, c) <= levenshtein(a, b)+levenshtein(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("triangle inequality:", err)
	}
}

func TestJaccardProperties(t *testing.T) {
	m := Jaccard()
	bounded := func(a, b []string) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		d := m.Distance(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Error("bounds:", err)
	}
	symmetric := func(a, b []string) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		return m.Distance(a, b) == m.Distance(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error("symmetry:", err)
	}
}

func TestJaroBoundsProperty(t *testing.T) {
	for _, m := range []Measure{Jaro(), JaroWinkler()} {
		m := m
		bounded := func(a, b string) bool {
			d := dist1(m, a, b)
			return d >= -1e-12 && d <= 1+1e-12
		}
		if err := quick.Check(bounded, nil); err != nil {
			t.Errorf("%s bounds: %v", m.Name(), err)
		}
	}
}

func TestNormalizedLevenshteinBounds(t *testing.T) {
	m := NormalizedLevenshtein()
	bounded := func(a, b string) bool {
		d := dist1(m, a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Fatal(err)
	}
	if got := dist1(m, "", ""); got != 0 {
		t.Fatalf("normLevenshtein empty = %v", got)
	}
}

// TestNormalizedLevenshteinReference pins the fused levenshteinLen path
// against the definitional form: levenshtein divided by the rune length
// of the longer input.
func TestNormalizedLevenshteinReference(t *testing.T) {
	m := NormalizedLevenshtein()
	matches := func(a, b string) bool {
		la, lb := len([]rune(a)), len([]rune(b))
		n := la
		if lb > n {
			n = lb
		}
		want := 0.0
		if n > 0 {
			want = levenshtein(a, b) / float64(n)
		}
		return dist1(m, a, b) == want
	}
	if err := quick.Check(matches, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLevenshteinAllocationFree pins the hot-path contract: while the
// shorter input has at most 64 runes — one bit-vector block, up to its
// last row — a comparison performs zero heap allocations, including the
// normalized variant, whose length terms come from the same pass, and
// including a longer other side and non-ASCII runes.
func TestLevenshteinAllocationFree(t *testing.T) {
	const r64 = "learning expressive linkage rules with genetic programming, 2012"
	if n := len([]rune(r64)); n != 64 {
		t.Fatalf("fixture has %d runes, want 64", n)
	}
	pairs := [][2]string{
		{"entity matching with genetic programming", "éntity matching with génetic programs"},
		{r64, strings.ToUpper(r64)},
		{r64, strings.ReplaceAll(r64, "e", "é")},
		{r64, r64 + " and a much longer tail past the first block of the other side"},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if n := testing.AllocsPerRun(100, func() { levenshtein(a, b) }); n != 0 {
			t.Errorf("levenshtein(%q, %q) allocates %v times per run", a, b, n)
		}
		if n := testing.AllocsPerRun(100, func() { normalizedLevenshtein(a, b) }); n != 0 {
			t.Errorf("normalizedLevenshtein(%q, %q) allocates %v times per run", a, b, n)
		}
	}
}

// TestLevenshteinAllocationsPastOneBlock pins the cost past 64 runes: the
// masks of every block come from one allocation sized up front, so a
// pattern of many distinct non-ASCII runes (CJK text) never grows them;
// only a rune list beyond 64 non-ASCII runes takes a second allocation.
func TestLevenshteinAllocationsPastOneBlock(t *testing.T) {
	var cjk, accented strings.Builder
	for i := 0; i < 130; i++ {
		cjk.WriteRune(rune(0x4e00 + i)) // 130 distinct runes
		if i%3 == 0 {
			accented.WriteRune(rune(0xc0 + i/3)) // 44 distinct runes
		} else {
			accented.WriteByte(byte('a' + i%26))
		}
	}
	cases := []struct {
		a      string
		allocs float64
	}{
		{strings.Repeat("genetic programming ", 7)[:130], 1},
		{accented.String(), 1},
		{cjk.String(), 2},
	}
	for _, c := range cases {
		b := string([]rune(c.a)[1:]) + "x" // same rune length: either side is the pattern
		if n := testing.AllocsPerRun(100, func() { levenshtein(c.a, b) }); n != c.allocs {
			t.Errorf("levenshtein over %d runes allocates %v times per run, want %v", len([]rune(c.a)), n, c.allocs)
		}
	}
}

func TestHaversineProperties(t *testing.T) {
	nonNegative := func(lat1, lon1, lat2, lon2 float64) bool {
		// Constrain to valid ranges.
		lat1 = math.Mod(lat1, 90)
		lat2 = math.Mod(lat2, 90)
		lon1 = math.Mod(lon1, 180)
		lon2 = math.Mod(lon2, 180)
		d := Haversine(lat1, lon1, lat2, lon2)
		return d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(nonNegative, nil); err != nil {
		t.Fatal(err)
	}
}
