package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// levenshteinDP is the oracle levenshteinLen is held to: the classic
// two-row dynamic program over runes, O(len(a)·len(b)), returning the
// distance and both rune lengths.
func levenshteinDP(a, b string) (dist float64, la, lb int) {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(ra)+1)
	cur := make([]int, len(ra)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(rb); j++ {
		cur[0] = j
		for i := 1; i <= len(ra); i++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[i] = min(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(ra)]), len(ra), len(rb)
}

// checkLevenshtein fails t unless levenshteinLen agrees with the DP on the
// distance and both rune lengths.
func checkLevenshtein(t *testing.T, a, b string) {
	t.Helper()
	d, la, lb := levenshteinLen(a, b, math.Inf(1))
	wd, wla, wlb := levenshteinDP(a, b)
	if d != wd || la != wla || lb != wlb {
		t.Fatalf("levenshteinLen(%q, %q) = %v, %d, %d; DP gives %v, %d, %d", a, b, d, la, lb, wd, wla, wlb)
	}
}

// checkBounded fails t unless the bounded edit distance with a as the
// pattern — whichever side is longer — agrees with the DP: the exact
// distance for every bound k at or above it, and a lower bound on it
// that exceeds k for every k below it. The bounds tried are every one
// that can matter, around the distance and the length difference, plus
// +Inf; the pattern is reused across calls, as a probe reuses it.
func checkBounded(t *testing.T, a, b string) {
	t.Helper()
	want, la, lb := levenshteinDP(a, b)
	p := newPattern(a, la, nil)
	gap := float64(max(la-lb, lb-la))
	for _, k := range []float64{math.Inf(1), -1, 0, 0.5, gap - 1, gap, want - 2, want - 1.5, want - 1, want, want + 0.5, want + 1, float64(max(la, lb))} {
		got := p.within(b, lb, k)
		switch {
		case want <= k && got != want:
			t.Fatalf("within(%q → %q, k=%v) = %v; DP gives %v", a, b, k, got, want)
		case want > k && (got <= k || got > want):
			t.Fatalf("within(%q → %q, k=%v) = %v; DP gives %v, want a bound in (k, %v]", a, b, k, got, want, want)
		}
	}
	// The set form: the running best is passed down as the bound.
	pat := Levenshtein().(editMeasure).Pattern([]string{a, a + "s"})
	setWant := min(want, levenshteinDPDist(a+"s", b))
	for _, k := range []float64{math.Inf(1), setWant - 1, setWant} {
		if got := pat([]string{b}, k); setWant <= k && got != setWant || setWant > k && got <= k {
			t.Fatalf("Pattern(%q, %q)(%q, k=%v) = %v; DP gives %v", a, a+"s", b, k, got, setWant)
		}
		// Within, the stack form, bounds alike.
		if got := Levenshtein().(editMeasure).Within([]string{a, a + "s"}, []string{b}, k); setWant <= k && got != setWant || setWant > k && got <= k {
			t.Fatalf("Within(%q, %q; %q, k=%v) = %v; DP gives %v", a, a+"s", b, k, got, setWant)
		}
	}
}

// levenshteinDPDist is the DP's distance alone.
func levenshteinDPDist(a, b string) float64 {
	d, _, _ := levenshteinDP(a, b)
	return d
}

// repeatRunes returns n runes cycled from alphabet.
func repeatRunes(alphabet string, n int) string {
	rs := []rune(alphabet)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(rs[i%len(rs)])
	}
	return sb.String()
}

// FuzzLevenshtein holds the bit-parallel edit distance to the DP on
// arbitrary UTF-8 and invalid bytes, unbounded with the shorter side as
// the pattern and bounded with either side as the pattern (checkBounded). The seeds sit the shorter side on
// and around the 64-rune block boundary (63/64/65/128/129 runes), where
// the single-block case ends and the carry between blocks starts to
// matter, plus all-multibyte and repeated-rune patterns, whose symbols
// take the non-ASCII match rows and set many bits of one row.
func FuzzLevenshtein(f *testing.F) {
	f.Add("", "")
	f.Add("kitten", "sitting")
	f.Add("\xff\xfe invalid", "\xff invalid\x00")
	f.Add("�", "\xff")
	for _, n := range []int{63, 64, 65, 128, 129} {
		title := repeatRunes("genetic programming for linkage rules ", n)
		f.Add(title, strings.Replace(title, "g", "q", 3)+"x")
		f.Add(title, title[1:]+"s")
		f.Add(repeatRunes("日本語のタイトル", n), repeatRunes("日本語タイトル", n+3))
		f.Add(repeatRunes("a", n), repeatRunes("ab", n+1))
		f.Add(repeatRunes("é", n), repeatRunes("e", n))
	}
	f.Add(repeatRunes("ü", 200), repeatRunes("üu", 150))
	f.Fuzz(func(t *testing.T, a, b string) {
		checkLevenshtein(t, a, b)
		checkLevenshtein(t, b, a)
		checkBounded(t, a, b)
		checkBounded(t, b, a)
	})
}

// TestLevenshteinMatchesDP is the fuzz target's property over random
// pairs on small alphabets (so many runes match) at every length up to
// three blocks, one side derived from the other by random edits, so the
// bit-vector carries — and, on every third pair, the bounded exits — are
// exercised on every run of the suite.
func TestLevenshteinMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabets := [][]rune{[]rune("ab"), []rune("abcé"), []rune("xy日本�"), []rune("the quick brown fox")}
	random := func(al []rune, n int) []rune {
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = al[rng.Intn(len(al))]
		}
		return rs
	}
	for trial := 0; trial < 3000; trial++ {
		al := alphabets[trial%len(alphabets)]
		a := random(al, rng.Intn(200))
		b := append([]rune(nil), a...)
		for edits := rng.Intn(20); edits > 0; edits-- {
			i := rng.Intn(len(b) + 1)
			switch rng.Intn(3) {
			case 0: // insert
				b = append(b[:i], append([]rune{al[rng.Intn(len(al))]}, b[i:]...)...)
			case 1: // delete
				if i < len(b) {
					b = append(b[:i], b[i+1:]...)
				}
			default: // substitute
				if i < len(b) {
					b[i] = al[rng.Intn(len(al))]
				}
			}
		}
		if trial%5 == 0 {
			b = random(al, rng.Intn(200))
		}
		checkLevenshtein(t, string(a), string(b))
		if trial%3 == 0 {
			checkBounded(t, string(a), string(b))
		}
	}
}

// BenchmarkLevenshtein scores title-like pairs of n runes each — the
// second title is the first with an accent typo every ninth rune and a
// different last rune, as duplicates in a bibliographic corpus look — at
// lengths around the one-block limit and past it.
func BenchmarkLevenshtein(b *testing.B) {
	const source = "learning expressive linkage rules using genetic programming " +
		"for entity matching across heterogeneous data sources on the web of data"
	for _, n := range []int{6, 16, 40, 63, 64, 65, 130} {
		x := repeatRunes(source, n)
		y := []rune(x)
		for i := 3; i < n; i += 9 {
			y[i] = 'é'
		}
		y[n-1] = 'z'
		ys := string(y)
		b.Run(fmt.Sprintf("runes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				levenshtein(x, ys)
			}
		})
	}
}

// TestRuneCount holds runeCount's ASCII fast path to the rune decoder on
// strings whose first non-ASCII byte, valid or not, falls before, on and
// after each eight-byte boundary.
func TestRuneCount(t *testing.T) {
	for _, tail := range []string{"", "é", "\xff", "日本", "a\x80b"} {
		for n := 0; n <= 17; n++ {
			s := strings.Repeat("x", n) + tail + strings.Repeat("y", n%5)
			if got, want := runeCount(s), utf8.RuneCountInString(s); got != want {
				t.Fatalf("runeCount(%q) = %d, want %d", s, got, want)
			}
		}
	}
}
