package similarity

import (
	"math/rand"
	"strings"
	"testing"
)

// sketchRef is SketchBound computed bucket by bucket: the larger of the
// sums of the positive and of the negative parts of a − b.
func sketchRef(a, b Sketch) int {
	pos, neg := 0, 0
	for i := range sketchBuckets {
		w, shift := i/16, i%16*4
		d := int(a[w]>>shift&15) - int(b[w]>>shift&15)
		pos += max(d, 0)
		neg += max(-d, 0)
	}
	return max(pos, neg)
}

// checkSketch fails t unless the sketch bound of a and b equals the
// bucket-by-bucket reference and is at most their edit distance under
// the Levenshtein dynamic program.
func checkSketch(t *testing.T, a, b string) {
	t.Helper()
	sa, na := editSketch(a)
	sb, nb := editSketch(b)
	if ra, rb := len([]rune(a)), len([]rune(b)); na != ra || nb != rb {
		t.Fatalf("editSketch counts %d and %d runes in %q and %q, want %d and %d", na, nb, a, b, ra, rb)
	}
	got := SketchBound(sa, sb)
	if want := sketchRef(sa, sb); got != want {
		t.Fatalf("SketchBound(%q, %q) = %d, bucket by bucket %d", a, b, got, want)
	}
	if d := levenshteinDPDist(a, b); float64(got) > d {
		t.Fatalf("SketchBound(%q, %q) = %d exceeds their edit distance %v", a, b, got, d)
	}
}

// TestEditSketchBound checks the sketch contract on every pair of
// strings of up to 5 runes over an alphabet of two runes that collide mod
// 32 ('a', 'A'), a third ('b') and a non-ASCII one ('é'); on pairs that
// saturate a bucket (more than 15 runes of it) or leave it empty; and on
// random pairs of longer multi-byte and invalid UTF-8 strings a few edits
// apart. It also pins the sketch's counts and the bound's exactness where
// no bucket collides or saturates: the bag distance.
func TestEditSketchBound(t *testing.T) {
	alphabet := []string{"a", "A", "b", "é"}
	words := []string{""}
	for i := 0; len([]rune(words[i])) < 5; i++ {
		for _, r := range alphabet {
			words = append(words, words[i]+r)
		}
	}
	for _, a := range words {
		for _, b := range words {
			checkSketch(t, a, b)
		}
	}

	// Saturation: a bucket holding more than 15 runes counts 15.
	for n := 14; n <= 40; n++ {
		run := strings.Repeat("a", n)
		for _, b := range []string{"", "a", strings.Repeat("A", n), strings.Repeat("a", 15), strings.Repeat("a", n+1), run[1:] + "b", strings.Repeat("ab", n)} {
			checkSketch(t, run, b)
			checkSketch(t, b, run)
		}
	}
	if got, _ := editSketch(strings.Repeat("a", 40) + "b" + "q"); got != (Sketch{15<<4 | 1<<8, 1 << 4}) {
		t.Fatalf("editSketch of 40 a, a b and a q = %#x, want %#x", got, Sketch{15<<4 | 1<<8, 1 << 4})
	}
	if got := SketchBound(NewEditShape("kitten").Sketch, NewEditShape("sitting").Sketch); got != 3 {
		t.Fatalf("SketchBound(kitten, sitting) = %d, want their bag distance 3", got)
	}
	if got := SketchBound(NewEditShape("").Sketch, NewEditShape("abc").Sketch); got != 3 {
		t.Fatalf("SketchBound(\"\", abc) = %d, want 3", got)
	}

	rng := rand.New(rand.NewSource(1))
	runes := []string{"a", "A", "b", "q", "é", "ù", "日", "本", "\xff", "\xfe", "�", "\U0001F600"}
	randWord := func(n int) string {
		var sb strings.Builder
		for range n {
			sb.WriteString(runes[rng.Intn(len(runes))])
		}
		return sb.String()
	}
	for range 3000 {
		a := randWord(rng.Intn(60))
		rs := []rune(a)
		for range rng.Intn(8) {
			p := rng.Intn(len(rs) + 1)
			switch rng.Intn(3) {
			case 0:
				rs = append(rs[:p], append([]rune(randWord(1)), rs[p:]...)...)
			case 1:
				if p < len(rs) {
					rs = append(rs[:p], rs[p+1:]...)
				}
			default:
				if p < len(rs) {
					rs[p] = []rune(randWord(1))[0]
				}
			}
		}
		checkSketch(t, a, string(rs))
		checkSketch(t, a, randWord(rng.Intn(60)))
	}
	for range 3000 {
		a, b := Sketch{rng.Uint64(), rng.Uint64()}, Sketch{rng.Uint64(), rng.Uint64()}
		if got, want := SketchBound(a, b), sketchRef(a, b); got != want {
			t.Fatalf("SketchBound(%#x, %#x) = %d, bucket by bucket %d", a, b, got, want)
		}
	}
}

// TestEditWithin holds EditWithin, the sketch in front of the bounded
// distance, to the dynamic program on value sets: a stored set is within
// k exactly when some value pair is, empty sets never are.
func TestEditWithin(t *testing.T) {
	sets := [][]string{nil, {""}, {"kitten"}, {"sitting", "mitten"}, {"日本語テキスト"}, {"日本語テクスト", "\xff"}, {strings.Repeat("a", 20)}, {strings.Repeat("a", 17) + "q"}}
	for k := 0; k <= 6; k++ {
		for _, as := range sets {
			within := EditWithin(as, k)
			for _, bs := range sets {
				want := false
				for _, a := range as {
					for _, b := range bs {
						want = want || levenshteinDPDist(a, b) <= float64(k)
					}
				}
				if got := within(NewEditSet(bs)); got != want {
					t.Fatalf("k=%d: EditWithin(%q)(%q) = %v, want %v", k, as, bs, got, want)
				}
			}
		}
	}
}

// FuzzEditSketchBound holds the sketch contract on arbitrary strings —
// empty, multi-byte, invalid UTF-8, and repeated into runs that saturate
// their buckets: the bound equals the bucket-by-bucket reference and
// never exceeds the Levenshtein dynamic program.
func FuzzEditSketchBound(f *testing.F) {
	f.Add("", "", uint8(0))
	f.Add("kitten", "sitting", uint8(1))
	f.Add("aA", "Aa", uint8(0))
	f.Add("日本語テキスト", "日本語テクスト", uint8(1))
	f.Add("\xff\xfe invalid", "\xef\xbf\xbd\xef\xbf\xbd invalid", uint8(2))
	f.Add("a", "aaaaaaaaaaaaaaaaaaab", uint8(20))
	f.Fuzz(func(t *testing.T, a, b string, repeat uint8) {
		if len(a)+len(b) > 300 {
			return // the DP oracle is quadratic
		}
		checkSketch(t, a, b)
		if n := int(repeat % 24); n > 1 && len(a)*n <= 300 {
			checkSketch(t, strings.Repeat(a, n), b)
			checkSketch(t, strings.Repeat(a, n), strings.Repeat(b, n/2))
		}
	})
}
