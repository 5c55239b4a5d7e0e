package similarity

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkEditKeys fails t unless the segment-key contract holds for the
// two value sets at bound k: when the sets are within k, some probe key
// of as equals some stored key of bs.
func checkEditKeys(t *testing.T, as, bs []string, k int) {
	t.Helper()
	within := false
	for _, a := range as {
		for _, b := range bs {
			if levenshteinDPDist(a, b) <= float64(k) {
				within = true
			}
		}
	}
	if !within {
		return
	}
	stored := make(map[uint64]bool)
	for _, key := range EditSegmentKeys(nil, bs, k) {
		stored[key] = true
	}
	for _, key := range EditProbeKeys(nil, as, k) {
		if stored[key] {
			return
		}
	}
	t.Fatalf("k=%d: %q and %q are within k but share no segment key", k, as, bs)
}

// TestEditKeysContract checks the contract on every pair of strings of
// up to 7 runes over a two-letter alphabet, for every k up to 4 — where
// each segment and window boundary is reached — and on random pairs of
// longer multi-byte and invalid UTF-8 strings one or a few edits apart.
func TestEditKeysContract(t *testing.T) {
	var words []string
	for n := 0; n <= 7; n++ {
		for bits := 0; bits < 1<<n; bits++ {
			w := make([]byte, n)
			for i := range w {
				w[i] = "ab"[bits>>i&1]
			}
			words = append(words, string(w))
		}
	}
	for k := 0; k <= 4; k++ {
		for _, a := range words {
			for _, b := range words {
				checkEditKeys(t, []string{a}, []string{b}, k)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "b", "c", "é", "日", "\xff", "\xfe"}
	randWord := func(n int) string {
		s := ""
		for range n {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	for range 3000 {
		k := rng.Intn(9)
		a := randWord(rng.Intn(40))
		b := a
		for range rng.Intn(k + 2) {
			rs := []rune(b)
			p := rng.Intn(len(rs) + 1)
			switch rng.Intn(3) {
			case 0:
				b = string(rs[:p]) + randWord(1) + string(rs[p:])
			case 1:
				if p < len(rs) {
					b = string(rs[:p]) + string(rs[p+1:])
				}
			default:
				if p < len(rs) {
					b = string(rs[:p]) + randWord(1) + string(rs[p+1:])
				}
			}
		}
		checkEditKeys(t, []string{a}, []string{b}, k)
		checkEditKeys(t, []string{b, randWord(5)}, []string{randWord(3), a}, k)
	}
}

// TestEditKeyCounts pins the key counts: k + 1 stored keys per value
// longer than k and one per shorter value, and PassJoin's
// ⌊(k² − Δ²)/2⌋ + k + 1 probe substrings per length n > k at length
// difference Δ whose windows fit inside the value.
func TestEditKeyCounts(t *testing.T) {
	if got := len(EditSegmentKeys(nil, []string{"abcdefghij", "ab", ""}, 3)); got != 4+1+1 {
		t.Fatalf("stored keys = %d, want 6", got)
	}
	const k = 3
	v := "abcdefghijklmnopqrstuvwxyz" // 26 runes: every window fits
	got := len(EditProbeKeys(nil, []string{v}, k))
	want := 0
	for delta := -k; delta <= k; delta++ {
		want += (k*k-delta*delta)/2 + k + 1
	}
	if got != want {
		t.Fatalf("probe keys = %d, want %d", got, want)
	}
}

// FuzzEditSegments holds the segment keys to their contract on arbitrary
// value sets — empty strings, multi-byte and invalid UTF-8 included — and
// every bound k from 0 to 8: when the Levenshtein dynamic program puts the
// two sets within k, a probe key of the first equals a stored key of the
// second.
func FuzzEditSegments(f *testing.F) {
	f.Add("kitten", "", "sitting", "", uint8(3))
	f.Add("", "", "", "x", uint8(0))
	f.Add("日本語テキスト", "abc", "日本語テクスト", "", uint8(1))
	f.Add("\xff\xfe invalid", "a", "\xef\xbf\xbd\xef\xbf\xbd invalid", "b", uint8(2))
	f.Add("learning expressive linkage rules", "", "learning expresive linkage rule", "x", uint8(6))
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2 string, k uint8) {
		if len(a1)+len(a2)+len(b1)+len(b2) > 400 {
			return // the DP oracle is quadratic
		}
		checkEditKeys(t, []string{a1, a2}, []string{b1, b2}, int(k%9))
		checkEditKeys(t, []string{a1}, []string{b1}, int(k%9))
	})
}

func ExampleEditProbeKeys() {
	stored := EditSegmentKeys(nil, []string{"genlink"}, 1)
	probe := EditProbeKeys(nil, []string{"genlnk"}, 1)
	shared := 0
	for _, p := range probe {
		for _, s := range stored {
			if p == s {
				shared++
			}
		}
	}
	fmt.Println(len(stored), shared > 0)
	// Output: 2 true
}
