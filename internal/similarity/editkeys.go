package similarity

import "unicode/utf8"

// Edit-distance segment keys (PassJoin, Li et al., PVLDB 2011): a
// lossless filter for "edit distance at most k" that a caller can hold in
// posting lists. The stored side splits each value into k + 1 segments;
// k edits can touch at most k of them, so a value within k of it holds
// one segment unchanged, at a position the edits can have shifted by at
// most k. The probe side lists the substrings of each of its values that
// can be such a segment. The contract, held to the Levenshtein dynamic
// program by TestEditKeysContract and FuzzEditSegments:
//
//	Distance({a}, {b}) ≤ k  ⇒  EditProbeKeys({a}, k) ∩ EditSegmentKeys({b}, k) ≠ ∅
//
// for the levenshtein measure of this package, and so for value sets,
// whose distance is the minimum over their cross product.
//
// Both sides work on decoded runes, as levenshtein does: an invalid
// UTF-8 byte keys as U+FFFD, which is how the measure reads it. A key is
// a 64-bit hash of (value length, segment index, segment runes); a hash
// collision only makes two values share a key they would not otherwise
// share, which can add a candidate and never lose one.

// FNV-1a over 64 bits, applied to the length, the segment index and then
// each rune of the segment.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keySeed is the hash state of segment seg of a value of length runes
// before the segment's runes; seg −1 is the one key of a short value.
func keySeed(length, seg int) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(length)) * fnvPrime64
	return (h ^ uint64(seg+1)) * fnvPrime64
}

// mixRune adds one rune to a key's hash state.
func mixRune(h uint64, r rune) uint64 { return (h ^ uint64(r)) * fnvPrime64 }

// segment returns the start and length, in runes, of segment i of the
// even partition of a value of n runes into k + 1 segments: the first
// ones ⌊n/(k+1)⌋ runes long, the last n mod (k+1) one rune longer.
func segment(n, k, i int) (start, length int) {
	parts := k + 1
	base, long := n/parts, n%parts
	short := parts - long // segments of base runes
	if i < short {
		return i * base, base
	}
	return short*base + (i-short)*(base+1), base + 1
}

// EditSegmentKeys appends to dst the stored-side keys of values at edit
// bound k ≥ 0: for a value of n > k runes, one key per segment of its
// even partition into k + 1 segments, and for a shorter one, which every
// value of a length within k of it may be within k of, one key for its
// length alone. It reads each value once and allocates nothing beyond
// growing dst.
func EditSegmentKeys(dst []uint64, values []string, k int) []uint64 {
	for _, v := range values {
		n := utf8.RuneCountInString(v)
		if n <= k {
			dst = append(dst, keySeed(n, -1))
			continue
		}
		seg, pos := 0, 0
		_, end := segment(n, k, 0)
		h := keySeed(n, 0)
		for _, r := range v {
			h = mixRune(h, r)
			if pos++; pos == end {
				dst = append(dst, h)
				if seg++; seg <= k {
					_, length := segment(n, k, seg)
					end += length
					h = keySeed(n, seg)
				}
			}
		}
	}
	return dst
}

// EditProbeKeys appends to dst the probe-side keys of values at edit
// bound k ≥ 0: for every length n within k of a value's, the short-value
// key of n when n ≤ k, and otherwise, for every segment i of n's
// partition, the value's substrings of the segment's length whose start
// lies in PassJoin's multi-match-aware window. With p the segment's
// start and Δ the value's length minus n, that window is
//
//	[max(p − i, p + Δ − (k − i)), min(p + i, p + Δ + (k − i))]
//
// (segments counted from 0): of the value pairs within k, the segment
// that stays unchanged can be chosen with at most i edits before it and
// at most k − i after it, and each side's edits bound how far the
// segment moves. There are O(k³) keys per value.
func EditProbeKeys(dst []uint64, values []string, k int) []uint64 {
	var buf [64]rune
	for _, v := range values {
		rs := buf[:0]
		for _, r := range v {
			rs = append(rs, r)
		}
		m := len(rs)
		for n := max(m-k, 0); n <= m+k; n++ {
			if n <= k {
				dst = append(dst, keySeed(n, -1))
				continue
			}
			delta := m - n
			for i := 0; i <= k; i++ {
				p, length := segment(n, k, i)
				lo := max(p-i, p+delta-(k-i), 0)
				hi := min(p+i, p+delta+(k-i), m-length)
				for q := lo; q <= hi; q++ {
					h := keySeed(n, i)
					for _, r := range rs[q : q+length] {
						h = mixRune(h, r)
					}
					dst = append(dst, h)
				}
			}
		}
	}
	return dst
}
