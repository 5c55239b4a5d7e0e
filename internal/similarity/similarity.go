// Package similarity implements the distance measures of Table 2 of the
// paper (levenshtein, jaccard, numeric, geographic, date) plus a set of
// additional measures commonly shipped with the Silk framework (jaro,
// jaroWinkler, dice, cosine token distance, equality).
//
// Every measure implements Measure: a distance over two value *sets*
// (Definition 7 compares value operators, which yield sets). Set semantics
// follow Silk: the distance between two sets is the minimum distance over
// the cross product, i.e. two entities are as close as their closest pair
// of values. An empty set on either side yields +Inf (no evidence).
package similarity

import (
	"math"
	"slices"
	"sort"
	"unicode/utf8"
)

// Measure computes a non-negative distance between two value sets.
// Smaller is more similar; 0 means identical.
type Measure interface {
	// Name returns the registry name, e.g. "levenshtein".
	Name() string
	// Distance returns the distance between the two value sets.
	// It returns +Inf when either set is empty or no value is comparable.
	Distance(a, b []string) float64
}

// Func adapts a plain function over single values to a Measure with
// min-over-cross-product set semantics.
type Func struct {
	MeasureName string
	Single      func(a, b string) float64
}

// Name implements Measure.
func (f Func) Name() string { return f.MeasureName }

// Distance implements Measure with min-over-pairs semantics.
func (f Func) Distance(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for _, va := range a {
		for _, vb := range b {
			if d := f.Single(va, vb); d < best {
				best = d
				if best == 0 {
					return 0
				}
			}
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Levenshtein

// Levenshtein returns the edit-distance measure of Table 2.
func Levenshtein() Measure {
	return Func{MeasureName: "levenshtein", Single: levenshtein}
}

// levenshtein is the exact edit distance over runes (insertions,
// deletions and substitutions of one rune each cost 1), so multi-byte
// input is handled and an invalid byte counts as one rune. It runs Myers'
// bit-parallel algorithm (levenshteinLen) in O(⌈m/64⌉·n) time for rune
// lengths m ≤ n, allocation-free while the shorter side has at most 64
// runes — which covers names, titles and venues — and with one allocation
// past that (two when it holds more than 64 non-ASCII runes). The scorer
// calls it once per candidate pair on the query hot path.
func levenshtein(a, b string) float64 {
	if a == b {
		return 0
	}
	d, _, _ := levenshteinLen(a, b)
	return d
}

// wordBits is the width of one bit-vector block of levenshteinLen.
const wordBits = 64

// levenshteinLen is levenshtein returning also the rune lengths of both
// inputs, so normalized variants get them from the same pass. Callers
// handle the a == b fast path.
//
// The algorithm is Myers' bit-vector edit distance in Hyyrö's
// formulation. The pattern is the shorter side, m runes, with column j of
// the DP matrix D (text prefix of j runes) held as two bit vectors over
// the pattern rows: pv/mv mark rows whose vertical delta D[i][j] −
// D[i−1][j] is +1/−1. One text rune advances every row at once through a
// handful of word operations; the score follows D[m][j] by the horizontal
// delta at row m. Patterns longer than 64 runes are cut into 64-row
// blocks, and each block hands its bottom row's horizontal delta to the
// next as a carry — row 0's delta is always +1, since D[0][j] = j. A
// pattern of at most 64 runes is the same loop with one block. Bits above
// row m in the last block see only never-matching rows, and carries and
// shifts only move upward, so they cannot disturb rows ≤ m. The result is
// exact; FuzzLevenshtein holds it to the classic dynamic program.
func levenshteinLen(a, b string) (dist float64, la, lb int) {
	la, lb = utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	pattern, text, m := a, b, la
	if la > lb {
		pattern, text, m = b, a, lb
	}
	if m == 0 {
		return float64(la + lb), la, lb
	}
	words := (m + wordBits - 1) / wordBits

	// Match masks, words per symbol: peq[r·words+w] marks the rows of
	// block w holding ASCII symbol r; othersPeq[k·words+w] does the same
	// for others[k], the pattern's other runes in first-occurrence
	// order. A text rune the pattern lacks matches nothing (zero).
	var (
		asciiBuf  [128]uint64
		otherBuf  [wordBits]rune
		otherPeq  [wordBits]uint64
		vecBuf    [2]uint64
		zeroBuf   [1]uint64
		peq       = asciiBuf[:]
		others    = otherBuf[:0]
		othersPeq = otherPeq[:0]
		pv, mv    = vecBuf[:1], vecBuf[1:]
		zero      = zeroBuf[:]
	)
	if words > 1 {
		// Sized by the pattern's non-ASCII runes, so neither other-rune
		// list grows: one allocation, and a second for the rune list only
		// past 64 non-ASCII runes.
		nonASCII := 0
		for _, r := range pattern {
			if r >= 128 {
				nonASCII++
			}
		}
		buf := make([]uint64, (128+3+nonASCII)*words)
		peq, buf = buf[:128*words], buf[128*words:]
		pv, mv, zero, othersPeq = buf[:words], buf[words:2*words], buf[2*words:3*words], buf[3*words:3*words]
		if nonASCII > len(otherBuf) {
			others = make([]rune, 0, nonASCII)
		}
	}
	i := uint(0)
	for _, r := range pattern {
		w, bit := int(i/wordBits), uint64(1)<<(i%wordBits)
		if r < 128 {
			peq[int(r)*words+w] |= bit
		} else {
			k := slices.Index(others, r)
			if k < 0 {
				k = len(others)
				others = append(others, r)
				othersPeq = append(othersPeq, zero...)
			}
			othersPeq[k*words+w] |= bit
		}
		i++
	}

	for w := range pv {
		pv[w] = ^uint64(0) // D[i][0] = i: every vertical delta is +1
	}
	lastShift := uint((m - 1) % wordBits)
	score := m
	for _, r := range text {
		eq := zero
		if r < 128 {
			eq = peq[int(r)*words : int(r)*words+words]
		} else if k := slices.Index(others, r); k >= 0 {
			eq = othersPeq[k*words : k*words+words]
		}
		// carryP/carryM: the horizontal delta entering the block from
		// the row above it is +1/−1 (both 0: delta 0).
		carryP, carryM := uint64(1), uint64(0)
		for w := range pv {
			p, n, e := pv[w], mv[w], eq[w]
			xv := e | n
			e |= carryM
			xh := (((e & p) + p) ^ p) | e
			ph := n | ^(xh | p)
			mh := p & xh
			shift := uint(wordBits - 1)
			if w == words-1 {
				shift = lastShift
			}
			outP, outM := ph>>shift&1, mh>>shift&1
			ph = ph<<1 | carryP
			mh = mh<<1 | carryM
			pv[w] = mh | ^(xv | ph)
			mv[w] = ph & xv
			carryP, carryM = outP, outM
		}
		score += int(carryP) - int(carryM)
	}
	return float64(score), la, lb
}

// NormalizedLevenshtein returns levenshtein divided by the length of the
// longer string, yielding a distance in [0,1]. Useful with thresholds < 1.
func NormalizedLevenshtein() Measure {
	return Func{MeasureName: "normLevenshtein", Single: normalizedLevenshtein}
}

// normalizedLevenshtein gets the rune lengths from the same pass that
// computes the distance (levenshteinLen), so it stays allocation-free
// while the shorter input has at most 64 runes.
func normalizedLevenshtein(a, b string) float64 {
	if a == b {
		return 0 // covers the both-empty case where the length is 0
	}
	d, la, lb := levenshteinLen(a, b)
	return d / float64(maxInt(la, lb)) // a != b ⇒ the longer is non-empty
}

// ---------------------------------------------------------------------------
// Jaccard

// Jaccard returns the token-set Jaccard distance of Table 2:
// 1 − |A∩B| / |A∪B| where A and B are the two value sets themselves
// (each value is one set element). This matches Silk's Jaccard over the
// multi-valued results of a tokenizer transformation.
type jaccardMeasure struct{}

// Jaccard returns the Jaccard distance coefficient measure.
func Jaccard() Measure { return jaccardMeasure{} }

func (jaccardMeasure) Name() string { return "jaccard" }

func (jaccardMeasure) Distance(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	ca, cb, inter := setStats(a, b)
	union := ca + cb - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// smallSet bounds the value-list length for which setStats counts with
// nested scans instead of allocating maps. Multi-valued properties are
// typically 1–3 values, so the scans are the common case on the query
// hot path.
const smallSet = 16

// setStats returns the distinct-value cardinalities of a and b and the
// size of their intersection — the quantities the set measures (jaccard,
// dice, cosine) are defined over.
func setStats(a, b []string) (ca, cb, inter int) {
	if len(a) <= smallSet && len(b) <= smallSet {
		for i, v := range a {
			if containsBefore(a, i, v) {
				continue
			}
			ca++
			for _, w := range b {
				if w == v {
					inter++
					break
				}
			}
		}
		return ca, Cardinality(b), inter
	}
	setA := make(map[string]struct{}, len(a))
	for _, v := range a {
		setA[v] = struct{}{}
	}
	setB := make(map[string]struct{}, len(b))
	for _, v := range b {
		setB[v] = struct{}{}
	}
	for v := range setA {
		if _, ok := setB[v]; ok {
			inter++
		}
	}
	return len(setA), len(setB), inter
}

// Cardinality returns the number of distinct values in vs: the set size
// the set measures (jaccard, dice, cosine) are defined over. Up to
// smallSet values it counts with a nested scan and allocates nothing.
func Cardinality(vs []string) int {
	if len(vs) > smallSet {
		seen := make(map[string]struct{}, len(vs))
		for _, v := range vs {
			seen[v] = struct{}{}
		}
		return len(seen)
	}
	n := 0
	for i, v := range vs {
		if !containsBefore(vs, i, v) {
			n++
		}
	}
	return n
}

// containsBefore reports whether vs[i] already occurred in vs[:i].
func containsBefore(vs []string, i int, v string) bool {
	for _, w := range vs[:i] {
		if w == v {
			return true
		}
	}
	return false
}

// Dice returns the Sørensen–Dice distance over value sets: 1 − 2|A∩B|/(|A|+|B|).
type diceMeasure struct{}

// Dice returns the Dice coefficient distance measure.
func Dice() Measure { return diceMeasure{} }

func (diceMeasure) Name() string { return "dice" }

func (diceMeasure) Distance(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	ca, cb, inter := setStats(a, b)
	den := ca + cb
	if den == 0 {
		return 0
	}
	return 1 - 2*float64(inter)/float64(den)
}

// Cosine returns the cosine distance between the two value sets interpreted
// as binary term vectors: 1 − |A∩B| / sqrt(|A|·|B|).
type cosineMeasure struct{}

// Cosine returns the token cosine distance measure.
func Cosine() Measure { return cosineMeasure{} }

func (cosineMeasure) Name() string { return "cosine" }

func (cosineMeasure) Distance(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	ca, cb, inter := setStats(a, b)
	den := math.Sqrt(float64(ca) * float64(cb))
	if den == 0 {
		return 0
	}
	return 1 - float64(inter)/den
}

// ---------------------------------------------------------------------------
// Jaro / Jaro-Winkler

// Jaro returns 1 − Jaro similarity as a distance in [0,1].
func Jaro() Measure {
	return Func{MeasureName: "jaro", Single: func(a, b string) float64 {
		return 1 - jaroSim(a, b)
	}}
}

// JaroWinkler returns 1 − Jaro-Winkler similarity (prefix scale 0.1, max
// prefix 4) as a distance in [0,1].
func JaroWinkler() Measure {
	return Func{MeasureName: "jaroWinkler", Single: func(a, b string) float64 {
		j := jaroSim(a, b)
		ra, rb := []rune(a), []rune(b)
		prefix := 0
		for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
			prefix++
		}
		return 1 - (j + float64(prefix)*0.1*(1-j))
	}}
}

func jaroSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := maxInt(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := maxInt(0, i-window)
		hi := minInt2(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// ---------------------------------------------------------------------------
// Equality

// Equality returns 0 for identical strings and 1 otherwise.
func Equality() Measure {
	return Func{MeasureName: "equality", Single: func(a, b string) float64 {
		if a == b {
			return 0
		}
		return 1
	}}
}

// ---------------------------------------------------------------------------
// Registry

// registry holds all measures by name so rules can be (de)serialized and the
// learner can draw random measures.
var registry = map[string]func() Measure{
	"levenshtein":     Levenshtein,
	"normLevenshtein": NormalizedLevenshtein,
	"jaccard":         Jaccard,
	"dice":            Dice,
	"cosine":          Cosine,
	"numeric":         Numeric,
	"geographic":      Geographic,
	"date":            Date,
	"jaro":            Jaro,
	"jaroWinkler":     JaroWinkler,
	"equality":        Equality,
}

// ByName returns the measure registered under name, or nil.
func ByName(name string) Measure {
	if ctor, ok := registry[name]; ok {
		return ctor()
	}
	return nil
}

// Names returns all registered measure names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Core returns the five measures used in all paper experiments (Table 2).
func Core() []Measure {
	return []Measure{Levenshtein(), Jaccard(), Numeric(), Geographic(), Date()}
}

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
