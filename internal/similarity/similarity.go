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
	"sort"
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

// levenshteinStack bounds the input length (in runes) for which the
// rune buffers and DP rows of levenshtein stay on the stack. Typical
// property values (names, titles) fit; longer inputs spill to the heap.
const levenshteinStack = 64

// levenshtein computes the classic edit distance in O(len(a)·len(b)) time
// and O(min) space, operating on runes so multi-byte input is handled.
// The scorer calls this once per candidate pair on the query hot path,
// so the working set is stack-allocated for typical value lengths.
func levenshtein(a, b string) float64 {
	if a == b {
		return 0
	}
	d, _, _ := levenshteinLen(a, b)
	return d
}

// levenshteinLen is levenshtein returning also the rune lengths of both
// inputs: they fall out of the rune buffering the DP needs anyway, so
// normalized variants get them without the two heap-allocating
// len([]rune(x)) conversions. Callers handle the a == b fast path.
func levenshteinLen(a, b string) (dist float64, la, lb int) {
	var raBuf, rbBuf [levenshteinStack]rune
	ra, rb := appendRunes(raBuf[:0], a), appendRunes(rbBuf[:0], b)
	la, lb = len(ra), len(rb)
	if len(ra) == 0 {
		return float64(len(rb)), la, lb
	}
	if len(rb) == 0 {
		return float64(len(ra)), la, lb
	}
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	var rowBuf [2 * (levenshteinStack + 1)]int
	var prev, cur []int
	if len(ra) <= levenshteinStack {
		prev = rowBuf[: len(ra)+1 : levenshteinStack+1]
		cur = rowBuf[levenshteinStack+1 : levenshteinStack+2+len(ra)]
	} else {
		prev = make([]int, len(ra)+1)
		cur = make([]int, len(ra)+1)
	}
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
			cur[i] = minInt(prev[i]+1, cur[i-1]+1, prev[i-1]+cost)
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(ra)]), la, lb
}

// appendRunes appends the runes of s to dst — rune decoding without the
// []rune(s) conversion's unconditional heap allocation (dst can be a
// stack buffer; append spills to the heap only past its capacity).
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// NormalizedLevenshtein returns levenshtein divided by the length of the
// longer string, yielding a distance in [0,1]. Useful with thresholds < 1.
func NormalizedLevenshtein() Measure {
	return Func{MeasureName: "normLevenshtein", Single: normalizedLevenshtein}
}

// normalizedLevenshtein gets the rune lengths from the same stack-
// buffered pass that computes the distance (levenshteinLen), so it stays
// allocation-free for inputs up to levenshteinStack runes.
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
		for i, v := range b {
			if !containsBefore(b, i, v) {
				cb++
			}
		}
		return ca, cb, inter
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

func minInt(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
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
