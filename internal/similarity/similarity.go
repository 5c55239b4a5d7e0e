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

// editMeasure is an edit-distance measure: Func's min over the cross
// product for Distance, plus Pattern for a caller that compares one value
// set against many and Within for one bounded comparison.
type editMeasure struct {
	Func
	normalized bool
}

// Levenshtein returns the edit-distance measure of Table 2.
func Levenshtein() Measure {
	return editMeasure{Func: Func{MeasureName: "levenshtein", Single: levenshtein}}
}

// NormalizedLevenshtein returns levenshtein divided by the length of the
// longer string, yielding a distance in [0,1]. Useful with thresholds < 1.
func NormalizedLevenshtein() Measure {
	return editMeasure{Func: Func{MeasureName: "normLevenshtein", Single: normalizedLevenshtein}, normalized: true}
}

// Pattern prepares values as the pattern side of the measure's edit
// distance: the Myers match masks of every value are built here, once,
// instead of once per comparison. The returned function is the measure's
// Distance from values to text. For levenshtein it takes a bound k: the
// distance is exact when it is at most k, and otherwise the function
// returns a lower bound on it that exceeds k (k = +Inf is the unbounded
// distance); the running minimum over the cross product is passed down
// as the bound of the value pairs after it. normLevenshtein ignores k.
// The function keeps its column state between calls, so it must be used
// by one goroutine at a time; it allocates nothing.
func (m editMeasure) Pattern(values []string) func(text []string, k float64) float64 {
	pats := make([]pattern, len(values))
	for i, v := range values {
		pats[i] = newPattern(v, runeCount(v), nil)
	}
	return func(text []string, k float64) float64 {
		best := math.Inf(1)
		for _, t := range text {
			n := runeCount(t)
			for i := range pats {
				p := &pats[i]
				var d float64
				if m.normalized {
					d = p.within(t, n, math.Inf(1))
					if d != 0 {
						d /= float64(max(p.m, n))
					}
				} else {
					d = p.within(t, n, min(k, best))
				}
				if d < best {
					if best = d; best == 0 {
						return 0
					}
				}
			}
		}
		return best
	}
}

// Within is Distance bounded by k, as Pattern's function is: exact when
// at most k, otherwise a lower bound on it that exceeds k, with the
// running minimum over the cross product passed down as the bound of the
// value pairs after it. Every pair's masks live on the stack, so a
// caller comparing one pair of value sets allocates nothing and builds
// no pattern to keep. normLevenshtein ignores k.
func (m editMeasure) Within(a, b []string, k float64) float64 {
	if m.normalized {
		return m.Distance(a, b)
	}
	best := math.Inf(1)
	for _, va := range a {
		for _, vb := range b {
			if d, _, _ := levenshteinLen(va, vb, min(k, best)); d < best {
				if best = d; best == 0 {
					return 0
				}
			}
		}
	}
	return best
}

// levenshtein is the exact edit distance over runes (insertions,
// deletions and substitutions of one rune each cost 1), so multi-byte
// input is handled and an invalid byte counts as one rune. It is the
// unbounded call (k = +Inf) of the one bounded implementation,
// pattern.within, with the shorter side as the pattern: Myers'
// bit-parallel algorithm in O(⌈m/64⌉·n) time for rune lengths m ≤ n,
// allocation-free while the shorter side has at most 64 runes — which
// covers names, titles and venues — and with one allocation past that
// (two when it holds more than 64 non-ASCII runes). The learner's
// fitness engine calls it; the query path prepares its probe once
// (Pattern) and bounds every call.
func levenshtein(a, b string) float64 {
	d, _, _ := levenshteinLen(a, b, math.Inf(1))
	return d
}

// levenshteinLen is the edit distance bounded by k, as pattern.within
// bounds it, returning also the rune lengths of both inputs, so
// normalized variants get them from the same pass.
func levenshteinLen(a, b string, k float64) (dist float64, la, lb int) {
	la, lb = runeCount(a), runeCount(b)
	pat, text, m, n := a, b, la, lb
	if la > lb {
		pat, text, m, n = b, a, lb, la
	}
	var st patternStack
	p := newPattern(pat, m, &st)
	return p.within(text, n, k), la, lb
}

// normalizedLevenshtein gets the rune lengths from the same pass that
// computes the distance (levenshteinLen), so it stays allocation-free
// while the shorter input has at most 64 runes.
func normalizedLevenshtein(a, b string) float64 {
	if a == b {
		return 0 // covers the both-empty case where the length is 0
	}
	d, la, lb := levenshteinLen(a, b, math.Inf(1))
	return d / float64(maxInt(la, lb)) // a != b ⇒ the longer is non-empty
}

// runeCount is utf8.RuneCountInString with utf8.Valid's fast path: eight
// ASCII bytes at a time, as two combined loads, up to the first eight
// that hold a non-ASCII byte. Every edit distance counts its text's
// runes first, so the names and titles it compares cost a pass at a
// fraction of a rune decode per byte.
func runeCount(s string) int {
	n := 0
	for len(s) >= 8 {
		first32 := uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
		second32 := uint32(s[4]) | uint32(s[5])<<8 | uint32(s[6])<<16 | uint32(s[7])<<24
		if (first32|second32)&0x80808080 != 0 {
			break
		}
		n += 8
		s = s[8:]
	}
	return n + utf8.RuneCountInString(s)
}

// wordBits is the width of one bit-vector block of a pattern.
const wordBits = 64

// pattern is one value prepared as the pattern side of Myers' bit-vector
// edit distance in Hyyrö's formulation: its match masks, and the state of
// one DP column. The pattern has m runes; column j of the DP matrix D
// (text prefix of j runes) is held as two bit vectors over the pattern
// rows: pv/mv mark rows whose vertical delta D[i][j] − D[i−1][j] is
// +1/−1. One text rune advances every row at once through a handful of
// word operations; the score follows D[m][j] by the horizontal delta at
// row m. Patterns longer than 64 runes are cut into 64-row blocks, and
// each block hands its bottom row's horizontal delta to the next as a
// carry — row 0's delta is always +1, since D[0][j] = j. A pattern of at
// most 64 runes is the same loop with one block. Bits above row m in the
// last block see only never-matching rows, and carries and shifts only
// move upward, so they cannot disturb rows ≤ m. The result is exact;
// FuzzLevenshtein holds it to the classic dynamic program.
type pattern struct {
	s        string
	m, words int
	// peq[r·words+w] marks the rows of block w holding ASCII symbol r;
	// othersPeq[k·words+w] does the same for others[k], the pattern's
	// other runes in first-occurrence order. A text rune the pattern
	// lacks matches nothing (zero).
	peq, othersPeq []uint64
	others         []rune
	pv, mv, zero   []uint64 // one word per block
}

// patternStack is the storage of a one-block pattern, which a caller that
// compares one pair keeps on its stack.
type patternStack struct {
	peq       [128]uint64
	others    [wordBits]rune
	othersPeq [wordBits]uint64
	vecs      [3]uint64
}

// newPattern builds the match masks of s, m runes long. With st, a
// one-block pattern allocates nothing and a longer one takes one
// allocation for its masks, and a second for its rune list only past 64
// non-ASCII runes; without st, the masks and the rune list are one
// allocation each. Both are sized up front, so neither grows.
func newPattern(s string, m int, st *patternStack) pattern {
	p := pattern{s: s, m: m, words: (m + wordBits - 1) / wordBits}
	if m == 0 {
		return p
	}
	words := p.words
	if st != nil && words == 1 {
		p.peq, p.others, p.othersPeq = st.peq[:], st.others[:0], st.othersPeq[:0]
		p.pv, p.mv, p.zero = st.vecs[0:1], st.vecs[1:2], st.vecs[2:3]
	} else {
		nonASCII := 0
		for _, r := range s {
			if r >= utf8.RuneSelf {
				nonASCII++
			}
		}
		buf := make([]uint64, (128+3+nonASCII)*words)
		p.peq, buf = buf[:128*words], buf[128*words:]
		p.pv, p.mv, p.zero, p.othersPeq = buf[:words], buf[words:2*words], buf[2*words:3*words], buf[3*words:3*words]
		switch {
		case st != nil && nonASCII <= len(st.others):
			p.others = st.others[:0]
		case nonASCII > 0:
			p.others = make([]rune, 0, nonASCII)
		}
	}
	i := uint(0)
	for _, r := range s {
		w, bit := int(i/wordBits), uint64(1)<<(i%wordBits)
		if r < utf8.RuneSelf {
			p.peq[int(r)*words+w] |= bit
		} else {
			k := slices.Index(p.others, r)
			if k < 0 {
				k = len(p.others)
				p.others = append(p.others, r)
				p.othersPeq = append(p.othersPeq, p.zero...)
			}
			p.othersPeq[k*words+w] |= bit
		}
		i++
	}
	return p
}

// within returns the edit distance from the pattern to text, n runes
// long, when that distance is at most k, and otherwise a lower bound on
// it that exceeds k. Every edit script bridges the length difference, so
// it returns at once when ||pattern| − n| > k; and since D[m][·] moves by
// at most one per column, D[m][n] ≥ D[m][j] − (n − j), so it abandons the
// column loop as soon as that exceeds k. k = +Inf is the exact distance.
func (p *pattern) within(text string, n int, k float64) float64 {
	if p.s == text {
		return 0
	}
	m := p.m
	if gap := float64(max(m-n, n-m)); gap > k || m == 0 {
		return gap
	}
	// No distance exceeds max(m, n): a bound at or above it never abandons.
	limit := max(m, n)
	if k < float64(limit) {
		limit = int(k) // 0 ≤ gap ≤ k here, so the conversion floors
	}
	words := p.words
	for w := range p.pv {
		p.pv[w] = ^uint64(0) // D[i][0] = i: every vertical delta is +1
		p.mv[w] = 0
	}
	lastShift := uint((m - 1) % wordBits)
	score, rest := m, n
	for _, r := range text {
		eq := p.zero
		if r < utf8.RuneSelf {
			eq = p.peq[int(r)*words : int(r)*words+words]
		} else if x := slices.Index(p.others, r); x >= 0 {
			eq = p.othersPeq[x*words : x*words+words]
		}
		// carryP/carryM: the horizontal delta entering the block from
		// the row above it is +1/−1 (both 0: delta 0).
		carryP, carryM := uint64(1), uint64(0)
		for w := range p.pv {
			pv, mv, e := p.pv[w], p.mv[w], eq[w]
			xv := e | mv
			e |= carryM
			xh := (((e & pv) + pv) ^ pv) | e
			ph := mv | ^(xh | pv)
			mh := pv & xh
			shift := uint(wordBits - 1)
			if w == words-1 {
				shift = lastShift
			}
			outP, outM := ph>>shift&1, mh>>shift&1
			ph = ph<<1 | carryP
			mh = mh<<1 | carryM
			p.pv[w] = mh | ^(xv | ph)
			p.mv[w] = ph & xv
			carryP, carryM = outP, outM
		}
		score += int(carryP) - int(carryM)
		rest--
		if score-rest > limit {
			return float64(score - rest)
		}
	}
	return float64(score)
}

// ---------------------------------------------------------------------------
// Jaccard, Dice, Cosine

// setMeasure is a distance over the distinct values of the two sets:
// jaccard, dice and cosine differ only in how of combines the two
// cardinalities and the size of the intersection. Its typed form
// (NewColumn) is the sorted distinct values, so a column compares two
// prepared sets with one merge.
type setMeasure struct {
	name string
	of   func(ca, cb, inter int) float64
}

var (
	// jaccard is the token-set Jaccard distance of Table 2:
	// 1 − |A∩B| / |A∪B| where A and B are the two value sets themselves
	// (each value is one set element). This matches Silk's Jaccard over
	// the multi-valued results of a tokenizer transformation.
	jaccard = &setMeasure{name: "jaccard", of: func(ca, cb, inter int) float64 {
		union := ca + cb - inter
		if union == 0 {
			return 0
		}
		return 1 - float64(inter)/float64(union)
	}}
	// dice is the Sørensen–Dice distance 1 − 2|A∩B|/(|A|+|B|).
	dice = &setMeasure{name: "dice", of: func(ca, cb, inter int) float64 {
		den := ca + cb
		if den == 0 {
			return 0
		}
		return 1 - 2*float64(inter)/float64(den)
	}}
	// cosine treats the sets as binary term vectors:
	// 1 − |A∩B| / sqrt(|A|·|B|).
	cosine = &setMeasure{name: "cosine", of: func(ca, cb, inter int) float64 {
		den := math.Sqrt(float64(ca) * float64(cb))
		if den == 0 {
			return 0
		}
		return 1 - float64(inter)/den
	}}
)

// Jaccard returns the Jaccard distance coefficient measure.
func Jaccard() Measure { return jaccard }

// Dice returns the Dice coefficient distance measure.
func Dice() Measure { return dice }

// Cosine returns the token cosine distance measure.
func Cosine() Measure { return cosine }

// Name implements Measure.
func (m *setMeasure) Name() string { return m.name }

// Distance implements Measure.
func (m *setMeasure) Distance(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	return m.of(setStats(a, b))
}

// NewColumn implements Prepared.
func (m *setMeasure) NewColumn(n int) Column {
	return &setColumn{m: m, typedSets: newTypedSets[string](n)}
}

// setColumn holds each set as its sorted distinct values.
type setColumn struct {
	m *setMeasure
	typedSets[string]
}

func (c *setColumn) Prepare(i int, values []string) {
	c.put(i, func(dst []string) []string {
		start := len(dst)
		dst = append(dst, values...)
		set := dst[start:]
		slices.Sort(set)
		return dst[:start+len(slices.Compact(set))]
	})
}

func (c *setColumn) Distance(i int, other Column, j int) float64 {
	a, b := c.set(i), other.(*setColumn).set(j)
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	inter := 0
	for x, y := 0, 0; x < len(a) && y < len(b); {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			inter++
			x++
			y++
		}
	}
	return c.m.of(len(a), len(b), inter)
}

// smallSet bounds the value-list length for which setStats counts with
// nested scans instead of allocating maps. Multi-valued properties are
// typically 1–3 values, so the scans are the common case.
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
