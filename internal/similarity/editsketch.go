package similarity

// Letter-count sketches: a lower bound on the levenshtein distance that
// reads two machine words per value, so a caller holding many stored
// values can reject most of them without touching their bytes. It is a
// bucketed bag distance (Bartolini, Ciaccia & Patella, 2002). One edit
// removes at most one rune from a value's multiset of runes and adds at
// most one, so the runes a has beyond b's, and those b has beyond a's,
// each number at most the edit distance. Counting runes by bucket
// (rune mod 32) instead of exactly, and saturating each count at 15,
// only shrinks both numbers: merging two counts, or clamping both sides
// of a difference, never widens it. The contract, held to the Levenshtein
// dynamic program by TestEditSketchBound and FuzzEditSketchBound:
//
//	SketchBound(sketch of a, sketch of b) ≤ levenshtein(a, b)
//
// 32 buckets were measured against 16 (one word) and against 16 plus 16
// buckets of bigram counts (a bigram bound halves: one edit changes at
// most two bigrams each way). On the rule index's candidates at 10⁵
// cora-x entities (BenchmarkQueryCoraRule), 16 buckets left 141 Myers
// checks per query, 16 with bigrams 132 and 32 buckets 48, and 32 had the
// fastest stored-ID query.

// sketchBuckets is the number of 4-bit counts in a sketch, 16 per word.
const sketchBuckets = 32

// Sketch is the letter-count sketch of a value (editSketch).
type Sketch [2]uint64

// editSketch returns the letter-count sketch of s — for each bucket i
// below 32, the number of s's runes r with r mod 32 = i, saturated at
// 15, as the 4-bit count at bits 4(i mod 16) of word i / 16 — and the
// number of its runes, from one pass. An invalid UTF-8 byte counts as
// U+FFFD, which is how levenshtein reads it.
func editSketch(s string) (sk Sketch, runes int) {
	for _, r := range s {
		runes++
		b := uint(r % sketchBuckets)
		w, shift := b/16, b%16*4
		if sk[w]>>shift&15 != 15 {
			sk[w] += 1 << shift
		}
	}
	return sk, runes
}

// SketchBound returns a lower bound on the levenshtein distance between
// two values from their sketches (editSketch): the larger of the sums of
// the positive and of the negative parts of the bucket-wise difference
// a − b. The buckets are compared 8 at a time in byte lanes, with no
// branch per bucket. The two sums differ by the difference of the
// sketches' totals, so only the positive one is summed.
func SketchBound(a, b Sketch) int {
	const nibbles = 0x0F0F0F0F0F0F0F0F
	pos, na, nb := 0, 0, 0
	for w := range a {
		ae, ao := a[w]&nibbles, a[w]>>4&nibbles
		be, bo := b[w]&nibbles, b[w]>>4&nibbles
		pos += laneSum(lanePos(ae, be) + lanePos(ao, bo))
		na += laneSum(ae + ao)
		nb += laneSum(be + bo)
	}
	return pos + max(nb-na, 0)
}

// lanePos returns max(x − y, 0) in each byte lane of x and y, whose
// lanes hold values below 128: a lane of (x | 0x80) − y keeps its high
// bit exactly when x ≥ y, borrows nothing from the next lane, and holds
// x − y below that bit.
func lanePos(x, y uint64) uint64 {
	const high = 0x8080808080808080
	d := (x | high) - y
	keep := d & high
	return d & (keep - keep>>7)
}

// laneSum returns the sum of the byte lanes of x, which must be below
// 256: the multiply adds every lane into the top one.
func laneSum(x uint64) int { return int(x * 0x0101010101010101 >> 56) }

// EditShape is what EditWithin reads of a stored value before its
// bytes: its sketch and its rune count (editSketch).
type EditShape struct {
	Sketch Sketch
	Runes  int32
}

// NewEditShape returns the shape of v.
func NewEditShape(v string) EditShape {
	sk, runes := editSketch(v)
	return EditShape{sk, int32(runes)}
}

// EditSet is a value set as the stored side of EditWithin's checks: the
// values and their shapes, by position, derived once when the set is
// stored.
type EditSet struct {
	Values []string
	Shapes []EditShape
}

// NewEditSet returns values as an EditSet.
func NewEditSet(values []string) EditSet {
	set := EditSet{Values: values, Shapes: make([]EditShape, len(values))}
	for i, v := range values {
		set.Shapes[i] = NewEditShape(v)
	}
	return set
}

// EditWithin prepares values as the probe side of the check "some value
// of a stored set is within k levenshtein edits of some value of values",
// the check a caller runs on each of many candidates. Each value's
// sketch and Myers pattern are built here, once. A value pair is first
// tested on its sketches (SketchBound); only a pair the sketches leave
// within k runs the bounded distance, which is given the stored value's
// rune count, so a rejected candidate's bytes are never read. The
// returned function keeps the patterns' state, so it must be used by one
// goroutine at a time; it allocates nothing.
func EditWithin(values []string, k int) func(stored EditSet) bool {
	type probeValue struct {
		pattern
		sketch Sketch
	}
	probe := make([]probeValue, len(values))
	for i, v := range values {
		sk, runes := editSketch(v)
		probe[i] = probeValue{newPattern(v, runes, nil), sk}
	}
	bound := float64(k)
	return func(stored EditSet) bool {
		for j := range stored.Shapes {
			shape := &stored.Shapes[j]
			for i := range probe {
				p := &probe[i]
				if SketchBound(p.sketch, shape.Sketch) <= k && p.within(stored.Values[j], int(shape.Runes), bound) <= bound {
					return true
				}
			}
		}
		return false
	}
}
