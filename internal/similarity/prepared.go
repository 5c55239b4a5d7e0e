package similarity

import (
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// The three measures of Table 2 that parse their values — numeric,
// geographic, date — are one generic measure: parse turns a value into
// its typed form T, dist compares two typed values, and the distance
// between two value sets is the minimum of dist over the cross product
// of the values that parsed. Parsing is the expensive half and depends
// on one value only, so it is kept apart from comparing: Distance parses
// each value of each set once (not once per value pair), and a Column
// keeps the typed form so callers that compare the same sets again and
// again — the fitness engine's reference pairs, Algorithm 2's property
// pairs, the scoring record each stored entity carries
// (internal/evalengine) — parse each set once for good.

// Prepared is implemented by the measures whose Distance is computed over
// a typed form of the values: the parsing measures below (parsed numbers,
// coordinates and dates) and the set measures jaccard, dice and cosine
// (sorted distinct values).
type Prepared interface {
	Measure
	// NewColumn returns a column of n value sets, all empty.
	NewColumn(n int) Column
}

// Column holds value sets in the typed form of the measure that made it.
// A column is not safe for concurrent Prepare calls; Distance only reads.
type Column interface {
	// Prepare parses values and keeps the typed form as set i. Values
	// that do not parse are dropped.
	Prepare(i int, values []string)
	// Distance is the measure's Distance between the value sets behind
	// set i of this column and set j of other, which must be a column of
	// the same measure.
	Distance(i int, other Column, j int) float64
}

// prepared is the generic parsing measure. Its Prepare is the one
// preparation function: Distance runs it on both sets at every call, a
// column runs it once per set, and a scoring record keeps one-set
// columns, so scoring a candidate against a stored entity parses
// nothing.
type prepared[T any] struct {
	name  string
	parse func(string) (T, bool)
	dist  func(a, b T) float64
}

// preparedStack is the number of parsed values per set that Distance
// keeps on the stack; multi-valued properties are typically 1–3 values.
const preparedStack = 4

// Name implements Measure.
func (m *prepared[T]) Name() string { return m.name }

// Prepare appends the typed form of every value that parses to dst.
func (m *prepared[T]) Prepare(dst []T, values []string) []T {
	for _, v := range values {
		if t, ok := m.parse(v); ok {
			dst = append(dst, t)
		}
	}
	return dst
}

// Distance implements Measure: the minimum of dist over the prepared
// cross product, +Inf when either side has no value that parses.
func (m *prepared[T]) Distance(a, b []string) float64 {
	var bufA, bufB [preparedStack]T
	return m.min(m.Prepare(bufA[:0], a), m.Prepare(bufB[:0], b))
}

func (m *prepared[T]) min(a, b []T) float64 {
	best := math.Inf(1)
	for _, va := range a {
		for _, vb := range b {
			// A NaN distance (NaN or opposite infinities parse as
			// numbers) is never smaller, so it is no evidence.
			if d := m.dist(va, vb); d < best {
				best = d
				if best == 0 {
					return 0
				}
			}
		}
	}
	return best
}

// NewColumn implements Prepared.
func (m *prepared[T]) NewColumn(n int) Column {
	return &column[T]{m: m, typedSets: newTypedSets[T](n)}
}

// column stores the typed values of all sets back to back.
type column[T any] struct {
	m *prepared[T]
	typedSets[T]
}

func (c *column[T]) Prepare(i int, values []string) {
	c.put(i, func(dst []T) []T { return c.m.Prepare(dst, values) })
}

func (c *column[T]) Distance(i int, other Column, j int) float64 {
	return c.m.min(c.set(i), other.(*column[T]).set(j))
}

// typedSets stores n value sets in a typed form back to back. A store of
// one set, which is what a scoring record keeps per typed form, has no
// spans, so reading its set touches one allocation fewer.
type typedSets[T any] struct {
	vals  []T
	spans [][2]int32 // set i is vals[spans[i][0]:spans[i][1]]; nil for one set
}

func newTypedSets[T any](n int) typedSets[T] {
	if n == 1 {
		return typedSets[T]{}
	}
	return typedSets[T]{spans: make([][2]int32, n)}
}

// put stores set i as the values add appends.
func (s *typedSets[T]) put(i int, add func(dst []T) []T) {
	if s.spans == nil {
		s.vals = add(s.vals[:0])
		return
	}
	start := len(s.vals)
	s.vals = add(s.vals)
	s.spans[i] = [2]int32{int32(start), int32(len(s.vals))}
}

func (s *typedSets[T]) set(i int) []T {
	if s.spans == nil {
		return s.vals
	}
	return s.vals[s.spans[i][0]:s.spans[i][1]]
}

// ---------------------------------------------------------------------------
// Numeric

var numeric = &prepared[float64]{
	name:  "numeric",
	parse: func(s string) (float64, bool) { return parseFloat(strings.TrimSpace(s)) },
	dist:  func(a, b float64) float64 { return math.Abs(a - b) },
}

// Numeric returns the absolute numeric difference of Table 2. Values that
// do not parse as floats are ignored; if no pair parses the distance is +Inf.
func Numeric() Measure { return numeric }

// parseFloat is strconv.ParseFloat(s, 64) without the error: on a corpus
// of names and titles nearly every attempt fails, and every failure
// inside strconv allocates its *NumError. A float starts with a digit, a
// sign or a point, or is one of strconv's spellings of infinity and NaN;
// anything else is rejected by its first bytes.
func parseFloat(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
	case len(s) >= 3 && (strings.EqualFold(s[:3], "inf") || strings.EqualFold(s, "nan")):
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// ---------------------------------------------------------------------------
// Geographic

// earthRadiusMeters is the mean Earth radius used by the haversine formula.
const earthRadiusMeters = 6371000.0

var geographic = &prepared[[2]float64]{
	name: "geographic",
	parse: func(s string) ([2]float64, bool) {
		lat, lon, ok := ParseCoord(s)
		return [2]float64{lat, lon}, ok
	},
	dist: func(a, b [2]float64) float64 { return Haversine(a[0], a[1], b[0], b[1]) },
}

// Geographic returns the geographical distance in meters between two
// coordinate values (Table 2). Coordinates are expected in "lat lon",
// "lat,lon" or "POINT(lon lat)" form in degrees; unparsable values are
// ignored.
func Geographic() Measure { return geographic }

// ParseCoord parses "lat lon", "lat,lon" or "POINT(lon lat)" degree strings.
func ParseCoord(s string) (lat, lon float64, ok bool) {
	s = strings.TrimSpace(s)
	rest, wkt := strings.CutPrefix(s, "POINT(")
	if wkt {
		s = strings.TrimSuffix(rest, ")")
	}
	// A comma separates like a space, except inside WKT.
	first, second, ok := twoFields(s, !wkt)
	if !ok {
		return 0, 0, false
	}
	v1, ok1 := parseFloat(first)
	v2, ok2 := parseFloat(second)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if wkt {
		return v2, v1, true // WKT order is lon lat.
	}
	return v1, v2, true
}

// twoFields splits s around runs of white space (and commas, if comma is
// set) like strings.Fields, by index: ok reports that there are exactly
// two fields.
func twoFields(s string, comma bool) (first, second string, ok bool) {
	var fields [2]string
	n, start := 0, -1
	for i, r := range s {
		if unicode.IsSpace(r) || comma && r == ',' {
			if start >= 0 {
				fields[n] = s[start:i]
				n++
				start = -1
			}
		} else if start < 0 {
			if n == 2 {
				return "", "", false
			}
			start = i
		}
	}
	if start >= 0 {
		fields[n] = s[start:]
		n++
	}
	return fields[0], fields[1], n == 2
}

// Haversine returns the great-circle distance in meters between two points
// given in degrees.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const degToRad = math.Pi / 180
	phi1, phi2 := lat1*degToRad, lat2*degToRad
	dPhi := (lat2 - lat1) * degToRad
	dLambda := (lon2 - lon1) * degToRad
	sinPhi := math.Sin(dPhi / 2)
	sinLambda := math.Sin(dLambda / 2)
	h := sinPhi*sinPhi + math.Cos(phi1)*math.Cos(phi2)*sinLambda*sinLambda
	return 2 * earthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// ---------------------------------------------------------------------------
// Date

var date = &prepared[time.Time]{
	name:  "date",
	parse: ParseDate,
	// Sub saturates at ±292 years, which is why the typed form is the
	// time.Time itself and not a day count.
	dist: func(a, b time.Time) float64 { return math.Abs(a.Sub(b).Hours() / 24) },
}

// Date returns the distance between two dates in days (Table 2).
func Date() Measure { return date }

// ParseDate parses a date value. Every supported layout has a shape no
// other layout shares, so the shape of the (space-trimmed) value selects
// the one layout that can match it and time.Parse runs at most once:
//
//	shape of the value                    layout
//	4 bytes, leading digit                "2006"
//	10 bytes, leading digit, s[4] = '-'   "2006-01-02"
//	10 bytes, leading digit, s[4] = '/'   "2006/01/02"
//	10 bytes, leading digit, s[2] = '.'   "02.01.2006"
//	month prefix, s[3] = ' '              "Jan 2, 2006"
//	month prefix otherwise                "January 2, 2006"
//
// ("May 2, 2006" fits both named layouts and parses alike under either.)
// Everything else — the names and titles a date comparison meets on most
// corpora — is rejected without calling time.Parse, whose every failure
// allocates its error.
func ParseDate(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if len(s) < 4 {
		return time.Time{}, false
	}
	var layout string
	switch {
	case s[0] >= '0' && s[0] <= '9':
		switch {
		case len(s) == 4:
			layout = "2006"
		case len(s) != 10:
			return time.Time{}, false
		case s[4] == '-':
			layout = "2006-01-02"
		case s[4] == '/':
			layout = "2006/01/02"
		case s[2] == '.':
			layout = "02.01.2006"
		default:
			return time.Time{}, false
		}
	case !hasMonthPrefix(s):
		return time.Time{}, false
	case s[3] == ' ':
		layout = "Jan 2, 2006"
	default:
		layout = "January 2, 2006"
	}
	t, err := time.Parse(layout, s)
	return t, err == nil
}

// monthPrefixes are the distinct three-letter prefixes of the English
// month names — the first token both named layouts begin with.
var monthPrefixes = [...]string{"jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"}

// hasMonthPrefix reports whether s (at least three bytes) could start
// with a month name. The check is case-insensitive, so it is at least as
// permissive as time.Parse's name matching — a false positive costs one
// failed parse, a false negative is impossible.
func hasMonthPrefix(s string) bool {
	for _, m := range monthPrefixes {
		if strings.EqualFold(s[:3], m) {
			return true
		}
	}
	return false
}
