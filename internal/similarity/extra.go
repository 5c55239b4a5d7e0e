package similarity

import (
	"math"
	"strings"
)

// QGram returns the q-gram distance with q=3 (trigrams, padded): the
// Jaccard distance over the sets of character trigrams of the two values.
// It behaves like a typo-tolerant token measure and is a common Silk
// plugin beyond the Table 2 core.
func QGram() Measure {
	return Func{MeasureName: "qgram", Single: func(a, b string) float64 {
		ga, gb := trigrams(a), trigrams(b)
		if len(ga) == 0 && len(gb) == 0 {
			return 0
		}
		if len(ga) == 0 || len(gb) == 0 {
			return 1
		}
		inter := 0
		for g := range ga {
			if _, ok := gb[g]; ok {
				inter++
			}
		}
		union := len(ga) + len(gb) - inter
		return 1 - float64(inter)/float64(union)
	}}
}

// trigrams returns the padded character trigram set of s.
func trigrams(s string) map[string]struct{} {
	if s == "" {
		return nil
	}
	padded := "##" + s + "##"
	runes := []rune(padded)
	out := make(map[string]struct{}, len(runes))
	for i := 0; i+3 <= len(runes); i++ {
		out[string(runes[i:i+3])] = struct{}{}
	}
	return out
}

// MongeElkan returns the Monge-Elkan distance: the values are tokenized
// and each token of the first value is matched to its most similar token
// of the second under Jaro-Winkler; the distance is one minus the mean
// best similarity. Asymmetric by definition, the measure is symmetrized
// by taking the max of both directions. Two values without tokens are
// equal under this tokenization (distance 0); a value without tokens is
// at distance 1 from one with tokens.
func MongeElkan() Measure {
	jw := JaroWinkler()
	direction := func(a, b string) float64 {
		ta, tb := strings.Fields(a), strings.Fields(b)
		if len(ta) == 0 || len(tb) == 0 {
			if len(ta) == len(tb) {
				return 0
			}
			return 1
		}
		var sum float64
		for _, x := range ta {
			best := 0.0
			for _, y := range tb {
				if sim := 1 - jw.Distance([]string{x}, []string{y}); sim > best {
					best = sim
				}
			}
			sum += best
		}
		return 1 - sum/float64(len(ta))
	}
	return Func{MeasureName: "mongeElkan", Single: func(a, b string) float64 {
		return math.Max(direction(a, b), direction(b, a))
	}}
}

// Soundex returns a phonetic distance: 0 when the American Soundex codes
// of the two values agree, 1 otherwise.
func Soundex() Measure {
	return Func{MeasureName: "soundex", Single: func(a, b string) float64 {
		if soundexCode(a) == soundexCode(b) {
			return 0
		}
		return 1
	}}
}

// soundexCode computes the 4-character American Soundex code.
func soundexCode(s string) string {
	s = strings.ToUpper(s)
	var letters []byte
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			letters = append(letters, s[i])
		}
	}
	if len(letters) == 0 {
		return "0000"
	}
	code := []byte{letters[0]}
	prev := soundexDigit(letters[0])
	for _, c := range letters[1:] {
		d := soundexDigit(c)
		if d == 7 {
			continue // H and W are transparent: skipped, prev kept
		}
		if d != 0 && d != prev {
			code = append(code, '0'+d)
			if len(code) == 4 {
				break
			}
		}
		prev = d // vowels (d == 0) reset prev so duplicates re-emit
	}
	for len(code) < 4 {
		code = append(code, '0')
	}
	return string(code)
}

func soundexDigit(c byte) byte {
	switch c {
	case 'B', 'F', 'P', 'V':
		return 1
	case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
		return 2
	case 'D', 'T':
		return 3
	case 'L':
		return 4
	case 'M', 'N':
		return 5
	case 'R':
		return 6
	case 'H', 'W':
		return 7 // marker: skipped and transparent
	default:
		return 0 // vowels and Y separate duplicates
	}
}

func init() {
	registry["qgram"] = QGram
	registry["mongeElkan"] = MongeElkan
	registry["soundex"] = Soundex
}
