// Package datagen generates the six evaluation datasets of Section 6.1 as
// deterministic synthetic corpora. The real corpora (Cora, Restaurant, the
// OAEI dumps, LinkedMDB and the DBpedia/DrugBank extracts) are not
// redistributable nor reachable offline; each generator reproduces the
// quantities of Table 5 (entity and reference-link counts) and Table 6
// (property counts and coverage) together with the *noise and schema
// characteristics* that the paper's experiments depend on:
//
//   - Cora/Restaurant: single-schema records with case, token-order and
//     typo noise — the regime where transformations lift accuracy (§6.2).
//   - SiderDrugBank / DBpediaDrugBank: cross-schema sources with several
//     sparse redundant identifiers — the regime where non-linear
//     aggregation and seeding matter (§6.3).
//   - NYT: many low-coverage properties with name qualifiers and
//     coordinate jitter — the regime of the paper's hardest learning
//     curve (Table 10). This generator does not reproduce that
//     difficulty: validation F1 is 1.000 from iteration 0, so its
//     curve is saturated today.
//   - LinkedMDB: same-title/different-year corner cases that defeat
//     label-only rules (§6.2).
//
// All generators are pure functions of their seed.
package datagen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"genlink/internal/entity"
)

// Generator builds one dataset from a seed.
type Generator func(seed int64) *entity.Dataset

// Registry maps the paper's dataset names to their generators.
var Registry = map[string]Generator{
	"Cora":            Cora,
	"Restaurant":      Restaurant,
	"SiderDrugBank":   SiderDrugBank,
	"NYT":             NYT,
	"LinkedMDB":       LinkedMDB,
	"DBpediaDrugBank": DBpediaDrugBank,
}

// Names returns the dataset names in the order of Table 5.
func Names() []string {
	return []string{"Cora", "Restaurant", "SiderDrugBank", "NYT", "LinkedMDB", "DBpediaDrugBank"}
}

// ByName returns the generator for a dataset name (case-insensitive), or nil.
func ByName(name string) Generator {
	for k, g := range Registry {
		if strings.EqualFold(k, name) {
			return g
		}
	}
	return nil
}

// All generates every dataset with the same seed, in Table 5 order.
func All(seed int64) []*entity.Dataset {
	out := make([]*entity.Dataset, 0, len(Registry))
	for _, name := range Names() {
		out = append(out, Registry[name](seed))
	}
	return out
}

// ---------------------------------------------------------------------------
// Vocabulary and noise helpers

var (
	consonants = []string{"b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "st", "tr", "ch"}
	vowels     = []string{"a", "e", "i", "o", "u", "ia", "ei", "ou"}

	commonWords = []string{
		"analysis", "learning", "systems", "networks", "data", "models",
		"adaptive", "efficient", "parallel", "distributed", "optimal",
		"approach", "methods", "theory", "algorithms", "knowledge",
		"information", "processing", "recognition", "classification",
	}
)

// word builds a pronounceable pseudo-word of the given syllable count.
func word(rng *rand.Rand, syllables int) string {
	var b strings.Builder
	for i := 0; i < syllables; i++ {
		b.WriteString(consonants[rng.Intn(len(consonants))])
		b.WriteString(vowels[rng.Intn(len(vowels))])
	}
	return b.String()
}

// titleCase capitalizes the first letter of each token.
func titleCase(s string) string {
	tokens := strings.Fields(s)
	for i, t := range tokens {
		tokens[i] = strings.ToUpper(t[:1]) + t[1:]
	}
	return strings.Join(tokens, " ")
}

// typo applies n random character edits (substitution, deletion, insertion
// or adjacent transposition). A transposition costs two plain Levenshtein
// operations, so the edit distance to the original is at most 2n.
func typo(rng *rand.Rand, s string, n int) string {
	runes := []rune(s)
	for i := 0; i < n && len(runes) > 1; i++ {
		pos := rng.Intn(len(runes))
		switch rng.Intn(4) {
		case 0: // substitute
			runes[pos] = rune('a' + rng.Intn(26))
		case 1: // delete
			runes = append(runes[:pos], runes[pos+1:]...)
		case 2: // insert
			runes = append(runes[:pos], append([]rune{rune('a' + rng.Intn(26))}, runes[pos:]...)...)
		default: // transpose
			if pos+1 < len(runes) {
				runes[pos], runes[pos+1] = runes[pos+1], runes[pos]
			}
		}
	}
	return string(runes)
}

// caseNoise returns the string in a random letter case: unchanged, all
// upper, all lower or title case.
func caseNoise(rng *rand.Rand, s string) string {
	switch rng.Intn(4) {
	case 0:
		return strings.ToUpper(s)
	case 1:
		return strings.ToLower(s)
	case 2:
		return titleCase(s)
	default:
		return s
	}
}

// shuffleTokens randomly reorders the whitespace tokens of s.
func shuffleTokens(rng *rand.Rand, s string) string {
	tokens := strings.Fields(s)
	rng.Shuffle(len(tokens), func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })
	return strings.Join(tokens, " ")
}

// personName generates "first last" author-style names.
func personName(rng *rand.Rand) (first, last string) {
	return titleCase(word(rng, 2)), titleCase(word(rng, rng.Intn(2)+2))
}

// abbreviatedName renders a person name as "F. Last".
func abbreviatedName(first, last string) string {
	return first[:1] + ". " + last
}

// coord renders latitude/longitude as the "lat lon" form ParseCoord accepts.
func coord(lat, lon float64) string {
	return fmt.Sprintf("%.5f %.5f", lat, lon)
}

// jitterCoord shifts a coordinate by up to maxDeg degrees in each axis.
func jitterCoord(rng *rand.Rand, lat, lon, maxDeg float64) (float64, float64) {
	return lat + (rng.Float64()*2-1)*maxDeg, lon + (rng.Float64()*2-1)*maxDeg
}

// hexToken returns an identifier-like random token.
func hexToken(rng *rand.Rand, n int) string {
	const digits = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = digits[rng.Intn(len(digits))]
	}
	return string(b)
}

// fillerProps assigns `count` filler properties named prefix00..prefixNN
// to an entity, each set independently with probability p. Filler values
// are unique per entity so they never create accidental cross-source
// matches.
func fillerProps(rng *rand.Rand, e *entity.Entity, prefix string, count int, p float64) {
	for i := 0; i < count; i++ {
		if rng.Float64() < p {
			e.Add(fmt.Sprintf("%s%02d", prefix, i), hexToken(rng, 10))
		}
	}
}

// buildDataset assembles sources and links and resolves reference links,
// panicking on internal inconsistencies (generators are deterministic, so
// a failure is a programming error, not an input error).
func buildDataset(name string, a, b *entity.Source, links []entity.Link) *entity.Dataset {
	refs, err := entity.Resolve(a, b, links)
	if err != nil {
		panic(fmt.Sprintf("datagen: %s: %v", name, err))
	}
	return &entity.Dataset{Name: name, A: a, B: b, Refs: refs}
}

// crossNegatives derives |R−| = |R+| negative links by cross-pairing
// positives, the generation scheme of Section 6.1. Candidates that
// coincide with a positive link (possible when one target entity carries
// several positive links, as in NYT) are skipped and replaced by wider
// cross-pairs.
func crossNegatives(positive []entity.Link) []entity.Link {
	n := len(positive)
	if n < 2 {
		return nil
	}
	posSet := make(map[[2]string]bool, n)
	for _, p := range positive {
		posSet[[2]string{p.AID, p.BID}] = true
	}
	negatives := make([]entity.Link, 0, n)
	seen := make(map[[2]string]bool, n)
	for shift := 1; shift < n && len(negatives) < n; shift++ {
		for i := 0; i < n && len(negatives) < n; i++ {
			p, q := positive[i], positive[(i+shift)%n]
			key := [2]string{p.AID, q.BID}
			if posSet[key] || seen[key] {
				continue
			}
			seen[key] = true
			negatives = append(negatives, entity.Link{AID: p.AID, BID: q.BID, Match: false})
		}
	}
	return negatives
}

// sortedCopy returns links sorted by (AID, BID) for deterministic output.
func sortedCopy(links []entity.Link) []entity.Link {
	out := append([]entity.Link(nil), links...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].AID != out[j].AID {
			return out[i].AID < out[j].AID
		}
		return out[i].BID < out[j].BID
	})
	return out
}
