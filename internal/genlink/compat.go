package genlink

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"genlink/internal/entity"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// PropertyPair is one entry of the compatible-property list of Section 5.1:
// a source property, a target property and the distance measure under which
// their values were observed to be similar.
type PropertyPair struct {
	// A is the property in the source data set.
	A string
	// B is the property in the target data set.
	B string
	// Measure names the distance measure that matched.
	Measure string
	// Support counts how many analyzed links exhibited the similarity.
	Support int
}

// CompatibleProperties implements Algorithm 2: for each positive reference
// link it lowercases and tokenizes every property value pair and records
// the property pair whenever some distance function finds two tokens within
// threshold. The returned list is sorted by descending support, then
// lexicographically for determinism.
//
// Following the paper's experiments, callers usually pass only the
// Levenshtein measure with threshold 1. maxLinks > 0 analyzes a random
// sample of at most that many links (rng is only used for sampling).
//
// The links are analyzed on GOMAXPROCS goroutines, each over a contiguous
// range of them into its own support counts; the counts are summed before
// the sort, so the list is the same at every core count.
func CompatibleProperties(positive []entity.Pair, measures []similarity.Measure,
	threshold float64, maxLinks int, rng *rand.Rand) []PropertyPair {
	return compatibleProperties(positive, measures, threshold, maxLinks, rng, 0)
}

// compatibleProperties is CompatibleProperties on at most workers
// goroutines (≤0: GOMAXPROCS), the learner's Config.Workers.
func compatibleProperties(positive []entity.Pair, measures []similarity.Measure,
	threshold float64, maxLinks int, rng *rand.Rand, workers int) []PropertyPair {

	links := positive
	if maxLinks > 0 && len(links) > maxLinks {
		sample := append([]entity.Pair(nil), links...)
		rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
		links = sample[:maxLinks]
	}

	lower := transform.LowerCase()
	tokenize := transform.Tokenize()
	prepared := make([]similarity.Prepared, len(measures)) // nil: compares the strings
	for i, m := range measures {
		prepared[i], _ = m.(similarity.Prepared)
	}

	// side is one entity of a link, normalized once per property — the
	// lowercased raw values and their tokens: string measures match on
	// tokens while measures that parse whole values (geographic, date,
	// numeric) need the untokenized form — and parsed once per property
	// and prepared measure instead of once per property pair: sets 2k and
	// 2k+1 of columns[m] are the raw values and the tokens of props[k].
	type side struct {
		props       []string
		raw, tokens [][]string
		columns     []similarity.Column
	}
	normalize := func(e *entity.Entity) side {
		s := side{props: e.PropertyNames(), columns: make([]similarity.Column, len(measures))}
		for _, p := range s.props {
			raw := lower.Apply(e.Values(p))
			s.raw = append(s.raw, raw)
			s.tokens = append(s.tokens, tokenize.Apply(raw))
		}
		for mi, m := range prepared {
			if m == nil {
				continue
			}
			col := m.NewColumn(2 * len(s.props))
			for k := range s.props {
				col.Prepare(2*k, s.raw[k])
				col.Prepare(2*k+1, s.tokens[k])
			}
			s.columns[mi] = col
		}
		return s
	}

	type key struct{ a, b, m string }
	analyze := func(links []entity.Pair, support map[key]int) {
		for _, link := range links {
			a, b := normalize(link.A), normalize(link.B)
			for ib, pb := range b.props {
				if len(b.raw[ib]) == 0 {
					continue
				}
				for ia, pa := range a.props {
					if len(a.raw[ia]) == 0 {
						continue
					}
					for mi, m := range measures {
						var within bool
						if ca, cb := a.columns[mi], b.columns[mi]; ca != nil {
							within = ca.Distance(2*ia+1, cb, 2*ib+1) < threshold ||
								ca.Distance(2*ia, cb, 2*ib) < threshold
						} else {
							within = m.Distance(a.tokens[ia], b.tokens[ib]) < threshold ||
								m.Distance(a.raw[ia], b.raw[ib]) < threshold
						}
						if within {
							support[key{pa, pb, m.Name()}]++
						}
					}
				}
			}
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(links)))
	counts := make([]map[key]int, workers)
	var wg sync.WaitGroup
	for w := range counts {
		counts[w] = make(map[key]int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			analyze(links[w*len(links)/workers:(w+1)*len(links)/workers], counts[w])
		}()
	}
	wg.Wait()
	support := counts[0]
	for _, c := range counts[1:] {
		for k, n := range c {
			support[k] += n
		}
	}

	pairs := make([]PropertyPair, 0, len(support))
	for k, s := range support {
		pairs = append(pairs, PropertyPair{A: k.a, B: k.b, Measure: k.m, Support: s})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Support != pairs[j].Support {
			return pairs[i].Support > pairs[j].Support
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		if pairs[i].B != pairs[j].B {
			return pairs[i].B < pairs[j].B
		}
		return pairs[i].Measure < pairs[j].Measure
	})
	return pairs
}

// AllPropertyPairs returns the full cross product of source and target
// properties — the unseeded search space used by the RandomInit mode of
// Table 14. The measure of each pair is left empty (drawn randomly later).
func AllPropertyPairs(positive []entity.Pair) []PropertyPair {
	setA := make(map[string]struct{})
	setB := make(map[string]struct{})
	for _, link := range positive {
		for p := range link.A.Properties {
			setA[p] = struct{}{}
		}
		for p := range link.B.Properties {
			setB[p] = struct{}{}
		}
	}
	listA := make([]string, 0, len(setA))
	for p := range setA {
		listA = append(listA, p)
	}
	listB := make([]string, 0, len(setB))
	for p := range setB {
		listB = append(listB, p)
	}
	sort.Strings(listA)
	sort.Strings(listB)
	pairs := make([]PropertyPair, 0, len(listA)*len(listB))
	for _, a := range listA {
		for _, b := range listB {
			pairs = append(pairs, PropertyPair{A: a, B: b})
		}
	}
	return pairs
}
