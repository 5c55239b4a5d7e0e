package matching

import (
	"sort"

	"genlink/internal/entity"
)

// The reference materializer: every strategy's candidate pairs built
// directly from its definition — an inverted token map, the windowed scan
// over the merged sort order, an inverted q-gram map, the concatenation
// of the passes — deduplicated like the original CandidatePairs. It
// shares no code with the BlockIndex enumeration beyond the key
// functions and CapAllows, and it is the ground truth of the batch and
// index differentials (TestStreamPairsEqualCandidatePairs,
// FuzzBatchCandidates, TestDifferentialStreamVsMaterialize,
// FuzzCandidateStream).

// referenceBlocker is implemented by all four Blockers in this file.
type referenceBlocker interface {
	Pairs(a, b *entity.Source, opts Options) []Pair
}

// referencePairs is the original CandidatePairs over the reference
// materializer: raw pairs with duplicates and self pairs removed, in
// first-seen order.
func referencePairs(bl Blocker, a, b *entity.Source, opts Options) []Pair {
	opts.normalize(b.Len())
	raw := bl.(referenceBlocker).Pairs(a, b, opts)
	seen := make(map[Pair]struct{}, len(raw))
	out := make([]Pair, 0, len(raw))
	for _, p := range raw {
		if p.A.ID == p.B.ID {
			continue
		}
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// OthersInBlock returns the size of a materialized block excluding the
// probe's own record (matched by entity ID) — the quantity CapAllows
// measures. The membership scan only runs when excluding one record
// could change the cap decision, so the common cases stay O(1).
func OthersInBlock(block []*entity.Entity, probe *entity.Entity, maxBlock int) int {
	size := len(block)
	if maxBlock > 0 && size == maxBlock+1 {
		for _, c := range block {
			if c.ID == probe.ID {
				return size - 1
			}
		}
	}
	return size
}

// Index maps lowercased value tokens to the entities containing them.
type Index struct {
	byToken map[string][]*entity.Entity
}

// BuildIndex indexes every token of every property value of the source.
func BuildIndex(src *entity.Source) *Index {
	idx := &Index{byToken: make(map[string][]*entity.Entity)}
	for _, e := range src.Entities {
		for _, tok := range Tokens(e) {
			idx.byToken[tok] = append(idx.byToken[tok], e)
		}
	}
	return idx
}

// Candidates returns the entities sharing at least one token with e,
// skipping blocks larger than maxBlock.
func (idx *Index) Candidates(e *entity.Entity, maxBlock int) []*entity.Entity {
	seen := make(map[*entity.Entity]struct{})
	var out []*entity.Entity
	for _, tok := range Tokens(e) {
		block := idx.byToken[tok]
		if !CapAllows(OthersInBlock(block, e, maxBlock), maxBlock) {
			continue
		}
		for _, cand := range block {
			if _, dup := seen[cand]; dup {
				continue
			}
			seen[cand] = struct{}{}
			out = append(out, cand)
		}
	}
	return out
}

// Pairs implements referenceBlocker using the inverted token index.
func (TokenBlocker) Pairs(a, b *entity.Source, opts Options) []Pair {
	idx := BuildIndex(b)
	var out []Pair
	for _, ea := range a.Entities {
		for _, eb := range idx.Candidates(ea, opts.MaxBlockSize) {
			out = append(out, Pair{A: ea, B: eb})
		}
	}
	return out
}

// Pairs implements referenceBlocker with a windowed scan over the merged
// sort order.
func (s SortedNeighborhoodBlocker) Pairs(a, b *entity.Source, opts Options) []Pair {
	key := s.Key
	if key == nil {
		key = DefaultSortKey
	}
	type rec struct {
		key string
		e   *entity.Entity
		isA bool
	}
	recs := make([]rec, 0, len(a.Entities)+len(b.Entities))
	for _, e := range a.Entities {
		recs = append(recs, rec{key: key(e), e: e, isA: true})
	}
	for _, e := range b.Entities {
		recs = append(recs, rec{key: key(e), e: e, isA: false})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		return recs[i].e.ID < recs[j].e.ID
	})
	w := s.window()
	var out []Pair
	for i := range recs {
		hi := i + w
		if hi >= len(recs) {
			hi = len(recs) - 1
		}
		for j := i + 1; j <= hi; j++ {
			switch {
			case recs[i].isA && !recs[j].isA:
				out = append(out, Pair{A: recs[i].e, B: recs[j].e})
			case !recs[i].isA && recs[j].isA:
				out = append(out, Pair{A: recs[j].e, B: recs[i].e})
			}
		}
	}
	return out
}

// QGramKeys returns the q-grams of every token of e as strings, sorted
// and unique: the keys of the reference q-gram index, which the index's
// packed codes must equal gram for gram (FuzzQGramCodes).
func QGramKeys(e *entity.Entity, q int) []string {
	toks := Tokens(e)
	n := 0
	for _, tok := range toks {
		n += len(tok) // ≥ the token's gram count
	}
	grams := make([]string, 0, n)
	for _, tok := range toks {
		grams = appendQGrams(grams, tok, q)
	}
	return sortedUnique(grams)
}

// Pairs implements referenceBlocker via an inverted q-gram index over B.
func (g QGramBlocker) Pairs(a, b *entity.Source, opts Options) []Pair {
	byGram := make(map[string][]*entity.Entity)
	for _, eb := range b.Entities {
		for _, gram := range QGramKeys(eb, g.q()) {
			byGram[gram] = append(byGram[gram], eb)
		}
	}
	var out []Pair
	for _, ea := range a.Entities {
		seen := make(map[*entity.Entity]struct{})
		for _, gram := range QGramKeys(ea, g.q()) {
			block := byGram[gram]
			if !CapAllows(OthersInBlock(block, ea, opts.MaxBlockSize), opts.MaxBlockSize) {
				continue
			}
			for _, eb := range block {
				if _, dup := seen[eb]; dup {
					continue
				}
				seen[eb] = struct{}{}
				out = append(out, Pair{A: ea, B: eb})
			}
		}
	}
	return out
}

// Pairs implements referenceBlocker by concatenating every pass's
// candidates; referencePairs dedupes the union.
func (m MultiPassBlocker) Pairs(a, b *entity.Source, opts Options) []Pair {
	var out []Pair
	for _, p := range m.Passes {
		out = append(out, p.(referenceBlocker).Pairs(a, b, opts)...)
	}
	return out
}
