package matching

import (
	"io"
	"sort"

	"genlink/internal/rdf"
)

// FilterOneToOne reduces a scored link set to a one-to-one matching using
// greedy assignment by descending score: each source and each target
// entity appears in at most one link. This is the standard post-processing
// step when both sources are internally duplicate-free (as the paper's
// RDF datasets are, Section 6.1).
func FilterOneToOne(links []Link) []Link {
	sorted := append([]Link(nil), links...)
	SortLinks(sorted)
	usedA := make(map[string]bool)
	usedB := make(map[string]bool)
	out := make([]Link, 0, len(sorted))
	for _, l := range sorted {
		if usedA[l.AID] || usedB[l.BID] {
			continue
		}
		usedA[l.AID] = true
		usedB[l.BID] = true
		out = append(out, l)
	}
	return out
}

// TopKPerSource keeps at most k links per source entity (by score).
// k ≤ 0 keeps everything.
func TopKPerSource(links []Link, k int) []Link {
	if k <= 0 {
		return append([]Link(nil), links...)
	}
	sorted := append([]Link(nil), links...)
	SortLinks(sorted)
	count := make(map[string]int)
	out := make([]Link, 0, len(sorted))
	for _, l := range sorted {
		if count[l.AID] >= k {
			continue
		}
		count[l.AID]++
		out = append(out, l)
	}
	return out
}

// sameAsPredicate is the predicate Silk emits for accepted links.
const sameAsPredicate = "http://www.w3.org/2002/07/owl#sameAs"

// WriteSameAs serializes links as owl:sameAs N-Triples, the output format
// of the Silk Link Discovery Framework.
func WriteSameAs(w io.Writer, links []Link) error {
	triples := make([]rdf.Triple, 0, len(links))
	sorted := append([]Link(nil), links...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].AID != sorted[j].AID {
			return sorted[i].AID < sorted[j].AID
		}
		return sorted[i].BID < sorted[j].BID
	})
	for _, l := range sorted {
		triples = append(triples, rdf.Triple{
			Subject:   l.AID,
			Predicate: sameAsPredicate,
			Object:    l.BID,
		})
	}
	return rdf.Write(w, triples)
}
