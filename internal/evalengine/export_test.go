package evalengine

import "slices"

// MetaOfValues exposes the prefilter metadata of a value set.
func MetaOfValues(vs []string) (card, minLen, maxLen int) {
	m := metaOfValues(vs)
	return m.card, m.minLen, m.maxLen
}

// RecordCount returns how many entity records s has cached.
func RecordCount(s *Scorer) int {
	n := 0
	s.records.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}

// CloneRecord returns a deep copy of r, so a test can check that scoring
// leaves r unchanged.
func CloneRecord(r *Record) *Record {
	sets := make([][]string, len(r.sets))
	for i, s := range r.sets {
		sets[i] = slices.Clone(s)
	}
	return &Record{e: r.e, sets: sets, meta: slices.Clone(r.meta)}
}
