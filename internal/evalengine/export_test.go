package evalengine

// RecordCount returns how many entity records s has cached.
func RecordCount(s *SharedScorer) int {
	n := 0
	s.records.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}

// MetaOfValues exposes the prefilter metadata of a value set.
func MetaOfValues(vs []string) (card, minLen, maxLen int) {
	m := metaOfValues(vs)
	return m.card, m.minLen, m.maxLen
}
