package linkindex_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// The stream-vs-materialize differential of the query path: after ANY
// interleaving of Add/Update/Remove, the index must answer Query and
// QueryID exactly — order included — like the materializing reference
// (referenceQuery: every blocked candidate scored, thresholded, sorted,
// truncated), for every strategy × cap × shard combination and for a rule
// with and without a pushdown bound. That BlockIndex.Each enumerates
// exactly the materialized candidates is pinned where the block indexes
// live (internal/matching: TestDifferentialStreamVsMaterialize,
// FuzzCandidateStream). Runs under -race in CI alongside the other
// differential tests.

// equalLinks reports exact equality, order included.
func equalLinks(a, b []matching.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// referenceQuery is the materializing oracle of the query path: score
// every candidate blocking proposes with the rule's tree-walk — no
// compiled program and no record, so a record that outlives its entity
// version diverges — keep those reaching the threshold, order by (score
// desc, BID asc), truncate to k (k ≤ 0 keeps all).
func referenceQuery(ix *linkindex.ShardedIndex, r *rule.Rule, probe *entity.Entity, k int) []matching.Link {
	var links []matching.Link
	for _, cand := range ix.Candidates(probe) {
		if score := r.Evaluate(probe, cand); score >= rule.MatchThreshold {
			links = append(links, matching.Link{AID: probe.ID, BID: cand.ID, Score: score})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Score != links[j].Score {
			return links[i].Score > links[j].Score
		}
		return links[i].BID < links[j].BID
	})
	if k > 0 && len(links) > k {
		links = links[:k]
	}
	return links
}

// negativeWeightRules are compiled rules without a pushdown bound: a
// weighted mean with a negatively weighted operand admits none, at the
// root or nested in another aggregation.
func negativeWeightRules() (root, nested *rule.Rule) {
	year := rule.NewComparison(rule.NewProperty("year"), rule.NewProperty("year"), similarity.Numeric(), 1)
	year.SetWeight(-1)
	whole := diffRule().Root
	whole.SetWeight(2)
	root = rule.New(rule.NewAggregation(rule.WMean(), year, whole))

	year = year.CloneSim().(*rule.ComparisonOp)
	title := rule.NewComparison(rule.NewProperty("title"), rule.NewProperty("title"), similarity.Jaccard(), 0.9)
	title.SetWeight(2)
	name := diffRule().Root.(*rule.AggregationOp).Operands[0]
	nested = rule.New(rule.NewAggregation(rule.Max(), rule.NewAggregation(rule.WMean(), year, title), name))
	return root, nested
}

func TestDifferentialStreamQueryVsMaterializedQuery(t *testing.T) {
	// The one query path is pinned in both regimes: with a pushdown bound
	// and without one (negative weights, for which every candidate reaches
	// Score).
	negRoot, negNested := negativeWeightRules()
	rules := []struct {
		name      string
		r         *rule.Rule
		prefilter bool
	}{
		{"prefilter", diffRule(), true},
		{"negative-weight", negRoot, false},
		{"nested-negative-weight", negNested, false},
	}
	for _, rc := range rules {
		links := 0 // links returned by Query under this rule
		if got := evalengine.Compile(rc.r).Prefilter() != nil; got != rc.prefilter {
			t.Fatalf("rule %s: has prefilter = %v, want %v", rc.name, got, rc.prefilter)
		}
		for name, bl := range diffStrategies() {
			for _, maxBlock := range []int{-1, 0, 6} {
				for _, shards := range []int{1, 2, 5} {
					t.Run(fmt.Sprintf("%s/%s/cap=%d/shards=%d", rc.name, name, maxBlock, shards), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(len(name))*1000 + int64(maxBlock)*10 + int64(shards)))
						ix := linkindex.NewSharded(rc.r, shards, matching.Options{Blocker: bl, MaxBlockSize: maxBlock})
						survivors := make(map[string]*entity.Entity)
						nextID := 0

						checkProbe := func(probe *entity.Entity) {
							t.Helper()
							for _, k := range []int{0, 1, 3} {
								want := referenceQuery(ix, rc.r, probe, k)
								got := ix.Query(probe, k)
								if !equalLinks(got, want) {
									t.Fatalf("probe %s k=%d: Query diverges from the materialized reference\n got: %v\nwant: %v",
										probe.ID, k, got, want)
								}
								links += len(got)
							}
							var wantL []matching.Link
							stored := ix.Get(probe.ID)
							if stored != nil {
								wantL = referenceQuery(ix, rc.r, stored, 3)
							}
							gotL, gotOK := ix.QueryID(probe.ID, 3)
							if gotOK != (stored != nil) || !equalLinks(gotL, wantL) {
								t.Fatalf("QueryID(%s): (%v,%v) vs materialized reference (%v,%v)",
									probe.ID, gotL, gotOK, wantL, stored != nil)
							}
						}

						for op := 0; op < 60; op++ {
							ids := sortedIDsOfMap(survivors)
							switch {
							case len(ids) == 0 || rng.Float64() < 0.45:
								id := fmt.Sprintf("e%d", nextID)
								nextID++
								e := diffEntity(rng, id)
								ix.Add(e)
								survivors[id] = e
							case rng.Float64() < 0.5:
								id := ids[rng.Intn(len(ids))]
								e := diffEntity(rng, id)
								ix.Update(e)
								survivors[id] = e
							default:
								id := ids[rng.Intn(len(ids))]
								ix.Remove(id)
								delete(survivors, id)
							}

							// Every write is followed by a query, so a record
							// that outlives its version fails on the next one.
							ids = sortedIDsOfMap(survivors)
							if len(ids) > 0 {
								checkProbe(survivors[ids[rng.Intn(len(ids))]])
							}
							checkProbe(diffEntity(rng, "external-probe"))
						}

						// A probe with none of the rule's properties caps every
						// comparison at 0: with a pushdown bound each shard
						// answers before enumerating anything (the one early exit,
						// counted once per shard); without one nothing exits
						// early. Either way the answer is the oracle's: empty.
						bare := entity.New("bare-probe")
						before := ix.Stats().StreamEarlyExits
						if got, want := ix.Query(bare, 3), referenceQuery(ix, rc.r, bare, 3); len(want) != 0 || !equalLinks(got, want) {
							t.Fatalf("bare probe: Query = %v, materialized reference = %v, want both empty", got, want)
						}
						wantExits := int64(0)
						if rc.prefilter {
							wantExits = int64(shards)
						}
						if exits := ix.Stats().StreamEarlyExits - before; exits != wantExits {
							t.Fatalf("bare probe: StreamEarlyExits rose by %d, want %d (%d shards, prefilter=%v)",
								exits, wantExits, shards, rc.prefilter)
						}
					})
				}
			}
		}
		if links == 0 && !t.Failed() {
			t.Errorf("rule %s: no query returned a link; its scoring went unexercised", rc.name)
		}
	}
}
