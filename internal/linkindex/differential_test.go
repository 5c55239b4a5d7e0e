package linkindex_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// The differential property test: after ANY interleaving of
// Add/Update/Remove, the incremental index must propose exactly the
// candidates the batch blocker proposes when run on the surviving entity
// set — for every strategy (token, q-gram, sorted-neighborhood with
// default/property/reversed keys, multi-pass with and without a window
// member), with both derived and
// explicit stop-token caps. Query results must likewise equal
// batch-scoring those candidates with the interpreted rule. Run under
// -race in CI alongside concurrent-access tests.
//
// A rule with an edit bound is served from the rule index, whatever the
// blocker, so for it (the "wmean/" subtests) the references are
// stronger: the candidates are exactly the survivors within K edits of
// the probe on the bounded comparison's values (withinBound), and the
// links exactly those of scoring every survivor with the interpreted
// rule. Its subtests still run per strategy and cap, which only seed
// different write histories.
//
// The batch side is matching.CandidatePairs over a freshly built source:
// a one-shot BulkAdd of the survivors (the sorted-neighborhood scan of
// its own, for that strategy) against an index maintained through every
// write of the interleaving. CandidatePairs itself is held to the
// independent reference materializer in internal/matching
// (FuzzBatchCandidates, TestStreamPairsEqualCandidatePairs).

// diffVocab is deliberately tiny so entities share tokens (big blocks,
// cap-skip paths) and sort keys collide (window tie-breaking paths).
var diffVocab = []string{
	"data", "graph", "learning", "systems", "parallel", "adaptive",
	"netwrk", "network", "analisys", "analysis", "kernel", "query",
}

func diffValue(rng *rand.Rand) string {
	switch rng.Intn(10) {
	case 0:
		return "" // empty values are legal and must not break keying
	case 1:
		return diffVocab[rng.Intn(len(diffVocab))]
	default:
		n := 1 + rng.Intn(3)
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += diffVocab[rng.Intn(len(diffVocab))]
		}
		return s
	}
}

func diffEntity(rng *rand.Rand, id string) *entity.Entity {
	e := entity.New(id)
	for _, p := range []string{"name", "title", "year"} {
		if rng.Float64() < 0.8 {
			if p == "year" {
				e.Add(p, fmt.Sprintf("%d", 1990+rng.Intn(6)))
			} else {
				e.Add(p, diffValue(rng))
				if rng.Float64() < 0.2 {
					e.Add(p, diffValue(rng)) // multi-valued
				}
			}
		}
	}
	return e
}

func diffStrategies() map[string]matching.Blocker {
	return map[string]matching.Blocker{
		"token":       matching.TokenBlocking(),
		"qgram":       matching.QGramBlocking(0),
		"sn-default":  matching.SortedNeighborhood(4),
		"sn-property": matching.SortedNeighborhoodBlocker{Window: 3, Key: matching.PropertySortKey("name", "title")},
		"sn-reversed": matching.SortedNeighborhoodBlocker{Window: 3, Key: matching.ReversedKey(matching.DefaultSortKey)},
		"multipass": matching.MultiPass(
			matching.TokenBlocking(),
			matching.SortedNeighborhood(3),
			matching.QGramBlocking(0),
		),
		// Keyed members only, one with a non-default q: the members'
		// enumerators share one seen set and no window is involved.
		"multipass-keyed": matching.MultiPass(
			matching.TokenBlocking(),
			matching.QGramBlocking(2),
		),
	}
}

// batchCandidates is the ground truth: run the batch blocker with the
// probe as the only A entity against the surviving corpus minus the
// probe's own record, exactly the Index.Candidates contract.
func batchCandidates(bl matching.Blocker, probe *entity.Entity, survivors map[string]*entity.Entity, maxBlock int) []string {
	a := entity.NewSource("probe")
	a.Add(probe)
	rest := make([]*entity.Entity, 0, len(survivors))
	for id, e := range survivors {
		if id == probe.ID {
			continue
		}
		rest = append(rest, e)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	b := entity.NewSource("survivors")
	for _, e := range rest {
		b.Add(e)
	}
	opts := matching.Options{MaxBlockSize: maxBlock}
	ids := make(map[string]struct{})
	for _, p := range matching.CandidatePairs(bl, a, b, opts) {
		ids[p.B.ID] = struct{}{}
	}
	return sortedIDs(ids)
}

func sortedIDs(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func idsOf(es []*entity.Entity) []string {
	set := make(map[string]struct{}, len(es))
	for _, e := range es {
		set[e.ID] = struct{}{}
	}
	return sortedIDs(set)
}

func equalIDs(a, b []string) bool {
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

func diffRule() *rule.Rule {
	name := rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		similarity.Levenshtein(), 3)
	title := rule.NewComparison(
		rule.NewProperty("title"), rule.NewProperty("title"),
		similarity.Jaccard(), 0.9)
	year := rule.NewComparison(
		rule.NewProperty("year"), rule.NewProperty("year"),
		similarity.Numeric(), 2)
	return rule.New(rule.NewAggregation(rule.Max(), name, title, year))
}

// diffWMeanRule is diffRule's comparisons under a weighted mean, the name
// weighted 3: (3·(1 − d/4) + 2)/5 ≥ 0.5 needs a name edit distance
// d ≤ 3, so each shard keeps a rule index in place of a block index
// (diffRule, a max, has no bound), and every query of the differentials
// below is served from it.
func diffWMeanRule() *rule.Rule {
	name := rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		similarity.Levenshtein(), 4)
	name.SetWeight(3)
	title := rule.NewComparison(
		rule.NewProperty("title"), rule.NewProperty("title"),
		similarity.Jaccard(), 0.9)
	year := rule.NewComparison(
		rule.NewProperty("year"), rule.NewProperty("year"),
		similarity.Numeric(), 2)
	return rule.New(rule.NewAggregation(rule.WMean(), name, title, year))
}

// diffRules are the rules the differentials run: diffRule, without an
// edit bound, under its subtests' plain names, and diffWMeanRule, with
// one, under "wmean/".
func diffRules() map[string]*rule.Rule {
	return map[string]*rule.Rule{"": diffRule(), "wmean/": diffWMeanRule()}
}

// diffBound returns the edit bound K the index derives for the
// differential rule under prefix at the match threshold, and whether it
// has one: diffWMeanRule's is 3, on its lowercased names, and diffRule
// has none.
func diffBound(t *testing.T, prefix string, r *rule.Rule) (int, bool) {
	t.Helper()
	eb, ok := evalengine.Compile(r).EditBound(rule.MatchThreshold)
	if want := prefix == "wmean/"; ok != want || ok && eb.K != 3 {
		t.Fatalf("rule %s: EditBound K = %d, %v", r, eb.K, ok)
	}
	return eb.K, ok
}

// withinBound is the ground truth of Candidates under diffWMeanRule's
// edit bound k: the sorted IDs of the survivors, but the probe's own ID,
// whose lowercased names are within k edits of the probe's, computed
// with the plain measure over every survivor.
func withinBound(probe *entity.Entity, survivors map[string]*entity.Entity, k int) []string {
	lower := func(e *entity.Entity) []string {
		var out []string
		for _, v := range e.Values("name") {
			out = append(out, strings.ToLower(v))
		}
		return out
	}
	lev := similarity.Levenshtein()
	ids := make(map[string]struct{})
	for id, e := range survivors {
		if id != probe.ID && lev.Distance(lower(probe), lower(e)) <= float64(k) {
			ids[id] = struct{}{}
		}
	}
	return sortedIDs(ids)
}

// othersThan returns the sorted IDs of the survivors but id.
func othersThan(id string, survivors map[string]*entity.Entity) []string {
	ids := make(map[string]struct{}, len(survivors))
	for other := range survivors {
		if other != id {
			ids[other] = struct{}{}
		}
	}
	return sortedIDs(ids)
}

func TestDifferentialIndexVsBatchBlocker(t *testing.T) {
	for prefix, r := range diffRules() {
		testDifferentialIndexVsBatchBlocker(t, prefix, r)
	}
}

func testDifferentialIndexVsBatchBlocker(t *testing.T, prefix string, r *rule.Rule) {
	k, bounded := diffBound(t, prefix, r)
	for name, bl := range diffStrategies() {
		for _, maxBlock := range []int{0, 6} {
			t.Run(fmt.Sprintf("%s%s/cap=%d", prefix, name, maxBlock), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))*1000 + int64(maxBlock)))
				ix := linkindex.New(r, matching.Options{Blocker: bl, MaxBlockSize: maxBlock})
				survivors := make(map[string]*entity.Entity)
				nextID := 0

				checkProbe := func(probe *entity.Entity) {
					t.Helper()
					got := idsOf(ix.Candidates(probe))
					// Under the edit bound every survivor is scored.
					want, scoredIDs := withinBound(probe, survivors, k), othersThan(probe.ID, survivors)
					if !bounded {
						want = batchCandidates(bl, probe, survivors, maxBlock)
						scoredIDs = want
					}
					if !equalIDs(got, want) {
						t.Fatalf("probe %s: incremental candidates diverge from the reference (edit bound: %v)\n got: %v\nwant: %v\ncorpus: %d entities",
							probe.ID, bounded, got, want, len(survivors))
					}
					// Query must equal batch-scoring the same candidates with
					// the interpreted rule.
					gotLinks := ix.Query(probe, 5)
					type scored struct {
						id    string
						score float64
					}
					var wantScored []scored
					for _, id := range scoredIDs {
						if s := r.Evaluate(probe, survivors[id]); s >= rule.MatchThreshold {
							wantScored = append(wantScored, scored{id, s})
						}
					}
					sort.Slice(wantScored, func(i, j int) bool {
						if wantScored[i].score != wantScored[j].score {
							return wantScored[i].score > wantScored[j].score
						}
						return wantScored[i].id < wantScored[j].id
					})
					if len(wantScored) > 5 {
						wantScored = wantScored[:5]
					}
					if len(gotLinks) != len(wantScored) {
						t.Fatalf("probe %s: Query returned %d links, batch scoring %d\n got: %v\nwant: %v",
							probe.ID, len(gotLinks), len(wantScored), gotLinks, wantScored)
					}
					for i, l := range gotLinks {
						if l.BID != wantScored[i].id || l.Score != wantScored[i].score {
							t.Fatalf("probe %s: Query[%d] = %+v, want %+v", probe.ID, i, l, wantScored[i])
						}
					}
				}

				for op := 0; op < 90; op++ {
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
					if err := ix.CheckShardCounts(); err != nil {
						t.Fatal(err)
					}

					if op%6 != 0 {
						continue
					}
					// Probe with surviving entities (indexed probes, the
					// QueryID path) and with external entities — including
					// one whose ID collides with a survivor.
					ids = sortedIDsOfMap(survivors)
					if len(ids) > 0 {
						checkProbe(survivors[ids[rng.Intn(len(ids))]])
						collider := diffEntity(rng, ids[rng.Intn(len(ids))])
						checkProbe(collider)
					}
					checkProbe(diffEntity(rng, "external-probe"))
				}
			})
		}
	}
}

func sortedIDsOfMap(m map[string]*entity.Entity) []string {
	set := make(map[string]struct{}, len(m))
	for id := range m {
		set[id] = struct{}{}
	}
	return sortedIDs(set)
}

// TestDifferentialQueryIDVsBatch pins the QueryID path (stored probe)
// against batch blocking + interpreted scoring on a larger corpus in one
// final state, for every strategy; under an edit bound, against
// interpreted scoring of every other stored entity.
func TestDifferentialQueryIDVsBatch(t *testing.T) {
	for prefix, r := range diffRules() {
		testDifferentialQueryIDVsBatch(t, prefix, r)
	}
}

func testDifferentialQueryIDVsBatch(t *testing.T, prefix string, r *rule.Rule) {
	_, bounded := diffBound(t, prefix, r)
	rng := rand.New(rand.NewSource(99))
	var corpus []*entity.Entity
	for i := 0; i < 120; i++ {
		corpus = append(corpus, diffEntity(rng, fmt.Sprintf("c%d", i)))
	}
	for name, bl := range diffStrategies() {
		t.Run(prefix+name, func(t *testing.T) {
			ix := linkindex.New(r, matching.Options{Blocker: bl})
			ix.BulkLoad(corpus)
			survivors := make(map[string]*entity.Entity, len(corpus))
			for _, e := range corpus {
				survivors[e.ID] = e
			}
			for i := 0; i < 120; i += 13 {
				probe := corpus[i]
				links, ok := ix.QueryID(probe.ID, 0)
				if !ok {
					t.Fatalf("QueryID(%s) reported unknown", probe.ID)
				}
				want := othersThan(probe.ID, survivors)
				if !bounded {
					want = batchCandidates(bl, probe, survivors, 0)
				}
				matched := make(map[string]struct{})
				for _, id := range want {
					if r.Evaluate(probe, survivors[id]) >= rule.MatchThreshold {
						matched[id] = struct{}{}
					}
				}
				gotSet := make(map[string]struct{})
				for _, l := range links {
					gotSet[l.BID] = struct{}{}
				}
				if !equalIDs(sortedIDs(gotSet), sortedIDs(matched)) {
					t.Fatalf("QueryID(%s) links %v, batch scoring wants %v",
						probe.ID, sortedIDs(gotSet), sortedIDs(matched))
				}
			}
		})
	}
}
