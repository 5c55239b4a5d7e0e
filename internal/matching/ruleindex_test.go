package matching

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/evalengine"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// at returns the values recorded at slot s.
func (iv *indexedValues) at(s int32) []string { return iv.edit(s).Values }

// TestRuleIndexVerifiedDifferential holds the rule index, as
// NewCandidateSource serves a rule with an edit bound, to a reference
// over the survivors through batched adds, replacements and removals.
// After every write each live slot holds its record's indexed values and
// each free slot the empty set, and for every survivor and an external
// probe, For's enumeration yields exactly the survivors but the probe
// whose values are within K edits of the probe's under the plain
// measure, each once — none when the probe's bound misses the threshold.
func TestRuleIndexVerifiedDifferential(t *testing.T) {
	lower := func(p string) rule.ValueOp { return rule.NewTransform(transform.LowerCase(), rule.NewProperty(p)) }
	r := rule.New(rule.NewAggregation(rule.Min(),
		rule.NewComparison(lower("name"), lower("name"), similarity.Levenshtein(), 4),
		rule.NewComparison(rule.NewProperty("title"), rule.NewProperty("title"), similarity.Jaccard(), 0.9)))
	c := evalengine.Compile(r)
	opts := Options{Threshold: rule.MatchThreshold, Blocker: TokenBlocking()}
	src := NewCandidateSource(c, opts)
	eb, ok := c.EditBound(opts.Threshold)
	if !ok || eb.K != 2 || src.String() != "rule index (levenshtein ≤ 2, verified)" {
		t.Fatalf("source %s, edit bound K = %d, %v; want the rule index at K = 2", src, eb.K, ok)
	}
	x := src.NewIndex().(*RuleIndex)
	survivors := make(map[string]*evalengine.Record)
	add := func(es []*entity.Entity) {
		recs := make([]*evalengine.Record, len(es))
		for i, e := range es {
			recs[i] = c.Record(e)
			survivors[e.ID] = recs[i]
		}
		x.BulkAdd(nil, recs, src.StoredKeys(recs))
	}
	remove := func(ids []string) {
		for _, id := range ids {
			delete(survivors, id)
		}
		x.BulkRemove(ids)
	}
	lev := similarity.Levenshtein()
	check := func(external *entity.Entity) {
		t.Helper()
		if x.Len() != len(survivors) || len(x.indexed.one) != int(x.slots) || len(x.indexed.many) != int(x.slots) {
			t.Fatalf("%d entities, %d slots, %d and %d indexed value sets; want %d entities", x.Len(), x.slots, len(x.indexed.one), len(x.indexed.many), len(survivors))
		}
		idAt := make(map[int32]string, len(survivors))
		for id, rec := range survivors {
			s, ok := x.Slot(id)
			if !ok {
				t.Fatalf("%s is not indexed", id)
			}
			idAt[s] = id
			if got, want := x.indexed.at(s), eb.Indexed(rec); !slices.Equal(got, want) {
				t.Fatalf("slot %d holds indexed values %q, its record %q", s, got, want)
			}
		}
		for s := range x.slots {
			if _, live := idAt[s]; !live && len(x.indexed.at(s)) != 0 {
				t.Fatalf("free slot %d holds indexed values %q", s, x.indexed.at(s))
			}
		}
		probes := []*evalengine.Record{c.Record(external)}
		for _, id := range sortedKeys(survivors) {
			probes = append(probes, survivors[id])
		}
		for _, p := range probes {
			want := make(map[string]struct{})
			if c.Bind(p).Upper() >= opts.Threshold {
				for id, rec := range survivors {
					if id != p.ID() && lev.Distance(eb.Probe(p), eb.Indexed(rec)) <= float64(eb.K) {
						want[id] = struct{}{}
					}
				}
			}
			got := make(map[string]struct{})
			x.For(p, src.ProbeKeys(p)).Each(nil, 0, new(SlotSet), func(s int32) bool {
				if _, dup := got[idAt[s]]; dup {
					t.Fatalf("probe %s: %s yielded twice", p.ID(), idAt[s])
				}
				got[idAt[s]] = struct{}{}
				return true
			})
			if g, w := sortedIDs(got), sortedIDs(want); !slices.Equal(g, w) {
				t.Fatalf("probe %s: enumeration diverges from the survivors within K\n got: %v\nwant: %v", p.ID(), g, w)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	nextID := 0
	for op := 0; op < 120; op++ {
		ids := sortedKeys(survivors)
		switch {
		case len(ids) == 0 || rng.Float64() < 0.45:
			var batch []*entity.Entity
			for range 1 + rng.Intn(4) {
				batch = append(batch, diffEntity(rng, fmt.Sprintf("e%d", nextID)))
				nextID++
			}
			add(batch)
		case rng.Float64() < 0.5:
			id := ids[rng.Intn(len(ids))]
			remove([]string{id, id, "unknown"}) // a repeat and an unknown ID are skipped
			add([]*entity.Entity{diffEntity(rng, id)})
		default:
			remove([]string{ids[rng.Intn(len(ids))]})
		}
		check(diffEntity(rng, "external"))
	}
	remove(sortedKeys(survivors))
	if x.Len() != 0 || x.Keys() != 0 {
		t.Fatalf("emptied index holds %d entities and %d keys", x.Len(), x.Keys())
	}
}
