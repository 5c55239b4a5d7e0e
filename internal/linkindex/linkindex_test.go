package linkindex_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// testRule compares lowercased names by levenshtein and titles by
// jaccard — shaped like a learned rule (transform chain + two
// comparisons under max).
func testRule() *rule.Rule {
	name := rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		similarity.Levenshtein(), 2)
	title := rule.NewComparison(
		rule.NewProperty("title"), rule.NewProperty("title"),
		similarity.Jaccard(), 0.8)
	return rule.New(rule.NewAggregation(rule.Max(), name, title))
}

func ent(id, name, title string) *entity.Entity {
	e := entity.New(id)
	if name != "" {
		e.Add("name", name)
	}
	if title != "" {
		e.Add("title", title)
	}
	return e
}

func TestIndexAddQueryRemove(t *testing.T) {
	ix := linkindex.New(testRule(), matching.Options{})
	ix.Add(ent("b1", "Grace Hopper", "compilers"))
	ix.Add(ent("b2", "grace hoper", "compilers"))
	ix.Add(ent("b3", "Alan Turing", "computability"))

	probe := ent("q", "Grace Hopper", "compilers")
	links := ix.Query(probe, 0)
	if len(links) != 2 {
		t.Fatalf("Query returned %d links, want 2: %v", len(links), links)
	}
	if links[0].BID != "b1" || links[0].Score != 1 {
		t.Fatalf("top link = %+v, want b1 score 1", links[0])
	}
	if links[1].BID != "b2" {
		t.Fatalf("second link = %+v, want b2", links[1])
	}
	for _, l := range links {
		if l.AID != "q" {
			t.Fatalf("link AID = %q, want probe id", l.AID)
		}
	}

	// Top-k truncation.
	if got := ix.Query(probe, 1); len(got) != 1 || got[0].BID != "b1" {
		t.Fatalf("Query k=1 = %v, want just b1", got)
	}

	// Removal takes effect immediately.
	if !ix.Remove("b1") {
		t.Fatal("Remove(b1) reported not present")
	}
	if ix.Remove("b1") {
		t.Fatal("second Remove(b1) reported present")
	}
	links = ix.Query(probe, 0)
	if len(links) != 1 || links[0].BID != "b2" {
		t.Fatalf("after removal Query = %v, want just b2", links)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

func TestQueryIDExcludesSelf(t *testing.T) {
	ix := linkindex.New(testRule(), matching.Options{})
	ix.BulkLoad([]*entity.Entity{
		ent("a", "John Smith", "networks"),
		ent("b", "John Smith", "networks"),
		ent("c", "Ada Lovelace", "notes"),
	})
	links, ok := ix.QueryID("a", 0)
	if !ok {
		t.Fatal("QueryID(a) reported unknown")
	}
	if len(links) != 1 || links[0].BID != "b" || links[0].AID != "a" {
		t.Fatalf("QueryID(a) = %v, want the single link a→b", links)
	}
	if _, ok := ix.QueryID("nope", 0); ok {
		t.Fatal("QueryID(nope) reported known")
	}
}

// TestUpdateInvalidatesScores pins that an update replaces the entity's
// scoring record: an update that changes an entity's values must change
// query results immediately (a record kept from the old version would
// keep the old match).
func TestUpdateInvalidatesScores(t *testing.T) {
	for name, update := range map[string]func(ix *linkindex.Index){
		"fresh-pointer": func(ix *linkindex.Index) {
			ix.Update(ent("b1", "zzzz qqqq", "xxxxxxx"))
		},
		// Mutating a stored entity is only legal without concurrent
		// queries (here: single-threaded); the index must still re-key
		// and rebuild the record when handed the same pointer.
		"mutated-in-place": func(ix *linkindex.Index) {
			stored := ix.Get("b1")
			stored.Set("name", "zzzz qqqq")
			stored.Set("title", "xxxxxxx")
			ix.Update(stored)
		},
	} {
		t.Run(name, func(t *testing.T) {
			ix := linkindex.New(testRule(), matching.Options{})
			ix.Add(ent("b1", "Grace Hopper", "compilers"))
			probe := ent("q", "Grace Hopper", "compilers")
			if links := ix.Query(probe, 0); len(links) != 1 {
				t.Fatalf("before update Query = %v, want one link", links)
			}
			update(ix)
			if links := ix.Query(probe, 0); len(links) != 0 {
				t.Fatalf("after update Query = %v, want none", links)
			}
			// And back: the new version must be queryable too.
			ix.Update(ent("b1", "grace hopper", "compilers"))
			if links := ix.Query(probe, 0); len(links) != 1 {
				t.Fatalf("after second update Query = %v, want one link", links)
			}
		})
	}
}

func TestBulkLoadAndStats(t *testing.T) {
	ix := linkindex.New(testRule(), matching.Options{Blocker: matching.MultiPass()})
	var es []*entity.Entity
	for i := 0; i < 20; i++ {
		es = append(es, ent(fmt.Sprintf("e%d", i), fmt.Sprintf("name %d", i), "shared title"))
	}
	if n := ix.BulkLoad(es); n != 20 {
		t.Fatalf("BulkLoad = %d, want 20", n)
	}
	st := ix.Stats()
	if st.Entities != 20 {
		t.Fatalf("Stats.Entities = %d, want 20", st.Entities)
	}
	if st.Keys == 0 {
		t.Fatal("Stats.Keys = 0, want > 0")
	}
	if st.Blocker != matching.MultiPass().Name() {
		t.Fatalf("Stats.Blocker = %q", st.Blocker)
	}
	if st.Threshold != rule.MatchThreshold {
		t.Fatalf("Stats.Threshold = %v, want default %v", st.Threshold, rule.MatchThreshold)
	}
	got := ix.Entities()
	if len(got) != 20 {
		t.Fatalf("Entities() returned %d, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Fatalf("Entities() not sorted: %q before %q", got[i-1].ID, got[i].ID)
		}
	}
}

// TestBulkLoadReplacement pins BulkLoad's upsert semantics on both slow
// paths: IDs already indexed and IDs repeated within one batch (later
// occurrence wins), with the sorted-neighborhood bulk path in the mix.
func TestBulkLoadReplacement(t *testing.T) {
	ix := linkindex.New(testRule(), matching.Options{Blocker: matching.MultiPass()})
	ix.Add(ent("dup", "old value", "old title"))
	n := ix.BulkLoad([]*entity.Entity{
		ent("dup", "intermediate", "title"),
		ent("x", "Grace Hopper", "compilers"),
		ent("dup", "grace hopper", "compilers"),
	})
	if n != 2 {
		t.Fatalf("BulkLoad = %d, want 2 distinct entities applied", n)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dup replaced twice)", ix.Len())
	}
	if got := ix.Get("dup").Values("name"); len(got) != 1 || got[0] != "grace hopper" {
		t.Fatalf("dup = %v, want the last batch occurrence", got)
	}
	links, _ := ix.QueryID("x", 0)
	if len(links) != 1 || links[0].BID != "dup" {
		t.Fatalf("QueryID(x) = %v, want the replaced dup to match", links)
	}
}

// TestConcurrentQueriesDuringUpdates hammers one index from writer and
// reader goroutines; with -race it pins the locking discipline, and the
// result invariants (no self link, no duplicate candidate, descending
// scores, threshold respected) must hold for every snapshot a reader
// observes.
func TestConcurrentQueriesDuringUpdates(t *testing.T) {
	ix := linkindex.New(testRule(), matching.Options{Blocker: matching.MultiPass()})
	for i := 0; i < 50; i++ {
		ix.Add(ent(fmt.Sprintf("e%d", i), fmt.Sprintf("name %d", i%17), "shared title words"))
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("e%d", rng.Intn(60))
				switch rng.Intn(3) {
				case 0:
					ix.Add(ent(id, fmt.Sprintf("name %d", rng.Intn(17)), "shared title words"))
				case 1:
					ix.Update(ent(id, fmt.Sprintf("other %d", rng.Intn(17)), "different words"))
				case 2:
					ix.Remove(id)
				}
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 300; i++ {
				probe := ent(fmt.Sprintf("e%d", rng.Intn(60)), fmt.Sprintf("name %d", rng.Intn(17)), "shared title words")
				links := ix.Query(probe, 10)
				seen := make(map[string]bool)
				for j, l := range links {
					if l.BID == probe.ID {
						t.Errorf("self link in query result: %+v", l)
					}
					if seen[l.BID] {
						t.Errorf("duplicate candidate %q in one result", l.BID)
					}
					seen[l.BID] = true
					if l.Score < rule.MatchThreshold {
						t.Errorf("link below threshold: %+v", l)
					}
					if j > 0 && links[j-1].Score < l.Score {
						t.Errorf("scores not descending: %v", links)
					}
				}
				ix.Stats()
			}
		}(int64(r))
	}
	// Writers loop until the bounded readers finish, so every read runs
	// against live mutation.
	readers.Wait()
	close(stop)
	writers.Wait()
}
