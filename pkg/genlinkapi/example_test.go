package genlinkapi_test

import (
	"fmt"
	"os"

	"genlink/pkg/genlinkapi"
)

// Example walks the full workflow: build two sources under different
// schemas, resolve reference links, learn a linkage rule, evaluate it and
// execute it over the whole sources.
func Example() {
	a := genlinkapi.NewSource("crm")
	b := genlinkapi.NewSource("billing")
	people := []struct{ name, email string }{
		{"Alice Anderson", "alice@example.org"},
		{"Bob Baker", "bob@example.org"},
		{"Carol Clark", "carol@example.org"},
		{"Dan Dorsey", "dan@example.org"},
	}
	var links []genlinkapi.Link
	for i, p := range people {
		ea := genlinkapi.NewEntity(fmt.Sprintf("crm/%d", i))
		ea.Add("name", p.name)
		ea.Add("mail", p.email)
		a.Add(ea)
		eb := genlinkapi.NewEntity(fmt.Sprintf("billing/%d", i))
		eb.Add("fullName", p.name)
		eb.Add("contact", p.email)
		b.Add(eb)
		links = append(links, genlinkapi.Link{AID: ea.ID, BID: eb.ID, Match: true})
		// A negative link: everyone is distinct from their neighbor.
		links = append(links, genlinkapi.Link{
			AID: ea.ID, BID: fmt.Sprintf("billing/%d", (i+1)%len(people)), Match: false,
		})
	}
	refs, err := genlinkapi.Resolve(a, b, links)
	if err != nil {
		panic(err)
	}

	cfg := genlinkapi.DefaultConfig()
	cfg.PopulationSize = 50
	cfg.MaxIterations = 10
	cfg.Seed = 7
	result, err := genlinkapi.Learn(cfg, refs)
	if err != nil {
		panic(err)
	}

	conf := genlinkapi.Evaluate(result.Best, refs)
	fmt.Println("training F1 = 1:", conf.FMeasure() == 1)

	matched := genlinkapi.FilterOneToOne(
		genlinkapi.Match(result.Best, a, b, genlinkapi.MatchOptions{}))
	correct := 0
	for _, l := range matched {
		if l.AID[len("crm/"):] == l.BID[len("billing/"):] {
			correct++
		}
	}
	fmt.Printf("one-to-one links: %d, correct: %d\n", len(matched), correct)
	// Output:
	// training F1 = 1: true
	// one-to-one links: 4, correct: 4
}

// ExampleMatch executes a hand-written rule (parsed from its JSON
// serialization) over two sources, no learning involved. The two labels
// differ by a typo, so no whole token is shared and the default token
// blocking would never propose the pair — q-gram blocking does.
func ExampleMatch() {
	ruleJSON := `{
	  "kind": "comparison", "function": "levenshtein", "threshold": 2,
	  "children": [
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "label"}]},
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "name"}]}
	  ]}`
	r, err := genlinkapi.ParseRuleJSON([]byte(ruleJSON))
	if err != nil {
		panic(err)
	}
	a := genlinkapi.NewSource("a")
	berlin := genlinkapi.NewEntity("a/berlin")
	berlin.Add("label", "Berlin")
	a.Add(berlin)
	b := genlinkapi.NewSource("b")
	berlim := genlinkapi.NewEntity("b/berlim") // one edit away
	berlim.Add("name", "berlim")
	b.Add(berlim)
	opts := genlinkapi.MatchOptions{Blocker: genlinkapi.QGramBlocking(3)}
	for _, l := range genlinkapi.Match(r, a, b, opts) {
		fmt.Printf("%s -> %s (%.2f)\n", l.AID, l.BID, l.Score)
	}
	// Output:
	// a/berlin -> b/berlim (0.50)
}

// ExampleMultiPass compares how many candidate pairs each blocking
// strategy proposes before any rule is evaluated.
func ExampleMultiPass() {
	a := genlinkapi.NewSource("a")
	b := genlinkapi.NewSource("b")
	for i := 0; i < 4; i++ {
		ea := genlinkapi.NewEntity(fmt.Sprintf("a/%d", i))
		ea.Add("label", fmt.Sprintf("item number%d", i))
		a.Add(ea)
		eb := genlinkapi.NewEntity(fmt.Sprintf("b/%d", i))
		eb.Add("label", fmt.Sprintf("item number%d", i))
		b.Add(eb)
	}
	// MaxBlockSize -1 disables stop-token suppression: the shared "item"
	// token makes token blocking propose the full cross product.
	opts := genlinkapi.MatchOptions{MaxBlockSize: -1}
	for _, bl := range []genlinkapi.Blocker{
		genlinkapi.TokenBlocking(),
		genlinkapi.SortedNeighborhood(1),
		genlinkapi.MultiPass(genlinkapi.TokenBlocking(), genlinkapi.SortedNeighborhood(1)),
	} {
		pairs := genlinkapi.CandidatePairs(bl, a, b, opts)
		fmt.Printf("%s: %d pairs\n", bl.Name(), len(pairs))
	}
	// Output:
	// token: 16 pairs
	// sortedneighborhood(w=1): 7 pairs
	// multipass(token+sortedneighborhood(w=1)): 16 pairs
}

// ExampleFilterOneToOne reduces scored links to a one-to-one matching.
func ExampleFilterOneToOne() {
	links := []genlinkapi.MatchedLink{
		{AID: "a1", BID: "b1", Score: 0.9},
		{AID: "a1", BID: "b2", Score: 0.8},
		{AID: "a2", BID: "b1", Score: 0.7},
	}
	for _, l := range genlinkapi.FilterOneToOne(links) {
		fmt.Printf("%s -> %s\n", l.AID, l.BID)
	}
	// Output:
	// a1 -> b1
}

// ExampleDatasetNames lists the paper's six synthetic evaluation datasets.
func ExampleDatasetNames() {
	for _, name := range genlinkapi.DatasetNames() {
		fmt.Println(name)
	}
	// Output:
	// Cora
	// Restaurant
	// SiderDrugBank
	// NYT
	// LinkedMDB
	// DBpediaDrugBank
}

// ExampleNewEvalEngine shows engine-backed learning and evaluation: the
// learner always scores populations through the compiled evaluation
// engine (Config.Workers bounds its parallelism), and a standalone engine
// memoizes across repeated evaluations of related rules — here the
// learned committee — against one link set.
func ExampleNewEvalEngine() {
	ds := genlinkapi.Dataset("LinkedMDB", 1)

	cfg := genlinkapi.DefaultConfig()
	cfg.PopulationSize = 60
	cfg.MaxIterations = 10
	cfg.Seed = 3

	result, err := genlinkapi.Learn(cfg, ds.Refs)
	if err != nil {
		panic(err)
	}

	// Score the whole learned committee through one shared engine: rules
	// that reuse subtrees of the best rule hit its caches.
	eng := genlinkapi.NewEvalEngine(ds.Refs, genlinkapi.EngineOptions{})
	strong := 0
	for _, r := range result.TopRules {
		conf := genlinkapi.Confusion(eng.Evaluate(r))
		if conf.FMeasure() >= 0.9 {
			strong++
		}
	}
	fmt.Println("best rule F1 ≥ 0.95:", genlinkapi.Confusion(eng.Evaluate(result.Best)).FMeasure() >= 0.95)
	fmt.Println("committee has a strong rule:", strong >= 1)

	// A one-off Evaluate builds a throwaway engine; it agrees with the
	// shared one.
	fmt.Println("Evaluate ≡ shared engine:",
		genlinkapi.Evaluate(result.Best, ds.Refs) == genlinkapi.Confusion(eng.Evaluate(result.Best)))
	// Output:
	// best rule F1 ≥ 0.95: true
	// committee has a strong rule: true
	// Evaluate ≡ shared engine: true
}

// ExampleNewIndex serves a linkage rule online: entities are added,
// updated and removed one at a time, and each Query matches a probe
// against the current corpus without re-blocking anything — the
// service-mode counterpart of Match (cmd/genlinkd wraps this in HTTP).
func ExampleNewIndex() {
	ruleJSON := `{
	  "kind": "comparison", "function": "levenshtein", "threshold": 2,
	  "children": [
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "name"}]},
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "name"}]}
	  ]
	}`
	r, err := genlinkapi.ParseRuleJSON([]byte(ruleJSON))
	if err != nil {
		panic(err)
	}

	// Q-gram blocking keeps typo'd duplicates reachable; the zero options
	// otherwise mean token blocking and the default match threshold.
	ix := genlinkapi.NewIndex(r, genlinkapi.MatchOptions{
		Blocker: genlinkapi.QGramBlocking(0),
	})

	add := func(id, name string) {
		e := genlinkapi.NewEntity(id)
		e.Add("name", name)
		ix.Add(e)
	}
	add("p1", "Grace Hopper")
	add("p2", "Grace Hoper") // a typo'd duplicate
	add("p3", "Alan Turing")

	// Match a stored entity against the rest of the corpus.
	links, _ := ix.QueryID("p1", 3)
	for _, l := range links {
		fmt.Printf("%s matches %s (score %.2f)\n", l.AID, l.BID, l.Score)
	}

	// Updates take effect immediately: fix the typo, then re-query.
	fixed := genlinkapi.NewEntity("p2")
	fixed.Add("name", "Grace Hopper")
	ix.Update(fixed)
	links, _ = ix.QueryID("p1", 3)
	fmt.Printf("after update: top score %.2f\n", links[0].Score)

	// Removal, too.
	ix.Remove("p2")
	links, _ = ix.QueryID("p1", 3)
	fmt.Println("after removal:", len(links), "matches, corpus size", ix.Len())
	// Output:
	// p1 matches p2 (score 0.50)
	// after update: top score 1.00
	// after removal: 0 matches, corpus size 2
}

// ExampleNewShardedIndex scales the online index: the corpus is
// hash-partitioned over shards (one per two CPUs) that are written and
// queried independently, and writes arrive in batches through Apply.
// ExampleOpenDurableIndex shows how the index persists.
func ExampleNewShardedIndex() {
	ruleJSON := `{
	  "kind": "comparison", "function": "levenshtein", "threshold": 2,
	  "children": [
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "name"}]},
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "name"}]}
	  ]
	}`
	r, err := genlinkapi.ParseRuleJSON([]byte(ruleJSON))
	if err != nil {
		panic(err)
	}

	// Token blocking is partition-invariant, so queries answer exactly
	// like a single-shard index whatever the host's shard count.
	ix := genlinkapi.NewShardedIndex(r, genlinkapi.MatchOptions{
		Blocker: genlinkapi.TokenBlocking(),
	})

	ent := func(id, name string) *genlinkapi.Entity {
		e := genlinkapi.NewEntity(id)
		e.Add("name", name)
		return e
	}
	// One batch through the write pipeline: each shard locks once,
	// deletes beat same-ID upserts, the last upsert of an ID wins.
	res := ix.Apply(genlinkapi.IndexBatch{
		Upserts: []*genlinkapi.Entity{
			ent("p1", "Grace Hopper"),
			ent("p2", "grace hopper"),
			ent("p3", "Alan Turing"),
		},
	})
	fmt.Printf("applied %d upserts, %d deletes; %d entities\n",
		res.Upserted, res.Deleted, ix.Len())

	links, _ := ix.QueryID("p1", 3)
	for _, l := range links {
		fmt.Printf("%s matches %s (score %.2f)\n", l.AID, l.BID, l.Score)
	}

	// Output:
	// applied 3 upserts, 0 deletes; 3 entities
	// p1 matches p2 (score 1.00)
}

// ExampleOpenDurableIndex makes the index crash-safe: every mutation is
// write-ahead logged before it is applied, so a restart (or a crash)
// recovers the exact acknowledged state from the newest snapshot plus
// the log tail — build runs only on first boot.
func ExampleOpenDurableIndex() {
	ruleJSON := `{
	  "kind": "comparison", "function": "levenshtein", "threshold": 2,
	  "children": [
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "name"}]},
	    {"kind": "transform", "function": "lowerCase",
	     "children": [{"kind": "property", "property": "name"}]}
	  ]
	}`
	r, err := genlinkapi.ParseRuleJSON([]byte(ruleJSON))
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "genlink-durable-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	build := func() (*genlinkapi.Index, error) {
		return genlinkapi.NewShardedIndex(r, genlinkapi.MatchOptions{
			Blocker: genlinkapi.TokenBlocking(),
		}), nil
	}
	opts := genlinkapi.DurableIndexOptions{Fsync: genlinkapi.FsyncBatch}

	// First boot: no durable state yet, build constructs the index.
	d, stats, err := genlinkapi.OpenDurableIndex(dir, build, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("first boot recovered:", stats.Recovered)
	ent := func(id, name string) *genlinkapi.Entity {
		e := genlinkapi.NewEntity(id)
		e.Add("name", name)
		return e
	}
	// Acknowledged means durable under FsyncBatch: the batch is fsynced
	// to the log before Apply returns.
	if _, err := d.Apply(genlinkapi.IndexBatch{Upserts: []*genlinkapi.Entity{
		ent("p1", "Grace Hopper"),
		ent("p2", "grace hopper"),
		ent("p3", "Alan Turing"),
	}}); err != nil {
		panic(err)
	}
	if _, err := d.Apply(genlinkapi.IndexBatch{Deletes: []string{"p3"}}); err != nil {
		panic(err)
	}
	if err := d.Close(); err != nil {
		panic(err)
	}

	// Restart: the state comes back from snapshot + log replay.
	d, stats, err = genlinkapi.OpenDurableIndex(dir, build, opts)
	if err != nil {
		panic(err)
	}
	defer d.Close()
	fmt.Printf("restart recovered: %v (%d log records replayed)\n",
		stats.Recovered, stats.RecordsReplayed)
	links, _ := d.Index().QueryID("p1", 3)
	fmt.Printf("%d entities survive; p1 matches %s (score %.2f)\n",
		d.Len(), links[0].BID, links[0].Score)
	// Output:
	// first boot recovered: false
	// restart recovered: true (2 log records replayed)
	// 2 entities survive; p1 matches p2 (score 1.00)
}
