// Command blocking demonstrates the pluggable blocking subsystem: the
// same linkage rule executed under every candidate-generation strategy,
// with the candidate counts and surviving links printed side by side.
//
// The synthetic sources are built to stress the strategies differently: a
// shared stop word inflates token blocks, typos break whole-token
// agreement (q-grams survive), and a multi-pass composite recovers the
// union at a fraction of the cartesian cost.
package main

import (
	"fmt"
	"log"

	"genlink/pkg/genlinkapi"
)

// ruleJSON compares titles to names by normalized Levenshtein, which
// bounds no edit distance, so each blocker's candidates decide its links.
// Match serves a rule that has an edit bound (a plain levenshtein) from
// its rule index instead, and every row would read the same.
const ruleJSON = `{
  "kind": "comparison", "function": "normLevenshtein", "threshold": 0.2,
  "children": [
    {"kind": "transform", "function": "lowerCase",
     "children": [{"kind": "property", "property": "title"}]},
    {"kind": "transform", "function": "lowerCase",
     "children": [{"kind": "property", "property": "name"}]}
  ]}`

func main() {
	titles := []string{
		"Learning Expressive Linkage Rules",
		"Efficient Multidimensional Blocking",
		"Active Learning of Link Specifications",
		"Silk Link Discovery Framework",
		"Genetic Programming for Record Linkage",
		"Scaling Entity Resolution",
	}
	a := genlinkapi.NewSource("catalog")
	b := genlinkapi.NewSource("library")
	for i, title := range titles {
		ea := genlinkapi.NewEntity(fmt.Sprintf("catalog/%d", i))
		ea.Add("title", "the "+title)
		a.Add(ea)
		eb := genlinkapi.NewEntity(fmt.Sprintf("library/%d", i))
		// The library copy drops a character somewhere past the first
		// word: a typo per title, plus the shared "the" stop word.
		noisy := "the " + title[:4] + title[5:]
		eb.Add("name", noisy)
		b.Add(eb)
	}

	r, err := genlinkapi.ParseRuleJSON([]byte(ruleJSON))
	if err != nil {
		log.Fatal(err)
	}

	blockers := []genlinkapi.Blocker{
		genlinkapi.TokenBlocking(),
		genlinkapi.SortedNeighborhood(3),
		genlinkapi.QGramBlocking(3),
		genlinkapi.MultiPass(),
	}
	opts := genlinkapi.MatchOptions{MaxBlockSize: len(titles) - 1}
	cartesian := len(titles) * len(titles)
	fmt.Printf("%d×%d sources → %d cartesian pairs\n\n", len(titles), len(titles), cartesian)
	for _, bl := range blockers {
		pairs := genlinkapi.CandidatePairs(bl, a, b, opts)
		o := opts
		o.Blocker = bl
		links := genlinkapi.MatchParallel(r, a, b, o, 0)
		fmt.Printf("%-60s %2d candidates  %d links\n",
			bl.Name(), len(pairs), len(links))
	}

	fmt.Println("\nLinks under the multi-pass blocker:")
	o := opts
	o.Blocker = genlinkapi.MultiPass()
	for _, l := range genlinkapi.FilterOneToOne(genlinkapi.MatchParallel(r, a, b, o, 0)) {
		fmt.Printf("  %s ↔ %s (score %.2f)\n", l.AID, l.BID, l.Score)
	}
}
