package linkindex_test

import (
	"fmt"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
)

// FuzzCandidateStream drives the BlockIndex.Each contract with a mutated
// op script: random corpus writes interleaved with enumerations whose
// yield returns false after a budget of n candidates. The invariants:
// never panic, one enumeration never yields the same candidate ID twice,
// nothing is yielded after yield returned false, the completion flag is
// false exactly when yield returned false (eachIDs checks those three),
// a stopped enumeration yields min(n, |Candidates|) members of
// Candidates, and a full one yields exactly the materialized Candidates
// set, which is the batch blocker's. The former "resume a cursor after
// the corpus changed under it" schedule is gone with the cursor: Each
// runs to completion inside one call, so no state outlives a write.
func FuzzCandidateStream(f *testing.F) {
	f.Add([]byte{0, 7, 13, 2, 19, 3, 22, 4, 9, 5, 1, 3, 17}, uint8(0), uint8(1))
	f.Add([]byte{6, 6, 6, 3, 2, 4, 4, 4, 0, 3, 4, 5, 4}, uint8(3), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, script []byte, stratSel, capSel uint8) {
		strategies := []matching.Blocker{
			matching.TokenBlocking(),
			matching.QGramBlocking(2),
			matching.SortedNeighborhood(3),
			matching.MultiPass(matching.TokenBlocking(), matching.SortedNeighborhood(3), matching.QGramBlocking(0)),
			opaqueBlocker{matching.TokenBlocking()},
		}
		bl := strategies[int(stratSel)%len(strategies)]
		maxBlock := []int{-1, 0, 2, 5}[int(capSel)%4]
		bi := linkindex.NewBlockIndex(bl)
		survivors := make(map[string]*entity.Entity)

		// enumerate checks one Each against Candidates; budget < 0 runs it
		// to completion.
		enumerate := func(probe *entity.Entity, budget int) []string {
			want := idsOf(bi.Candidates(probe, maxBlock))
			got := eachIDs(t, bi, probe, maxBlock, budget)
			if budget < 0 || budget > len(want) {
				budget = len(want)
			}
			if len(got) != budget {
				t.Fatalf("probe %s: %d candidates enumerated, want %d of %v", probe.ID, len(got), budget, want)
			}
			in := make(map[string]struct{}, len(want))
			for _, id := range want {
				in[id] = struct{}{}
			}
			for _, id := range got {
				if _, ok := in[id]; !ok {
					t.Fatalf("probe %s: enumerated %s, not among the materialized %v", probe.ID, id, want)
				}
			}
			return got
		}

		if len(script) > 300 {
			script = script[:300]
		}
		for i := 0; i < len(script); i++ {
			op := script[i]
			arg := byte(0)
			if i+1 < len(script) {
				i++
				arg = script[i]
			}
			id := fmt.Sprintf("e%d", int(arg)%8)
			switch op % 6 {
			case 0, 1: // add or replace
				if old, ok := survivors[id]; ok {
					bi.Remove(old)
				}
				e := fuzzStreamEntity(id, arg)
				bi.Add(e)
				survivors[id] = e
			case 2: // remove
				if old, ok := survivors[id]; ok {
					bi.Remove(old)
					delete(survivors, id)
				}
			default: // enumerate (indexed or external probe): 3 in full, 4 and 5 stopped early
				probe := fuzzStreamEntity(id, arg)
				if e, ok := survivors[id]; ok && arg%2 == 0 {
					probe = e
				}
				budget := -1
				if op%6 != 3 {
					budget = 1 + int(arg)%4
				}
				enumerate(probe, budget)
			}
		}
		// Final corpus: a full enumeration is the materialized set (checked
		// by enumerate) and the independent batch blocker's.
		probes := make([]*entity.Entity, 0, len(survivors)+1)
		for _, e := range survivors {
			probes = append(probes, e)
		}
		probes = append(probes, fuzzStreamEntity("external", 5))
		for _, probe := range probes {
			got := enumerate(probe, -1)
			if want := batchCandidates(bl, probe, survivors, batchCap(maxBlock)); !equalIDs(got, want) {
				t.Fatalf("probe %s: enumerated %v != batch blocker %v", probe.ID, got, want)
			}
		}
	})
}

// fuzzStreamEntity derives a small deterministic entity from one script
// byte — a tiny vocabulary so blocks collide, caps trigger and
// sort-neighborhood windows overlap.
func fuzzStreamEntity(id string, sel byte) *entity.Entity {
	vocab := []string{"data graph", "graph kernel", "netwrk", "network analysis", "", "query data", "kernel query", "analisys"}
	e := entity.New(id)
	e.Add("name", vocab[int(sel)%len(vocab)])
	if sel%3 == 0 {
		e.Add("title", vocab[int(sel/3)%len(vocab)])
	}
	return e
}
