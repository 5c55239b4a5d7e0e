package matching

import (
	"fmt"
	"sort"
	"testing"

	"genlink/internal/entity"
)

// TestCapPolicySharedSurvivors pins the shared block-size cap policy
// (CapAllows, and the reference materializer's OthersInBlock) and its
// regression case: a block of exactly MaxBlockSize+1 records that
// includes the probe's own record has MaxBlockSize *others* and must be
// admitted — the old per-path cap checks compared the raw block length
// and skipped it. Every candidate-generation path (the reference
// materializer, batch CandidatePairs and StreamPairs, the indexes'
// Candidates and Each) must pick the same survivors on both sides of the
// boundary.
func TestCapPolicySharedSurvivors(t *testing.T) {
	t.Run("CapAllows", func(t *testing.T) {
		cases := []struct {
			others, maxBlock int
			want             bool
		}{
			{0, -1, true}, {99, -1, true}, // negative cap: unlimited
			{0, 0, true}, {99, 0, true}, // zero cap: unlimited
			{2, 3, true}, {3, 3, true}, // at or under the cap
			{4, 3, false}, {100, 3, false}, // over the cap
			{0, 1, true}, {2, 1, false},
		}
		for _, c := range cases {
			if got := CapAllows(c.others, c.maxBlock); got != c.want {
				t.Errorf("CapAllows(%d, %d) = %v, want %v", c.others, c.maxBlock, got, c.want)
			}
		}
	})

	t.Run("OthersInBlock", func(t *testing.T) {
		mk := func(n int) []*entity.Entity {
			block := make([]*entity.Entity, n)
			for i := range block {
				block[i] = entity.New(fmt.Sprintf("m%d", i))
			}
			return block
		}
		probe := entity.New("m0") // same ID as the first member
		outsider := entity.New("px")
		// The boundary case the whole policy exists for: cap+1 records,
		// probe among them.
		if got := OthersInBlock(mk(4), probe, 3); got != 3 {
			t.Errorf("boundary block with probe: others = %d, want 3", got)
		}
		if got := OthersInBlock(mk(4), outsider, 3); got != 4 {
			t.Errorf("boundary block without probe: others = %d, want 4", got)
		}
		// Away from the boundary the raw length is returned (the scan is
		// skipped) — the cap decision is unaffected, which is the property
		// that matters.
		if got := OthersInBlock(mk(3), probe, 3); got != 3 {
			t.Errorf("under-cap block: others = %d, want 3", got)
		}
		if allowed := CapAllows(OthersInBlock(mk(5), probe, 3), 3); allowed {
			t.Error("block of cap+2 must stay skipped even when the probe is a member")
		}
		if got := OthersInBlock(mk(4), probe, 0); got != 4 {
			t.Errorf("uncapped: others = %d, want raw length 4", got)
		}
	})

	// Integration: one token/q-gram block of exactly cap+1 records. A
	// dedup-shaped run (probe indexed) must keep it; an external probe
	// against the same corpus (cap+1 others) must skip it; one notch
	// tighter and everyone skips it.
	for _, bl := range []Blocker{TokenBlocking(), QGramBlocking(3)} {
		t.Run(bl.Name(), func(t *testing.T) {
			const cap = 3
			members := make([]*entity.Entity, cap+1)
			src := entity.NewSource("block")
			for i := range members {
				members[i] = entity.New(fmt.Sprintf("s%d", i))
				members[i].Add("name", "shared")
				src.Add(members[i])
			}
			external := entity.New("px")
			external.Add("name", "shared")
			extSrc := entity.NewSource("ext")
			extSrc.Add(external)
			opts := Options{Blocker: bl, MaxBlockSize: cap}

			wantPairs := make(map[string]struct{})
			for _, a := range members {
				for _, b := range members {
					if a.ID != b.ID {
						wantPairs[a.ID+"→"+b.ID] = struct{}{}
					}
				}
			}

			if got := pairKeySet(referencePairs(bl, src, src, opts)); !equalKeySets(got, wantPairs) {
				t.Fatalf("dedup reference run: boundary block not fully admitted\n got %d pairs, want %d", len(got), len(wantPairs))
			}
			if got := pairKeySet(CandidatePairs(bl, src, src, opts)); !equalKeySets(got, wantPairs) {
				t.Fatalf("dedup batch run: boundary block not fully admitted\n got %d pairs, want %d", len(got), len(wantPairs))
			}
			if got := streamPairKeySet(bl, src, src, opts); !equalKeySets(got, wantPairs) {
				t.Fatalf("dedup streamed run: boundary block not fully admitted\n got %d pairs, want %d", len(got), len(wantPairs))
			}
			if got := referencePairs(bl, extSrc, src, opts); len(got) != 0 {
				t.Fatalf("external reference run: cap+1 others must be skipped, got %d pairs", len(got))
			}
			if got := CandidatePairs(bl, extSrc, src, opts); len(got) != 0 {
				t.Fatalf("external batch run: cap+1 others must be skipped, got %d pairs", len(got))
			}
			if got := streamPairKeySet(bl, extSrc, src, opts); len(got) != 0 {
				t.Fatalf("external streamed run: cap+1 others must be skipped, got %d pairs", len(got))
			}

			bi := NewBlockIndex(bl)
			for _, e := range members {
				bi.Add(e)
			}
			wantCands := []string{"s1", "s2", "s3"}
			if got := candidateIDs(bi.Candidates(members[0], cap)); !equalIDSlices(got, wantCands) {
				t.Fatalf("incremental index: probe's boundary block skipped, got %v want %v", got, wantCands)
			}
			if got := candidateIDs(bi.Candidates(external, cap)); len(got) != 0 {
				t.Fatalf("incremental index: external probe admitted cap+1 others: %v", got)
			}
			if got := eachIDSet(bi, members[0], cap); !equalIDSlices(got, wantCands) {
				t.Fatalf("candidate enumeration: probe's boundary block skipped, got %v want %v", got, wantCands)
			}
			if got := eachIDSet(bi, external, cap); len(got) != 0 {
				t.Fatalf("candidate enumeration: external probe admitted cap+1 others: %v", got)
			}

			// One notch tighter: the probe's own block now has cap+1
			// others for everyone, and every path must drop it.
			tight := cap - 1
			tightOpts := Options{Blocker: bl, MaxBlockSize: tight}
			if got := referencePairs(bl, src, src, tightOpts); len(got) != 0 {
				t.Fatalf("tightened cap: reference run still admitted %d pairs", len(got))
			}
			if got := CandidatePairs(bl, src, src, tightOpts); len(got) != 0 {
				t.Fatalf("tightened cap: batch run still admitted %d pairs", len(got))
			}
			if got := streamPairKeySet(bl, src, src, tightOpts); len(got) != 0 {
				t.Fatalf("tightened cap: streamed run still admitted %d pairs", len(got))
			}
			if got := candidateIDs(bi.Candidates(members[0], tight)); len(got) != 0 {
				t.Fatalf("tightened cap: incremental index still admitted %v", got)
			}
			if got := eachIDSet(bi, members[0], tight); len(got) != 0 {
				t.Fatalf("tightened cap: candidate enumeration still admitted %v", got)
			}
		})
	}
}

func pairKeySet(ps []Pair) map[string]struct{} {
	out := make(map[string]struct{}, len(ps))
	for _, p := range ps {
		out[p.A.ID+"→"+p.B.ID] = struct{}{}
	}
	return out
}

func streamPairKeySet(bl Blocker, a, b *entity.Source, opts Options) map[string]struct{} {
	out := make(map[string]struct{})
	StreamPairs(bl, a, b, opts, func(p Pair) {
		out[p.A.ID+"→"+p.B.ID] = struct{}{}
	})
	return out
}

func equalKeySets(a, b map[string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func candidateIDs(es []*entity.Entity) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

func eachIDSet(bi BlockIndex, probe *entity.Entity, maxBlock int) []string {
	var out []string
	bi.Each(probe, maxBlock, new(SlotSet), func(s int32) bool {
		out = append(out, bi.(*blockIndex).ents[s].ID)
		return true
	})
	sort.Strings(out)
	return out
}

func equalIDSlices(a, b []string) bool {
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
