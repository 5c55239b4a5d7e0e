package matching

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"genlink/internal/entity"
)

// FuzzQGramsOf throws adversarial UTF-8 (and invalid byte sequences) at
// the q-gram key generator: it must never panic, never emit an empty
// gram, and must cover the whole token.
func FuzzQGramsOf(f *testing.F) {
	f.Add("", 3)
	f.Add("a", 3)
	f.Add("abc", 3)
	f.Add("abcdef", 3)
	f.Add("héllo wörld", 3)
	f.Add("日本語のテキスト", 2)
	f.Add("\xff\xfe\x00", 3)
	f.Add(strings.Repeat("é", 100), 0)
	f.Add("ab", -5)
	f.Fuzz(func(t *testing.T, tok string, q int) {
		grams := appendQGrams(nil, tok, q)
		if tok == "" && grams != nil {
			t.Fatalf("appendQGrams(nil, %q, %d) = %q, want nil for empty token", tok, q, grams)
		}
		eff := q
		if eff <= 0 {
			eff = 3
		}
		for _, g := range grams {
			if g == "" {
				t.Fatalf("appendQGrams(nil, %q, %d) emitted an empty gram", tok, q)
			}
			if len(g) > eff && len(g) != len(tok) {
				t.Fatalf("appendQGrams(nil, %q, %d) emitted oversized gram %q", tok, q, g)
			}
			if !strings.Contains(tok, g) {
				t.Fatalf("appendQGrams(nil, %q, %d) emitted gram %q not in token", tok, q, g)
			}
		}
		if tok != "" {
			want := len(tok) - eff + 1
			if want < 1 {
				want = 1
			}
			if len(grams) != want {
				t.Fatalf("appendQGrams(nil, %q, %d) returned %d grams, want %d", tok, q, len(grams), want)
			}
		}
	})
}

// FuzzQGramCodes pins the packed q-gram keys to the string grams: for
// any entity and any q in 1..7, the keys the q-gram pass records for
// the entity are, in order, exactly its packed QGramKeys (so packing
// keeps the string order), and unpacking each code gives back its gram.
func FuzzQGramCodes(f *testing.F) {
	f.Add("Scalable Analysis of Networks", "graph", 3)
	f.Add("", "", 1)
	f.Add("a ab abc abcd", "abcdefg abcdefgh", 7)
	f.Add("a\x00b \x00 \xff\xff", "a a\x00", 2)
	f.Add("héllo wörld", "日本語のテキスト", 5)
	f.Fuzz(func(t *testing.T, v1, v2 string, q int) {
		q = 1 + int(uint(q)%maxQ)
		e := entity.New("e")
		e.Add("p", v1)
		e.Add("r", v2)
		x := NewBlockIndex(QGramBlocking(q)).(*blockIndex)
		x.Add(e)
		got := x.passes[0].(*keyedPass[uint64]).slots[x.slotOf[e.ID]].keys
		want := QGramKeys(e, q)
		if len(got) != len(want) {
			t.Fatalf("q=%d: the pass recorded %d codes for %d grams %q", q, len(got), len(want), want)
		}
		for i, g := range want {
			if got[i] != packGram(g) {
				t.Fatalf("q=%d: code %d is %#x, want %#x, the packed gram %q", q, i, got[i], packGram(g), g)
			}
			if u := unpackGram(got[i]); u != g {
				t.Fatalf("q=%d: code %#x unpacks to %q, want %q", q, got[i], u, g)
			}
		}
	})
}

// unpackGram inverts packGram.
func unpackGram(c uint64) string {
	b := make([]byte, c&7)
	for i := range b {
		b[i] = byte(c >> (56 - 8*i))
	}
	return string(b)
}

// FuzzBlockingKeys runs every key-extraction helper the blockers share
// over an adversarial single-property entity: tokenization, q-gram keys
// and the sorted-neighborhood sort keys must not panic and must stay
// internally consistent (no empty tokens, no empty grams, valid UTF-8
// never broken by the reversed key).
func FuzzBlockingKeys(f *testing.F) {
	f.Add("Scalable  Analysis of\tNetworks")
	f.Add("")
	f.Add("   ")
	f.Add("a b")
	f.Add("\xf0\x28\x8c\x28 broken utf8")
	f.Add("ＡＢＣ　ｄｅｆ")
	f.Fuzz(func(t *testing.T, value string) {
		e := entity.New("probe")
		e.Add("p", value)
		for _, tok := range Tokens(e) {
			if tok == "" {
				t.Fatalf("Tokens produced an empty token from %q", value)
			}
		}
		for _, g := range QGramKeys(e, 3) {
			if g == "" {
				t.Fatalf("QGramKeys produced an empty gram from %q", value)
			}
		}
		key := DefaultSortKey(e)
		rev := ReversedKey(DefaultSortKey)(e)
		if utf8.ValidString(key) && !utf8.ValidString(rev) {
			t.Fatalf("ReversedKey broke valid UTF-8 key %q -> %q", key, rev)
		}
		if utf8.ValidString(key) && utf8.RuneCountInString(rev) != utf8.RuneCountInString(key) {
			t.Fatalf("ReversedKey changed rune count: %q -> %q", key, rev)
		}
	})
}

// FuzzCandidateStream drives the BlockIndex.Each contract with a mutated
// op script: random corpus writes — single adds, replacements and
// removals, and BulkAdd/BulkRemove groups as Apply issues them —
// interleaved with enumerations whose yield returns false after a budget
// of n candidates. The invariants: never panic, the index's structure is
// sound after every write (checkIndexInvariants), one enumeration never
// yields the same candidate ID twice, nothing is yielded after yield
// returned false, the completion flag is false exactly when yield
// returned false (eachIDs checks those three), a stopped enumeration
// yields min(n, |want|) members of want, a full one yields exactly want,
// and Candidates returns want sorted by ID — where want is the reference
// materializer's set, which shares no code with the index. Each runs to
// completion inside one call, so no enumeration state outlives a write.
func FuzzCandidateStream(f *testing.F) {
	f.Add([]byte{0, 7, 13, 2, 19, 3, 22, 4, 9, 5, 1, 3, 17}, uint8(0), uint8(1))
	f.Add([]byte{6, 6, 6, 3, 2, 4, 4, 4, 0, 3, 4, 5, 4}, uint8(3), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(0))
	// e0, e1 and e3 share the token "graph" in slots 0, 1, 2; removing e1
	// swap-removes from the middle of that list, and re-adding e1 reuses
	// its freed slot.
	f.Add([]byte{0, 0, 0, 1, 0, 3, 2, 1, 3, 0, 0, 9, 3, 0}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 0, 3, 2, 1, 3, 0, 0, 9, 3, 0}, uint8(3), uint8(1))
	// The same through groups: BulkAdd {e2, e5, e0}, then e7, so e5, e0
	// and e7 share "data"; BulkRemove {e0} from the middle of that list,
	// then BulkAdd e0 into its freed slot.
	f.Add([]byte{6, 2, 6, 15, 7, 0, 3, 0, 6, 0, 3, 2}, uint8(0), uint8(0))
	f.Add([]byte{6, 2, 6, 15, 7, 0, 3, 0, 6, 0, 3, 2}, uint8(1), uint8(3))
	// Groups that replace and remove several IDs at once: BulkAdd {e2,
	// e5, e0}, replace {e5, e0} and add e3, BulkRemove {e2, e5, e0},
	// BulkAdd {e2, e5}.
	f.Add([]byte{6, 2, 6, 5, 3, 5, 7, 2, 3, 3, 6, 10, 3, 2}, uint8(3), uint8(3))
	// Slot reuse across the passes of one multipass index: add e0, e2, e4
	// (slots 0–2), remove e2, add e3 into its freed slot 1, then probe the
	// old ID e2 and another version of e3 — in full and stopped.
	f.Add([]byte{0, 0, 0, 2, 0, 4, 2, 2, 0, 3, 3, 2, 3, 11, 4, 11}, uint8(3), uint8(0))
	f.Add([]byte{0, 0, 0, 2, 0, 4, 2, 2, 0, 3, 3, 2, 3, 11, 4, 11}, uint8(3), uint8(2))
	// The same through groups: BulkAdd {e2, e5, e0}, BulkRemove {e5, e0},
	// add e7 into a freed slot, probe the old ID e5 and another version
	// of e7.
	f.Add([]byte{6, 2, 7, 5, 0, 7, 3, 5, 3, 15, 5, 15}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, script []byte, stratSel, capSel uint8) {
		bl := fuzzStrategies()[int(stratSel)%len(fuzzStrategies())]
		maxBlock := []int{-1, 0, 2, 5}[int(capSel)%4]
		bi := NewBlockIndex(bl)
		survivors := make(map[string]*entity.Entity)

		// enumerate checks one Each, and Candidates, against the reference
		// materializer; budget < 0 runs Each to completion.
		enumerate := func(probe *entity.Entity, budget int) {
			want := referenceCandidates(bl, probe, survivors, maxBlock)
			if got := materialized(t, bi, probe, maxBlock); !slicesEqual(got, want) {
				t.Fatalf("probe %s: Candidates %v != reference materializer %v", probe.ID, got, want)
			}
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
					t.Fatalf("probe %s: enumerated %s, not among the reference's %v", probe.ID, id, want)
				}
			}
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
			// group is the batch of ops 6 and 7: 1–3 distinct IDs, each
			// entity derived from its selector like a single add's.
			var group []byte
			for j := range 1 + int(arg)%3 {
				group = append(group, arg+byte(3*j))
			}
			switch op % 8 {
			case 0, 1: // add or replace
				if _, ok := survivors[id]; ok {
					bi.BulkRemove([]string{id})
				}
				e := fuzzEntity(id, arg)
				bi.Add(e)
				survivors[id] = e
			case 2: // remove
				if _, ok := survivors[id]; ok {
					bi.BulkRemove([]string{id})
					delete(survivors, id)
				}
			case 6: // BulkAdd a group of new or replaced IDs, as Apply does
				var olds []string
				var news []*entity.Entity
				for _, sel := range group {
					e := fuzzEntity(fmt.Sprintf("e%d", int(sel)%8), sel)
					if _, ok := survivors[e.ID]; ok {
						olds = append(olds, e.ID)
					}
					news = append(news, e)
					survivors[e.ID] = e
				}
				bi.BulkRemove(olds)
				bi.BulkAdd(news)
			case 7: // BulkRemove a group
				var olds []string
				for _, sel := range group {
					gid := fmt.Sprintf("e%d", int(sel)%8)
					if _, ok := survivors[gid]; ok {
						olds = append(olds, gid)
						delete(survivors, gid)
					}
				}
				bi.BulkRemove(olds)
			default: // enumerate (indexed or external probe): 3 in full, 4 and 5 stopped early
				probe := fuzzEntity(id, arg)
				if e, ok := survivors[id]; ok && arg%2 == 0 {
					probe = e
				}
				budget := -1
				if op%8 != 3 {
					budget = 1 + int(arg)%4
				}
				enumerate(probe, budget)
				continue
			}
			checkIndexInvariants(t, bi, len(survivors))
		}
		// Final corpus: every survivor and an external probe, in full.
		for _, e := range survivors {
			enumerate(e, -1)
		}
		enumerate(fuzzEntity("external", 5), -1)
	})
}

// FuzzBatchCandidates is the batch differential: for small random A and
// B sources (disjoint, or one source matched against itself), every
// strategy and caps {−1, 0, 1, 3}, CandidatePairs must return exactly the
// reference materializer's pair set, with no duplicate, no self pair, and
// the pairs of one A entity contiguous and in A's order.
func FuzzBatchCandidates(f *testing.F) {
	f.Add([]byte{0, 7, 13, 2, 19, 3, 22, 4, 9, 5}, []byte{1, 3, 17, 6, 6, 2}, uint8(0), uint8(1), false)
	f.Add([]byte{6, 6, 6, 3, 2, 4, 4, 4, 0, 3, 4, 5, 4}, []byte{}, uint8(3), uint8(2), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 10, 11, 12, 3, 3, 0}, uint8(2), uint8(3), false)
	f.Add([]byte{5, 5, 5, 5, 5}, []byte{5, 5, 5, 5}, uint8(4), uint8(0), false)
	f.Fuzz(func(t *testing.T, aSel, bSel []byte, stratSel, capSel uint8, selfJoin bool) {
		bl := fuzzStrategies()[int(stratSel)%len(fuzzStrategies())]
		maxBlock := []int{-1, 0, 1, 3}[int(capSel)%4]
		source := func(name string, sel []byte) *entity.Source {
			src := entity.NewSource(name)
			for i, s := range sel[:min(len(sel), 40)] {
				src.Add(fuzzEntity(fmt.Sprintf("%s%d", name, i), s))
			}
			return src
		}
		a := source("a", aSel)
		b := source("b", bSel)
		if selfJoin {
			b = a
		}
		opts := Options{Blocker: bl, MaxBlockSize: maxBlock}
		want := make(map[Pair]struct{})
		for _, p := range referencePairs(bl, a, b, opts) {
			want[p] = struct{}{}
		}
		got := CandidatePairs(bl, a, b, opts)
		gotSet := pairSet(t, got)
		order := make(map[*entity.Entity]int, a.Len())
		for i, e := range a.Entities {
			order[e] = i
		}
		for i, p := range got {
			if p.A.ID == p.B.ID {
				t.Fatalf("self pair %s→%s", p.A.ID, p.B.ID)
			}
			if i > 0 && order[got[i-1].A] > order[p.A] {
				t.Fatalf("pairs of %s come after pairs of %s, against A's order", p.A.ID, got[i-1].A.ID)
			}
		}
		if len(gotSet) != len(want) {
			t.Fatalf("%s cap=%d: CandidatePairs has %d pairs, the reference %d", bl.Name(), maxBlock, len(gotSet), len(want))
		}
		for p := range want {
			if _, ok := gotSet[p]; !ok {
				t.Fatalf("%s cap=%d: CandidatePairs misses the reference pair %s→%s", bl.Name(), maxBlock, p.A.ID, p.B.ID)
			}
		}
	})
}

// fuzzStrategies is every strategy the fuzz targets draw from.
func fuzzStrategies() []Blocker {
	return []Blocker{
		TokenBlocking(),
		QGramBlocking(2),
		SortedNeighborhood(3),
		MultiPass(TokenBlocking(), SortedNeighborhood(3), QGramBlocking(0)),
		SortedNeighborhoodBlocker{Window: 2, Key: ReversedKey(PropertySortKey("name"))},
	}
}

// fuzzEntity derives a small deterministic entity from one byte — a tiny
// vocabulary so blocks collide, caps trigger and sorted-neighborhood
// windows overlap.
func fuzzEntity(id string, sel byte) *entity.Entity {
	vocab := []string{"data graph", "graph kernel", "netwrk", "network analysis", "", "query data", "kernel query", "analisys"}
	e := entity.New(id)
	e.Add("name", vocab[int(sel)%len(vocab)])
	if sel%3 == 0 {
		e.Add("title", vocab[int(sel/3)%len(vocab)])
	}
	return e
}
