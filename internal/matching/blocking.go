package matching

import (
	"fmt"
	"slices"
	"strings"

	"genlink/internal/entity"
)

// Pair is a candidate entity pair produced by a Blocker. Blocking only
// proposes pairs; the linkage rule decides whether they match.
type Pair struct {
	A, B *entity.Entity
}

// Blocker generates candidate pairs for rule execution, decoupling
// candidate generation from scoring. A Blocker trades recall
// (pairs-completeness: the fraction of true matches among its candidates)
// against the number of rule evaluations; it never changes rule semantics,
// only which pairs get scored.
//
// The strategy set is closed: the four Blockers of this package —
// TokenBlocker, SortedNeighborhoodBlocker, QGramBlocker and
// MultiPassBlocker, in any parameterization and composition — are the
// only implementations, each contributing its passes to a BlockIndex.
// Strategies are registered in BlockerByName for CLI and bench wiring.
type Blocker interface {
	// Name identifies the strategy in benches, tables and CLI flags.
	Name() string
	// appendPasses appends the strategy's empty passes to ps
	// (NewBlockIndex): one per strategy, a composite's in member order.
	appendPasses(ps []pass) []pass
}

// CandidatePairs runs a blocker and returns its candidate pairs with
// duplicates and self pairs (same ID on both sides, as in dedup setups
// where A and B are one source) removed: the pairs StreamPairs yields,
// collected. Pairs are grouped per A entity in A's order; the order of
// the B partners within a group is unspecified. Memory is O(total
// candidates) — Match and MatchParallel avoid that bill by scoring the
// enumeration as it runs; the list is for callers that need the pairs
// themselves (the blocking ablation, MatchPairs). Keep
// Options.MaxBlockSize finite on large text-heavy sources.
func CandidatePairs(bl Blocker, a, b *entity.Source, opts Options) []Pair {
	var out []Pair
	StreamPairs(bl, a, b, opts, func(p Pair) { out = append(out, p) })
	return out
}

// ---------------------------------------------------------------------------
// Block-size cap policy

// CapAllows is the single block-size cap policy of every
// candidate-generation path — batch matching and the incremental indexes
// of internal/linkindex enumerate through the same BlockIndex, and the
// reference materializer of the tests applies it too: a key block is
// admitted iff the cap is unlimited (maxBlock ≤ 0) or the number of
// *other* entities in the block — the block size measured without the
// probe's own record — does not exceed the cap. A block is never
// truncated to the cap: picking which members survive truncation would
// depend on enumeration order, so an oversized block is skipped whole
// (stop-token suppression). Measuring without the probe keeps the
// decision stable between dedup-shaped batch runs (where the probe is
// itself indexed) and online probes against a corpus that excludes it: a
// block exactly at the cap must not flip to skipped just because the
// probe is a member. TestCapPolicySharedSurvivors pins that every path
// picks the same survivors.
func CapAllows(others, maxBlock int) bool {
	return maxBlock <= 0 || others <= maxBlock
}

// ---------------------------------------------------------------------------
// Token blocking

// TokenBlocker generates a candidate for every pair sharing at least one
// lowercased value token, skipping tokens whose block exceeds
// Options.MaxBlockSize (stop-token suppression). This is the repo's
// original blocking strategy: high pairs-completeness, but frequent tokens
// make it generate many more candidates than window- or q-gram-based
// strategies on text-heavy sources.
type TokenBlocker struct{}

// TokenBlocking returns the token blocking strategy (the default).
func TokenBlocking() Blocker { return TokenBlocker{} }

// Name implements Blocker.
func (TokenBlocker) Name() string { return "token" }

func (TokenBlocker) appendPasses(ps []pass) []pass {
	return append(ps, newKeyedPass(func(_ *entity.Entity, toks []string) []string { return toks }))
}

// ---------------------------------------------------------------------------
// Sorted neighborhood

// SortedNeighborhoodBlocker sorts the union of both sources by a
// normalized key and pairs every A entity with the B entities within
// Window positions of it in the sorted order (Hernández & Stolfo's
// sorted-neighborhood method). Candidate count is O((|A|+|B|)·Window)
// regardless of value frequency skew, so it generates far fewer pairs
// than token blocking on text-heavy sources — at the price of missing
// matches whose keys sort far apart. Run several passes with different
// keys via MultiPass to recover them (the MultiBlock idea). Its
// BlockIndex pass windows over the indexed entities alone; the two
// definitions agree only when A holds one entity (snStreamer has the
// numbers).
type SortedNeighborhoodBlocker struct {
	// Window is how far apart two entities may sit in the sorted order
	// and still become a candidate pair (default 10).
	Window int
	// Key derives the sort key of an entity (default DefaultSortKey).
	// PropertySortKey builds keys over specific similarity dimensions.
	Key func(*entity.Entity) string
	// Label, when set, replaces the key description in Name().
	Label string
}

// SortedNeighborhood returns a sorted-neighborhood blocker with the given
// window (≤0 means the default of 10) over the default sort key.
func SortedNeighborhood(window int) Blocker {
	return SortedNeighborhoodBlocker{Window: window}
}

// Name implements Blocker.
func (s SortedNeighborhoodBlocker) Name() string {
	if s.Label != "" {
		return fmt.Sprintf("sortedneighborhood(w=%d,%s)", s.window(), s.Label)
	}
	return fmt.Sprintf("sortedneighborhood(w=%d)", s.window())
}

func (s SortedNeighborhoodBlocker) window() int {
	if s.Window <= 0 {
		return 10
	}
	return s.Window
}

// sortKey is the sort key the batch streamer reads; the index's pass
// derives the default key from the tokens it already holds.
func (s SortedNeighborhoodBlocker) sortKey() func(*entity.Entity) string {
	if s.Key == nil {
		return DefaultSortKey
	}
	return s.Key
}

// DefaultSortKey is the sort key used when SortedNeighborhoodBlocker.Key
// is nil: every lowercased token of every property value, sorted and
// joined (Tokens' order). Sorting the tokens (rather than concatenating
// values in schema order) keeps the key comparable across sources with
// different property names — matching entities get near-identical keys no
// matter how their values are split into properties.
func DefaultSortKey(e *entity.Entity) string { return joinTokens(Tokens(e)) }

// joinTokens is DefaultSortKey over an entity's Tokens.
func joinTokens(toks []string) string { return strings.Join(toks, " ") }

// PropertySortKey returns a sort key reading the first value of the first
// set property among props, lowercased with whitespace collapsed. Keying a
// sorted-neighborhood pass on one similarity dimension — naming the A-side
// and B-side property of that dimension — is how MultiPass realizes the
// MultiBlock idea of one index per dimension.
func PropertySortKey(props ...string) func(*entity.Entity) string {
	return func(e *entity.Entity) string {
		for _, p := range props {
			if vs := e.Values(p); len(vs) > 0 {
				return strings.Join(strings.Fields(strings.ToLower(vs[0])), " ")
			}
		}
		return ""
	}
}

// ReversedKey wraps a sort key so entities sort by the reversed key
// string. A second sorted-neighborhood pass over reversed keys catches
// pairs whose keys diverge near the start (a typo in the first characters
// moves an entity arbitrarily far in forward sort order but barely at all
// in reverse order when the tail agrees).
func ReversedKey(key func(*entity.Entity) string) func(*entity.Entity) string {
	return func(e *entity.Entity) string {
		runes := []rune(key(e))
		for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
			runes[i], runes[j] = runes[j], runes[i]
		}
		return string(runes)
	}
}

func (s SortedNeighborhoodBlocker) appendPasses(ps []pass) []pass {
	return append(ps, &snPass{window: s.window(), keyFn: s.Key})
}

// ---------------------------------------------------------------------------
// Q-gram blocking

// QGramBlocker indexes B by the character q-grams of its lowercased value
// tokens and proposes every pair sharing at least one q-gram, with the
// same per-block size cap as token blocking. Because a single typo leaves
// most q-grams of a token intact, it retains pairs that token blocking
// loses on typo-heavy datasets — at the cost of more candidates, since
// q-grams are shared far more widely than whole tokens.
type QGramBlocker struct {
	// Q is the gram length (≤0 means the default of 3). Tokens shorter
	// than Q are indexed whole. Q is at most 7: the index packs every
	// gram into one uint64 key (packGram), and a longer gram does not
	// fit. Building an index of a larger Q panics.
	Q int
}

// maxQ is the longest gram a packed uint64 key holds: 7 bytes, above the
// 3 bits of its length.
const maxQ = 7

// QGramBlocking returns a q-gram blocker with gram length q (≤0 means 3).
// q must be at most 7: building an index of a larger q panics (see
// QGramBlocker.Q).
func QGramBlocking(q int) Blocker { return QGramBlocker{Q: q} }

// Name implements Blocker.
func (g QGramBlocker) Name() string { return fmt.Sprintf("qgram(q=%d)", g.q()) }

func (g QGramBlocker) q() int {
	if g.Q <= 0 {
		return 3
	}
	return g.Q
}

// appendQGrams appends the character q-grams of one token (q ≤ 0 means
// 3) to dst, letting callers that loop over many tokens reuse one buffer
// instead of allocating a gram slice per token. Tokens no longer than q
// are appended whole; empty tokens yield no grams at all — indexing the
// empty string as a blocking key would put every entity carrying any
// empty value into one giant block, and slicing assumptions downstream
// must never see "" (the guard the fuzz target FuzzQGramsOf pins). Grams
// are byte-based: a multi-byte rune may be split across grams, which is
// harmless for blocking (both sides split identically).
func appendQGrams(dst []string, tok string, q int) []string {
	if q <= 0 {
		q = 3
	}
	if tok == "" {
		return dst
	}
	if len(tok) <= q {
		return append(dst, tok)
	}
	for i := 0; i+q <= len(tok); i++ {
		dst = append(dst, tok[i:i+q])
	}
	return dst
}

// packGram packs a gram of 1 to maxQ bytes into its uint64 key: the
// gram's bytes from the top byte down, its length in the low 3 bits.
// The packing is a bijection, and it keeps the string order: codes
// compare byte by byte as the strings do, and where the bytes tie (the
// zero padding of a shorter gram against zero bytes of a longer one) the
// shorter gram sorts first, as a string prefix does.
func packGram(g string) uint64 {
	c := uint64(len(g))
	for i := 0; i < len(g); i++ {
		c |= uint64(g[i]) << (56 - 8*i)
	}
	return c
}

// qgramCodes returns the packed q-grams (appendQGrams, packGram) of
// toks, an entity's Tokens, sorted and unique: the blocking keys of
// QGramBlocker's index.
func qgramCodes(toks []string, q int) []uint64 {
	n := 0
	for _, tok := range toks {
		n += max(len(tok)-q+1, 1) // the token's gram count
	}
	codes := make([]uint64, 0, n)
	var buf [32]string // one token's grams, on the stack unless it is long
	for _, tok := range toks {
		for _, g := range appendQGrams(buf[:0], tok, q) {
			codes = append(codes, packGram(g))
		}
	}
	slices.Sort(codes)
	return slices.Compact(codes)
}

func (g QGramBlocker) appendPasses(ps []pass) []pass {
	q := g.q()
	if q > maxQ {
		panic(fmt.Sprintf("matching: q-gram length %d is above %d, the longest gram a packed uint64 key holds", q, maxQ))
	}
	return append(ps, newKeyedPass(func(_ *entity.Entity, toks []string) []uint64 { return qgramCodes(toks, q) }))
}

// ---------------------------------------------------------------------------
// Multi-pass composite

// MultiPassBlocker unions the candidates of several strategies — the
// MultiBlock idea (Isele, Jentzsch & Bizer 2011) of indexing each
// similarity dimension separately so a pair survives blocking if any one
// dimension proposes it. Pairs-completeness is at least that of the best
// member; the candidate count is at most the sum of the members'.
type MultiPassBlocker struct {
	Passes []Blocker
}

// MultiPass composes blockers into a union. With no arguments it returns
// the default composite: token blocking, a sorted-neighborhood pass and a
// q-gram pass.
func MultiPass(passes ...Blocker) Blocker {
	if len(passes) == 0 {
		passes = []Blocker{TokenBlocking(), SortedNeighborhood(0), QGramBlocking(0)}
	}
	return MultiPassBlocker{Passes: passes}
}

// Name implements Blocker.
func (m MultiPassBlocker) Name() string {
	names := make([]string, len(m.Passes))
	for i, p := range m.Passes {
		names[i] = p.Name()
	}
	return "multipass(" + strings.Join(names, "+") + ")"
}

func (m MultiPassBlocker) appendPasses(ps []pass) []pass {
	for _, p := range m.Passes {
		ps = p.appendPasses(ps)
	}
	return ps
}

// ---------------------------------------------------------------------------
// Registry

// BlockerNames lists the selectable strategies in presentation order.
func BlockerNames() []string {
	return []string{"token", "sortedneighborhood", "qgram", "multipass"}
}

// RegistryName maps a blocker back to the BlockerByName name that
// reconstructs it, or "" when bl is not one of the registry's
// default-parameter strategies (custom windows, keys or compositions
// cannot be rebuilt from a name). Strategy names are compared via
// Blocker.Name, which encodes the distinguishing parameters, so e.g.
// SortedNeighborhood(4) correctly reports "" while SortedNeighborhood(0)
// reports "sortedneighborhood". Snapshot persistence (internal/linkindex)
// records this name so a restored index blocks identically.
func RegistryName(bl Blocker) string {
	if bl == nil {
		return ""
	}
	for _, name := range BlockerNames() {
		if b := BlockerByName(name); b != nil && b.Name() == bl.Name() {
			return name
		}
	}
	return ""
}

// BlockerByName resolves a strategy name (as listed by BlockerNames) to a
// Blocker with default parameters. It returns nil for unknown names.
func BlockerByName(name string) Blocker {
	switch name {
	case "token":
		return TokenBlocking()
	case "sortedneighborhood", "sorted", "sn":
		return SortedNeighborhood(0)
	case "qgram":
		return QGramBlocking(0)
	case "multipass", "multi":
		return MultiPass()
	default:
		return nil
	}
}
