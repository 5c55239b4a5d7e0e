// Package corpus generates the benchmark's inputs from a seed: the scaled
// citation corpus cora-x with its duplicate-cluster ground truth, the
// probe stream the read workloads send, and the write stream the ingest
// workloads send. Everything is a pure function of the seed, and the
// program under test only ever sees the generated requests.
package corpus

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"genlink/internal/datagen"
	"genlink/internal/entity"
)

// chunkSeed spreads benchmark seeds apart so two seeds share no
// datagen.Cora chunk (seed+i would make seeds 1 and 2 overlap in all but
// one chunk, and runs on "different seeds" would then measure nearly the
// same corpus).
func chunkSeed(seed int64, chunk int) int64 { return seed<<12 + int64(chunk) }

// Corpus is N entities of cora-x: datagen.Cora chunks re-keyed
// s<chunk>/cora/NNNN and concatenated. The noise model is the paper's
// Cora (case, token order, venue abbreviation, typos, 0.8 coverage) and
// every chunk draws from the same commonWords vocabulary, so token and
// q-gram blocks fill as N grows.
type Corpus struct {
	Entities []*entity.Entity
	// Cluster[i] is the duplicate cluster of Entities[i]: entities with
	// equal values are renderings of one paper. Singletons have a
	// cluster of their own.
	Cluster []int
	// Members lists the entity indexes of each cluster.
	Members [][]int
	// chunks counts the datagen.Cora chunks drawn so far, so streams
	// that need fresh records continue past the stored corpus.
	chunks int
	seed   int64
}

// Generate returns the first n entities of cora-x for the seed.
func Generate(seed int64, n int) *Corpus {
	c := &Corpus{seed: seed}
	for len(c.Entities) < n {
		c.appendChunk(n - len(c.Entities))
	}
	return c
}

// appendChunk draws the next datagen.Cora chunk and appends at most
// limit of its entities (whole clusters first, in generation order).
func (c *Corpus) appendChunk(limit int) {
	ds := datagen.Cora(chunkSeed(c.seed, c.chunks))
	prefix := fmt.Sprintf("s%d/", c.chunks)
	c.chunks++

	// Clusters come from the generator's positive reference links, not
	// from its ID layout, so a change to datagen's ordering cannot
	// silently corrupt the ground truth.
	parent := make(map[string]string, len(ds.A.Entities))
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, p := range ds.Refs.Positive {
		ra, rb := find(p.A.ID), find(p.B.ID)
		if ra != rb {
			parent[rb] = ra
		}
	}
	clusterOf := make(map[string]int)
	for _, e := range ds.A.Entities {
		if limit == 0 {
			break
		}
		limit--
		root := find(e.ID)
		ci, ok := clusterOf[root]
		if !ok {
			ci = len(c.Members)
			clusterOf[root] = ci
			c.Members = append(c.Members, nil)
		}
		re := e.Clone()
		re.ID = prefix + e.ID
		c.Members[ci] = append(c.Members[ci], len(c.Entities))
		c.Cluster = append(c.Cluster, ci)
		c.Entities = append(c.Entities, re)
	}
}

// Request is one generated HTTP request. Body is nil for GET and DELETE.
type Request struct {
	Method string
	Path   string
	Body   []byte
}

// EntityPath is the path of one stored entity. cora-x IDs contain '/',
// which must travel escaped to stay one path segment.
func EntityPath(id string) string { return "/entities/" + url.PathEscape(id) }

// EntitiesBody is the JSON array POST /entities takes.
func EntitiesBody(es []*entity.Entity) []byte {
	b, err := json.Marshal(es)
	if err != nil {
		panic(fmt.Sprintf("corpus: marshal entities: %v", err)) // string maps cannot fail to marshal
	}
	return b
}

// LoadRequests returns the POST /entities requests that load the corpus
// in batches of the given size.
func (c *Corpus) LoadRequests(batch int) []Request {
	var out []Request
	for i := 0; i < len(c.Entities); i += batch {
		j := min(i+batch, len(c.Entities))
		out = append(out, Request{Method: "POST", Path: "/entities", Body: EntitiesBody(c.Entities[i:j])})
	}
	return out
}

// ---------------------------------------------------------------------------
// Noise: a fresh rendering of a stored record

// Rerender returns a new noisy rendering of e under the given ID: the
// citation noise of the paper's Cora applied once more (letter case, one
// typo in the title, author order) with each optional property dropped
// at the corpus's coverage rate. datagen keeps its noise helpers and the
// clean paper private, so the rendering starts from a stored record
// instead of the ground-truth paper; a duplicate of a duplicate is still
// a duplicate.
func Rerender(rng *rand.Rand, id string, e *entity.Entity) *entity.Entity {
	out := entity.New(id)
	for _, p := range e.PropertyNames() {
		vs := e.Values(p)
		if p != "title" && rng.Float64() < 0.2667 {
			continue
		}
		for _, v := range vs {
			switch p {
			case "title":
				if rng.Float64() < 0.4 {
					v = typo(rng, v)
				}
				v = caseNoise(rng, v)
			case "author":
				if rng.Float64() < 0.3 {
					parts := strings.Split(v, " and ")
					rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
					v = strings.Join(parts, " and ")
				}
			case "venue":
				v = caseNoise(rng, v)
			}
			out.Add(p, v)
		}
	}
	return out
}

// typo applies one random character edit.
func typo(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) < 2 {
		return s
	}
	pos := rng.Intn(len(r))
	switch rng.Intn(3) {
	case 0:
		r[pos] = rune('a' + rng.Intn(26))
	case 1:
		r = append(r[:pos], r[pos+1:]...)
	default:
		r = append(r[:pos], append([]rune{rune('a' + rng.Intn(26))}, r[pos:]...)...)
	}
	return string(r)
}

func caseNoise(rng *rand.Rand, s string) string {
	switch rng.Intn(3) {
	case 0:
		return strings.ToUpper(s)
	case 1:
		return strings.ToLower(s)
	default:
		return s
	}
}

// ---------------------------------------------------------------------------
// Probe stream

// Probe is one match request with the ground truth needed to check it.
type Probe struct {
	Request
	// Entity is the probe: the stored record for a GET probe, the fresh
	// rendering for a POST probe.
	Entity *entity.Entity
	// Source is the index of the stored entity the probe was drawn
	// from; its cluster mates are the expected matches.
	Source int
	// Stored is true for GET /match?id= probes.
	Stored bool
}

// ProbeStream draws probes over a corpus.
type ProbeStream struct {
	c      *Corpus
	rng    *rand.Rand
	zipf   *rand.Zipf
	rank   []int // rank → entity index, a seeded permutation
	k      int
	extern float64
	n      int
}

// NewProbeStream returns a probe stream. Stored-ID probes are drawn
// Zipf(s=1.1, v=10) over a seeded permutation of the corpus: the hot head
// keeps hitting entities whose value sets SharedScorer has cached, the
// tail does not. The offset v flattens the very top — at v=1 the three
// hottest entities would draw a quarter of all probes, and a run's median
// latency would be whatever those three happen to cost; at v=10 the
// hottest entity draws 2 % and the hottest hundred 43 %. A share `external` of the probes are fresh renderings sent
// with POST /match: never cached, and they pay JSON decode. stream
// separates independent streams over one corpus (one per client).
func NewProbeStream(c *Corpus, stream int64, k int, external float64) *ProbeStream {
	rng := rand.New(rand.NewSource(c.seed<<8 ^ 0x9e0b ^ stream<<32))
	rank := rand.New(rand.NewSource(c.seed ^ 0x7a1f)).Perm(len(c.Entities))
	return &ProbeStream{
		c:      c,
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 10, uint64(len(c.Entities)-1)),
		rank:   rank,
		k:      k,
		extern: external,
	}
}

// Next returns the next probe.
func (s *ProbeStream) Next() Probe {
	s.n++
	if s.rng.Float64() < s.extern {
		// External probes are drawn uniformly over duplicate clusters:
		// an incoming record is as likely to duplicate a cold paper as
		// a hot one.
		src := s.rng.Intn(len(s.c.Entities))
		e := Rerender(s.rng, fmt.Sprintf("probe/%d", s.n), s.c.Entities[src])
		body, err := json.Marshal(e)
		if err != nil {
			panic(fmt.Sprintf("corpus: marshal probe: %v", err))
		}
		return Probe{
			Request: Request{Method: "POST", Path: fmt.Sprintf("/match?k=%d", s.k), Body: body},
			Entity:  e, Source: src,
		}
	}
	src := s.rank[s.zipf.Uint64()]
	e := s.c.Entities[src]
	return Probe{
		Request: Request{Method: "GET", Path: fmt.Sprintf("/match?id=%s&k=%d", url.QueryEscape(e.ID), s.k)},
		Entity:  e, Source: src, Stored: true,
	}
}

// ---------------------------------------------------------------------------
// Write stream

// OpKind is the kind of one write-stream operation.
type OpKind int

const (
	Insert OpKind = iota // a record no stored ID has yet
	Update               // a fresh rendering under an existing ID
	Delete
)

// Op is one entity operation of the write stream.
type Op struct {
	Kind   OpKind
	ID     string
	Entity *entity.Entity // nil for Delete
}

// WriteStream draws entity operations: new records, re-rendered updates
// of IDs the stream owns, and deletes of IDs the stream owns. A stream
// owns the IDs it inserted plus the stored IDs handed to it, and several
// streams over one server own disjoint IDs — so the final state is the
// same however their requests interleave, and the check after the run
// knows every ID's expected version.
type WriteStream struct {
	rng     *rand.Rand
	fresh   *Corpus // source of new records, disjoint from the stored corpus
	next    int
	prefix  string
	owned   []string
	pos     map[string]int // ID → index in owned
	state   map[string]*entity.Entity
	pUpdate float64
	pDelete float64
}

// NewWriteStream returns write stream number `stream` for the seed.
// owned are the stored entities the stream may update and delete (nil
// for an empty start). The mix is pUpdate updates, pDelete deletes and
// inserts for the rest; an update or delete drawn while the stream owns
// nothing becomes an insert.
func NewWriteStream(seed, stream int64, owned []*entity.Entity, pUpdate, pDelete float64) *WriteStream {
	w := &WriteStream{
		rng: rand.New(rand.NewSource(seed<<8 ^ 0x3c6e ^ stream<<32)),
		// New records come from cora-x under a seed of their own, so they
		// follow the corpus's noise model and vocabulary but repeat none
		// of its papers.
		fresh:   &Corpus{seed: seed ^ (stream+1)<<40},
		prefix:  fmt.Sprintf("w%d/", stream),
		pos:     make(map[string]int),
		state:   make(map[string]*entity.Entity),
		pUpdate: pUpdate,
		pDelete: pDelete,
	}
	for _, e := range owned {
		w.own(e)
	}
	return w
}

func (w *WriteStream) own(e *entity.Entity) {
	if _, ok := w.pos[e.ID]; !ok {
		w.pos[e.ID] = len(w.owned)
		w.owned = append(w.owned, e.ID)
	}
	w.state[e.ID] = e
}

// Next returns the next operation.
func (w *WriteStream) Next() Op {
	r := w.rng.Float64()
	switch {
	case r < w.pDelete && len(w.owned) > 0:
		i := w.rng.Intn(len(w.owned))
		id := w.owned[i]
		last := len(w.owned) - 1
		w.owned[i] = w.owned[last]
		w.pos[w.owned[i]] = i
		w.owned = w.owned[:last]
		delete(w.pos, id)
		w.state[id] = nil
		return Op{Kind: Delete, ID: id}
	case r < w.pDelete+w.pUpdate && len(w.owned) > 0:
		id := w.owned[w.rng.Intn(len(w.owned))]
		e := Rerender(w.rng, id, w.state[id])
		w.state[id] = e
		return Op{Kind: Update, ID: id, Entity: e}
	}
	for w.next >= len(w.fresh.Entities) {
		w.fresh.appendChunk(1 << 30)
	}
	e := w.fresh.Entities[w.next].Clone()
	w.next++
	e.ID = w.prefix + e.ID
	w.own(e)
	return Op{Kind: Insert, ID: e.ID, Entity: e}
}

// State returns the expected state of every ID the stream ever owned: the
// latest version, or nil once deleted.
func (w *WriteStream) State() map[string]*entity.Entity { return w.state }

// Batch is n operations of a write stream as the requests that carry
// them: one POST /entities with every upsert, then one DELETE per
// deleted ID (genlinkd has no batched delete). Ops counts entity
// operations, not requests.
type Batch struct {
	Upsert  Request
	Deletes []Request
	Ops     int
}

// NextBatch draws n operations. Within a batch the last upsert of an ID
// wins and a delete is sent after the POST, which is the order the
// stream drew them in whenever both touch one ID (an ID deleted in a
// batch is never upserted again: a deleted ID leaves the owned set).
func (w *WriteStream) NextBatch(n int) Batch {
	var ups []*entity.Entity
	b := Batch{Ops: n}
	for i := 0; i < n; i++ {
		op := w.Next()
		if op.Kind == Delete {
			b.Deletes = append(b.Deletes, Request{Method: "DELETE", Path: EntityPath(op.ID)})
			continue
		}
		ups = append(ups, op.Entity)
	}
	b.Upsert = Request{Method: "POST", Path: "/entities", Body: EntitiesBody(ups)}
	return b
}
