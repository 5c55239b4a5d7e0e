package linkindex

import (
	"sync"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// Candidate streaming: the pull-iterator counterpart of
// BlockIndex.Candidates. A CandidateStream enumerates the same candidate
// set one entity at a time, so the query path can prefilter and score
// without first materializing (and sorting) the full candidate slice. Streams yield candidates in an unspecified order —
// TestDifferentialStreamVsMaterialize pins set equality with Candidates
// for every strategy, cap and interleaving, and FuzzCandidateStream pins
// the cursor contract (no panics, no duplicates, batch equality on
// quiescent re-run) under partial consumption and early Close.
//
// Like every BlockIndex method, streams are NOT synchronized: a stream
// must be consumed under the same lock (and corpus version) it was
// opened under. ShardedIndex consumes a stream fully inside one shard
// read-lock acquisition.

// CandidateStream is a pull iterator over the candidates a BlockIndex
// proposes for one probe.
type CandidateStream interface {
	// Next returns the next candidate, or ok == false when the stream is
	// exhausted (or closed). A candidate is yielded at most once per
	// stream, and the probe's own record is never yielded.
	Next() (*entity.Entity, bool)
	// Close releases the stream's resources; Next returns ok == false
	// afterwards. Closing an exhausted or already-closed stream is a
	// no-op.
	Close()
}

// CandidateStreamer is implemented by BlockIndexes that can enumerate
// candidates lazily. Indexes without it are served by materializing
// Candidates once (streamCandidates falls back transparently).
type CandidateStreamer interface {
	// StreamCandidates opens a stream over Candidates(probe, maxBlock):
	// same candidate set, unspecified order, no up-front materialization.
	StreamCandidates(probe *entity.Entity, maxBlock int) CandidateStream
}

// streamCandidates opens a candidate stream through the index's lazy
// path if it has one, else over the materialized slice.
func streamCandidates(bi BlockIndex, probe *entity.Entity, maxBlock int) CandidateStream {
	if cs, ok := bi.(CandidateStreamer); ok {
		return cs.StreamCandidates(probe, maxBlock)
	}
	return &sliceStream{es: bi.Candidates(probe, maxBlock)}
}

// seenPool recycles the per-stream dedup sets. A query's seen set grows
// to the candidate count, so allocating one per query dominates the
// streamed path's allocations; pooling makes the map a steady-state
// cost. Ownership: only the top-level StreamCandidates entry points
// draw from the pool, and their returned stream gives the set back on
// the first Close — member streams of a union share the owner's set and
// never release it.
var seenPool = sync.Pool{New: func() any { return make(map[string]struct{}) }}

// blockBufPool recycles keyedStream block buffers the same way. The
// pool holds *[]*entity.Entity so Put does not allocate a slice header.
var blockBufPool = sync.Pool{New: func() any { return new([]*entity.Entity) }}

// pooledSeen wraps an owner stream to return its seen set to the pool
// when closed.
type pooledSeen struct {
	CandidateStream
	seen map[string]struct{}
}

// Close implements CandidateStream, releasing the seen set exactly once.
func (p *pooledSeen) Close() {
	p.CandidateStream.Close()
	if p.seen != nil {
		clear(p.seen)
		seenPool.Put(p.seen)
		p.seen = nil
	}
}

// ownSeen wraps st so the pooled seen set is released on Close.
func ownSeen(st CandidateStream, seen map[string]struct{}) CandidateStream {
	return &pooledSeen{CandidateStream: st, seen: seen}
}

// seenStreamer is the internal union protocol: a stream that records the
// IDs it yields in a caller-supplied seen set and skips IDs already in
// it. MultiIndex hands all members one shared set, so the k-way union
// deduplicates as it streams with no second pass.
type seenStreamer interface {
	streamWithSeen(probe *entity.Entity, maxBlock int, seen map[string]struct{}) CandidateStream
}

// streamWithSeen opens a shared-seen stream, wrapping indexes without
// native support in a dedup filter.
func streamWithSeen(bi BlockIndex, probe *entity.Entity, maxBlock int, seen map[string]struct{}) CandidateStream {
	if ss, ok := bi.(seenStreamer); ok {
		return ss.streamWithSeen(probe, maxBlock, seen)
	}
	return &dedupStream{in: streamCandidates(bi, probe, maxBlock), seen: seen}
}

// ---------------------------------------------------------------------------
// Inverted key maps (token, q-gram)

// StreamCandidates implements CandidateStreamer: a lazy merge of the
// probe's posting lists, one key block at a time, deduplicating across
// blocks. Oversized blocks are skipped by the shared cap policy
// (matching.CapAllows) exactly like Candidates.
func (x *keyedIndex) StreamCandidates(probe *entity.Entity, maxBlock int) CandidateStream {
	seen := seenPool.Get().(map[string]struct{})
	return ownSeen(x.streamWithSeen(probe, maxBlock, seen), seen)
}

func (x *keyedIndex) streamWithSeen(probe *entity.Entity, maxBlock int, seen map[string]struct{}) CandidateStream {
	return &keyedStream{x: x, probe: probe, keys: x.keys(probe), maxBlock: maxBlock, seen: seen}
}

// keyedStream walks the probe's keys, buffering one admitted block at a
// time (Go map iteration cannot pause across Next calls, so the block —
// bounded by the cap when one is set — is the buffering unit; the buffer
// is reused across blocks).
type keyedStream struct {
	x        *keyedIndex
	probe    *entity.Entity
	keys     []string
	maxBlock int
	seen     map[string]struct{}
	buf      *[]*entity.Entity // pooled; nil until the first block fills
	ki, bi   int
	closed   bool
}

// Next implements CandidateStream.
func (s *keyedStream) Next() (*entity.Entity, bool) {
	for !s.closed {
		if s.buf != nil && s.bi < len(*s.buf) {
			e := (*s.buf)[s.bi]
			s.bi++
			return e, true
		}
		if s.ki >= len(s.keys) {
			return nil, false
		}
		block := s.x.byKey[s.keys[s.ki]]
		s.ki++
		size := len(block)
		if _, self := block[s.probe.ID]; self {
			size--
		}
		if !matching.CapAllows(size, s.maxBlock) {
			continue
		}
		if s.buf == nil {
			s.buf = blockBufPool.Get().(*[]*entity.Entity)
		}
		*s.buf = (*s.buf)[:0]
		s.bi = 0
		for id, cand := range block {
			if id == s.probe.ID {
				continue
			}
			if _, dup := s.seen[id]; dup {
				continue
			}
			s.seen[id] = struct{}{}
			*s.buf = append(*s.buf, cand)
		}
	}
	return nil, false
}

// Close implements CandidateStream.
func (s *keyedStream) Close() {
	s.closed = true
	if s.buf != nil {
		// Drop the entity pointers before pooling so the buffer does not
		// pin removed entities alive between queries.
		full := (*s.buf)[:cap(*s.buf)]
		clear(full)
		*s.buf = full[:0]
		blockBufPool.Put(s.buf)
		s.buf = nil
	}
}

// ---------------------------------------------------------------------------
// Sorted neighborhood

// StreamCandidates implements CandidateStreamer: a cursor over the
// probe's window in the order-maintained sorted list — no slice copy and
// no sort; the records are read in place.
func (x *SortedNeighborhoodIndex) StreamCandidates(probe *entity.Entity, maxBlock int) CandidateStream {
	seen := seenPool.Get().(map[string]struct{})
	return ownSeen(x.streamWithSeen(probe, maxBlock, seen), seen)
}

func (x *SortedNeighborhoodIndex) streamWithSeen(probe *entity.Entity, _ int, seen map[string]struct{}) CandidateStream {
	// Identical window arithmetic to Candidates: virtual position of the
	// probe, translated to coordinates of the list without its own record.
	pos := x.lowerBound(x.key(probe), probe.ID)
	self := -1
	if k, ok := x.keyOf[probe.ID]; ok {
		self = x.lowerBound(k, probe.ID)
	}
	m := len(x.recs)
	if self >= 0 {
		m--
		if self < pos {
			pos--
		}
	}
	lo := pos - x.window
	if lo < 0 {
		lo = 0
	}
	hi := pos + x.window - 1
	if hi > m-1 {
		hi = m - 1
	}
	return &snStream{x: x, probeID: probe.ID, seen: seen, self: self, i: lo, hi: hi}
}

// snStream is a windowed cursor over the sorted list. The cursor is
// positional, so a write that shifts the list between Next calls
// (outside the Index's locking, e.g. a raw BlockIndex under fuzz) could
// make it revisit a record — the seen set turns that into a skip, and
// positions are bounds-checked against the live list, so interleaved
// writes degrade to stale-but-unique yields and early exhaustion, never
// panics or duplicates. Under a MultiIndex union the seen set is the
// shared one.
type snStream struct {
	x       *SortedNeighborhoodIndex
	probeID string
	seen    map[string]struct{}
	self    int // position of the probe's own record, -1 if not indexed
	i, hi   int // cursor and last window position, probe-less coordinates
	closed  bool
}

// Next implements CandidateStream.
func (s *snStream) Next() (*entity.Entity, bool) {
	for !s.closed && s.i <= s.hi {
		full := s.i
		if s.self >= 0 && s.i >= s.self {
			full = s.i + 1
		}
		s.i++
		if full >= len(s.x.recs) {
			return nil, false
		}
		e := s.x.recs[full].e
		if e.ID == s.probeID {
			continue
		}
		if s.seen != nil {
			if _, dup := s.seen[e.ID]; dup {
				continue
			}
			s.seen[e.ID] = struct{}{}
		}
		return e, true
	}
	return nil, false
}

// Close implements CandidateStream.
func (s *snStream) Close() { s.closed = true }

// ---------------------------------------------------------------------------
// Multi-pass composite

// StreamCandidates implements CandidateStreamer: a streaming k-way union
// of the member streams sharing one seen set, so each candidate is
// yielded exactly once however many members propose it.
func (x *MultiIndex) StreamCandidates(probe *entity.Entity, maxBlock int) CandidateStream {
	seen := seenPool.Get().(map[string]struct{})
	return ownSeen(x.streamWithSeen(probe, maxBlock, seen), seen)
}

func (x *MultiIndex) streamWithSeen(probe *entity.Entity, maxBlock int, seen map[string]struct{}) CandidateStream {
	streams := make([]CandidateStream, len(x.members))
	for i, m := range x.members {
		streams[i] = streamWithSeen(m, probe, maxBlock, seen)
	}
	return &unionStream{streams: streams}
}

// unionStream drains member streams in order; members share one seen
// set, so later members skip what earlier members already yielded.
type unionStream struct {
	streams []CandidateStream
	i       int
}

// Next implements CandidateStream.
func (u *unionStream) Next() (*entity.Entity, bool) {
	for u.i < len(u.streams) {
		if e, ok := u.streams[u.i].Next(); ok {
			return e, true
		}
		u.streams[u.i].Close()
		u.i++
	}
	return nil, false
}

// Close implements CandidateStream.
func (u *unionStream) Close() {
	for ; u.i < len(u.streams); u.i++ {
		u.streams[u.i].Close()
	}
}

// ---------------------------------------------------------------------------
// Fallback adapters

// sliceStream serves a materialized candidate slice — the fallback for
// BlockIndexes without a lazy path (GenericIndex re-blocks the whole
// corpus per query anyway, so there is nothing to stream).
type sliceStream struct {
	es []*entity.Entity
	i  int
}

// Next implements CandidateStream.
func (s *sliceStream) Next() (*entity.Entity, bool) {
	if s.i >= len(s.es) {
		return nil, false
	}
	e := s.es[s.i]
	s.i++
	return e, true
}

// Close implements CandidateStream.
func (s *sliceStream) Close() { s.i = len(s.es) }

// dedupStream filters an inner stream through a shared seen set —
// adapts non-seenStreamer members into a MultiIndex union.
type dedupStream struct {
	in   CandidateStream
	seen map[string]struct{}
}

// Next implements CandidateStream.
func (d *dedupStream) Next() (*entity.Entity, bool) {
	for {
		e, ok := d.in.Next()
		if !ok {
			return nil, false
		}
		if _, dup := d.seen[e.ID]; dup {
			continue
		}
		d.seen[e.ID] = struct{}{}
		return e, true
	}
}

// Close implements CandidateStream.
func (d *dedupStream) Close() { d.in.Close() }
