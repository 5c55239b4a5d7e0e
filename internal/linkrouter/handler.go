package linkrouter

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"genlink/internal/linkindex"
	"genlink/internal/linkserver"
	"genlink/internal/matching"
)

// Handler returns the router's HTTP surface. It serves the genlinkd
// client API (POST /entities, GET/DELETE /entities/{id}, GET/POST
// /match, GET /stats) with linkserver's own wire types and parsing, so
// clients move from one node to the routed tier by changing the base
// URL, plus the router's own /metrics and /healthz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /entities", rt.handlePostEntities)
	mux.HandleFunc("GET /entities/{id}", rt.handleGetEntity)
	mux.HandleFunc("DELETE /entities/{id}", rt.handleDeleteEntity)
	mux.HandleFunc("GET /match", rt.handleMatch)
	mux.HandleFunc("POST /match", rt.handleMatchProbe)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		linkserver.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "partitions": rt.Partitions()})
	})
	return mux
}

// handlePostEntities splits the batch per owning partition with the
// Apply pipeline's dedup semantics (SplitBatch) and applies the
// sub-batches to the partition leaders in parallel. The response sums
// the per-leader acks. The fan-out is not atomic across partitions: on
// a partial failure the acked partitions stay applied and the response
// is 502 with the per-partition outcome, so a retry of the same batch
// is the recovery path (upserts are idempotent).
func (rt *Router) handlePostEntities(w http.ResponseWriter, r *http.Request) {
	entities, err := linkserver.DecodeEntities(w, r)
	if err != nil {
		linkserver.WriteDecodeError(w, err)
		return
	}
	rt.m.writeBatches.Add(1)
	parts := linkindex.SplitBatch(linkindex.Batch{Upserts: entities}, len(rt.groups))
	type legResult struct {
		ack linkserver.EntitiesAck
		err error
	}
	results := make(map[int]*legResult, len(parts))
	var wg sync.WaitGroup
	for pi, pb := range parts {
		if len(pb.Upserts) == 0 {
			continue
		}
		res := &legResult{}
		results[pi] = res
		body, merr := json.Marshal(pb.Upserts)
		if merr != nil {
			res.err = merr
			continue
		}
		wg.Add(1)
		go func(pi int, body []byte, res *legResult) {
			defer wg.Done()
			status, data, err := rt.writeGroup(r.Context(), pi, http.MethodPost, "/entities", body)
			if err != nil {
				res.err = err
				return
			}
			if status != http.StatusOK {
				res.err = fmt.Errorf("partition %d: status %d: %s", pi, status, truncate(data))
				return
			}
			if err := json.Unmarshal(data, &res.ack); err != nil {
				res.err = fmt.Errorf("partition %d: bad ack: %w", pi, err)
				return
			}
			rt.m.routedWrites[pi].Add(int64(res.ack.Added))
		}(pi, body, res)
	}
	wg.Wait()
	added, total := 0, 0
	perPart := make(map[string]any, len(results))
	var firstErr error
	for pi, res := range results {
		key := strconv.Itoa(pi)
		if res.err != nil {
			perPart[key] = map[string]string{"error": res.err.Error()}
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		perPart[key] = map[string]int{"added": res.ack.Added}
		added += res.ack.Added
		total += res.ack.Entities
	}
	if firstErr != nil {
		linkserver.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error":      firstErr.Error(),
			"added":      added,
			"partitions": perPart,
		})
		return
	}
	linkserver.WriteJSON(w, http.StatusOK, map[string]any{
		"added":      added,
		"entities":   total,
		"partitions": perPart,
	})
}

// handleGetEntity routes the get to the ID's owning group's read leg.
func (rt *Router) handleGetEntity(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	gi := linkindex.PartitionOf(id, len(rt.groups))
	status, data, err := rt.readLeg(r.Context(), gi, http.MethodGet, "/entities/"+url.PathEscape(id), nil)
	if err != nil {
		linkserver.WriteError(w, http.StatusBadGateway, err)
		return
	}
	writeRaw(w, status, data)
}

// handleDeleteEntity routes the delete to the owning group's leader.
func (rt *Router) handleDeleteEntity(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	gi := linkindex.PartitionOf(id, len(rt.groups))
	status, data, err := rt.writeGroup(r.Context(), gi, http.MethodDelete, "/entities/"+url.PathEscape(id), nil)
	if err != nil {
		linkserver.WriteError(w, http.StatusBadGateway, err)
		return
	}
	if status == http.StatusNoContent {
		rt.m.routedDeletes[gi].Add(1)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeRaw(w, status, data)
}

// handleMatch answers GET /match?id=X&k=N over the routed corpus: the
// stored probe is fetched through its owning group's read leg, then
// matched across all groups like any probe. Because each backend
// excludes its stored record with the probe's ID — and the owning group
// is the only one that can hold it — the result equals a single big
// index's QueryID: same links, same order.
func (rt *Router) handleMatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		linkserver.WriteError(w, http.StatusBadRequest, errors.New("missing id parameter"))
		return
	}
	k, err := linkserver.ParseK(r, rt.opts.DefaultK)
	if err != nil {
		linkserver.WriteError(w, http.StatusBadRequest, err)
		return
	}
	gi := linkindex.PartitionOf(id, len(rt.groups))
	status, probe, err := rt.readLeg(r.Context(), gi, http.MethodGet, "/entities/"+url.PathEscape(id), nil)
	if err != nil {
		linkserver.WriteError(w, http.StatusBadGateway, err)
		return
	}
	if status != http.StatusOK {
		writeRaw(w, status, probe)
		return
	}
	links, err := rt.fanOutMatch(r.Context(), probe, k)
	if err != nil {
		linkserver.WriteError(w, http.StatusBadGateway, err)
		return
	}
	rt.m.queries.Add(1)
	linkserver.WriteJSON(w, http.StatusOK, linkserver.ToMatchResponse(id, k, links))
}

// handleMatchProbe answers POST /match?k=N with a probe entity in the
// body, fanning it out to every partition group and merging the top-k.
func (rt *Router) handleMatchProbe(w http.ResponseWriter, r *http.Request) {
	k, err := linkserver.ParseK(r, rt.opts.DefaultK)
	if err != nil {
		linkserver.WriteError(w, http.StatusBadRequest, err)
		return
	}
	entities, err := linkserver.DecodeEntities(w, r)
	if err != nil {
		linkserver.WriteDecodeError(w, err)
		return
	}
	if len(entities) != 1 {
		linkserver.WriteError(w, http.StatusBadRequest, errors.New("POST /match takes exactly one entity"))
		return
	}
	probe, err := json.Marshal(entities[0])
	if err != nil {
		linkserver.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	links, err := rt.fanOutMatch(r.Context(), probe, k)
	if err != nil {
		linkserver.WriteError(w, http.StatusBadGateway, err)
		return
	}
	rt.m.queries.Add(1)
	linkserver.WriteJSON(w, http.StatusOK, linkserver.ToMatchResponse(entities[0].ID, k, links))
}

// fanOutMatch POSTs the probe to every partition group concurrently
// (one read leg each) and merges the per-group winners with the same
// bounded min-heap merge the sharded index uses per-shard — so the
// routed answer keeps the index's ordering contract (descending score,
// ascending BID on ties). A leg that no node of its group answers with
// a 200 fails the query: a silently dropped partition would return a
// confidently wrong top-k. JSON float64 scores round-trip exactly
// (encoding/json emits the shortest representation that parses back to
// the same bits), so cross-node merges compare the same scores a
// single-process merge would.
func (rt *Router) fanOutMatch(ctx context.Context, probe []byte, k int) ([]matching.Link, error) {
	path := "/match?k=" + strconv.Itoa(k)
	perGroup := make([][]matching.Link, len(rt.groups))
	errs := make([]error, len(rt.groups))
	var wg sync.WaitGroup
	for gi := range rt.groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			t0 := time.Now()
			status, data, err := rt.readLeg(ctx, gi, http.MethodPost, path, probe)
			if err != nil {
				errs[gi] = err
				return
			}
			rt.m.legLatency[gi].Observe(time.Since(t0))
			if status != http.StatusOK {
				errs[gi] = fmt.Errorf("status %d: %s", status, truncate(data))
				return
			}
			var resp linkserver.MatchResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				errs[gi] = err
				return
			}
			for _, l := range resp.Links {
				perGroup[gi] = append(perGroup[gi], matching.Link{AID: resp.Query, BID: l.ID, Score: l.Score})
			}
		}(gi)
	}
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			rt.m.legErrors.Add(1)
			return nil, fmt.Errorf("partition %d: %w", gi, err)
		}
	}
	return linkindex.MergeTopK(perGroup, k), nil
}

// readLeg forwards one read to partition group gi and returns the first
// authoritative answer, under the policy the package doc states: start
// at pickRead's node, hedge once to alternate's node after HedgeAfter
// (the first authoritative answer wins and the loser is cancelled), and
// once every launched attempt has failed — a transport error or a 5xx,
// which marks the node unhealthy — fall over to the next untried node
// in writeOrder. Any other status is authoritative and returned as-is,
// counted by the answering node's polled role. The error is the last
// failure, once no node of the group is left to try.
func (rt *Router) readLeg(ctx context.Context, gi int, method, path string, body []byte) (int, []byte, error) {
	g := rt.groups[gi]
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		addr   string
		status int
		data   []byte
		err    error
		hedge  bool
	}
	// Each address is launched at most once: every node, plus a leader
	// guess a 403 body named from outside the configured set.
	ch := make(chan attempt, len(g.nodes)+1)
	launched := make(map[string]bool)
	inflight := 0
	launch := func(addr string, hedge bool) {
		launched[addr] = true
		inflight++
		go func() {
			status, data, err := rt.do(ctx, method, addr+path, body)
			ch <- attempt{addr: addr, status: status, data: data, err: err, hedge: hedge}
		}()
	}

	primary := g.pickRead(rt.opts.MaxLag)
	launch(primary, false)

	var hedgeCh <-chan time.Time
	if rt.opts.HedgeAfter > 0 {
		timer := time.NewTimer(rt.opts.HedgeAfter)
		defer timer.Stop()
		hedgeCh = timer.C
	}

	var lastErr error
	for inflight > 0 {
		select {
		case <-hedgeCh:
			hedgeCh = nil
			if alt := g.alternate(primary, rt.opts.MaxLag); alt != "" && !launched[alt] {
				rt.m.hedgesFired.Add(1)
				launch(alt, true)
			}
		case a := <-ch:
			inflight--
			if a.err == nil && a.status < 500 {
				if a.hedge {
					rt.m.hedgeWins.Add(1)
				}
				rt.m.observeRead(g.isFollower(a.addr))
				return a.status, a.data, nil
			}
			g.markUnhealthy(a.addr)
			lastErr = a.err
			if lastErr == nil {
				lastErr = fmt.Errorf("linkrouter: %s%s: status %d: %s", a.addr, path, a.status, truncate(a.data))
			}
			if inflight == 0 {
				for _, addr := range g.writeOrder() {
					if !launched[addr] {
						launch(addr, false)
						break
					}
				}
			}
		}
	}
	return 0, nil, lastErr
}

// handleStats sums /stats across the partition groups (one read leg
// each). Per-group figures ride along so an imbalanced partition
// shows up directly, and so do each group's shard count and candidate
// source, which a node derives from its own cores and rule.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	type groupStats struct {
		Leader     string `json:"leader"`
		Entities   int    `json:"entities"`
		Keys       int    `json:"keys"`
		Shards     int    `json:"shards"`
		Candidates string `json:"candidates"`
		Err        string `json:"error,omitempty"`
	}
	out := make([]groupStats, len(rt.groups))
	var wg sync.WaitGroup
	for gi := range rt.groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			g := rt.groups[gi]
			g.mu.Lock()
			out[gi].Leader = g.leader
			g.mu.Unlock()
			status, data, err := rt.readLeg(r.Context(), gi, http.MethodGet, "/stats", nil)
			if err != nil {
				out[gi].Err = err.Error()
				return
			}
			if status != http.StatusOK {
				out[gi].Err = fmt.Sprintf("status %d", status)
				return
			}
			// A node's /stats has no leader or error field, so decoding
			// it in place fills only the figures the node reports.
			if err := json.Unmarshal(data, &out[gi]); err != nil {
				out[gi].Err = err.Error()
				return
			}
		}(gi)
	}
	wg.Wait()
	total, keys := 0, 0
	var firstErr string
	for _, gs := range out {
		if gs.Err != "" && firstErr == "" {
			firstErr = gs.Err
		}
		total += gs.Entities
		keys += gs.Keys
	}
	resp := map[string]any{
		"entities":   total,
		"keys":       keys,
		"partitions": len(rt.groups),
		"groups":     out,
	}
	if firstErr != "" {
		resp["error"] = firstErr
		linkserver.WriteJSON(w, http.StatusBadGateway, resp)
		return
	}
	linkserver.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics exposes the router's counters: per-partition routed
// writes and leg-latency buckets, hedge and retarget counts, and the
// replica-read ratio (the offload the freshness knob is buying), plus
// the polled view of every backend node.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s := rt.Metrics()
	buckets := make(map[string]map[string]int64, len(rt.groups))
	for gi := range rt.groups {
		buckets["partition_"+strconv.Itoa(gi)] = rt.m.legLatency[gi].Buckets()
	}
	groups := make([]map[string]any, len(rt.groups))
	for gi, g := range rt.groups {
		g.mu.Lock()
		nodes := make(map[string]any, len(g.nodes))
		for _, addr := range g.nodes {
			st := g.state[addr]
			nodes[addr] = map[string]any{
				"role":                st.role,
				"healthy":             st.healthy,
				"applied_seq":         st.appliedSeq,
				"replica_lag_records": st.lag,
				"last_error":          st.lastErr,
			}
		}
		groups[gi] = map[string]any{"leader": g.leader, "nodes": nodes}
		g.mu.Unlock()
	}
	linkserver.WriteJSON(w, http.StatusOK, map[string]any{
		"partitions":          rt.Partitions(),
		"max_lag":             rt.opts.MaxLag,
		"hedge_after_ms":      float64(rt.opts.HedgeAfter.Microseconds()) / 1000,
		"write_batches":       s.WriteBatches,
		"routed_writes":       s.RoutedWrites,
		"routed_deletes":      s.RoutedDeletes,
		"queries":             s.Queries,
		"hedges_fired":        s.HedgesFired,
		"hedge_wins":          s.HedgeWins,
		"replica_reads":       s.ReplicaReads,
		"leader_reads":        s.LeaderReads,
		"replica_read_ratio":  s.ReplicaReadRatio(),
		"retargets":           s.Retargets,
		"leg_errors":          s.LegErrors,
		"leg_latency_buckets": buckets,
		"groups":              groups,
	})
}

// writeRaw relays a backend response unchanged.
func writeRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
}
