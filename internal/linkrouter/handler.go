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

// handleGetEntity routes the get to the ID's owning group, lag-aware.
func (rt *Router) handleGetEntity(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	gi := linkindex.PartitionOf(id, len(rt.groups))
	status, data, err := rt.readGroup(r.Context(), gi, http.MethodGet, "/entities/"+url.PathEscape(id), nil)
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
// stored probe is fetched from its owning group (lag-aware), then
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
	status, probe, err := rt.readGroup(r.Context(), gi, http.MethodGet, "/entities/"+url.PathEscape(id), nil)
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
// (each leg lag-aware and hedged) and merges the per-group winners with
// the same bounded min-heap merge the sharded index uses per-shard —
// so the routed answer keeps the index's ordering contract (descending
// score, ascending BID on ties). A leg that fails on every node of its
// group fails the query: a silently dropped partition would return a
// confidently wrong top-k.
func (rt *Router) fanOutMatch(ctx context.Context, probe []byte, k int) ([]matching.Link, error) {
	path := "/match?k=" + strconv.Itoa(k)
	perGroup := make([][]matching.Link, len(rt.groups))
	errs := make([]error, len(rt.groups))
	var wg sync.WaitGroup
	for gi := range rt.groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			perGroup[gi], errs[gi] = rt.matchLeg(ctx, gi, path, probe)
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

// matchLeg runs one group's leg of a fan-out query: primary request to
// the lag-aware read pick; if it has not answered within HedgeAfter, a
// hedge fires at another node of the group and the first success wins
// (the loser is cancelled). A failed attempt falls back to the group's
// remaining nodes, so a leg only errors when the whole group is down.
func (rt *Router) matchLeg(ctx context.Context, gi int, path string, probe []byte) ([]matching.Link, error) {
	g := rt.groups[gi]
	t0 := time.Now()
	legCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		links   []matching.Link
		err     error
		addr    string
		replica bool
		hedge   bool
	}
	ch := make(chan attempt, len(g.nodes)+2)
	launched := make(map[string]bool)
	inflight := 0
	launch := func(addr string, replica, hedge bool) {
		if addr == "" || launched[addr] {
			return
		}
		launched[addr] = true
		inflight++
		go func() {
			links, err := rt.doMatch(legCtx, addr+path, probe)
			ch <- attempt{links: links, err: err, addr: addr, replica: replica, hedge: hedge}
		}()
	}

	primary, primReplica := g.pickRead(rt.opts.MaxLag)
	launch(primary, primReplica, false)

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
			if alt := g.alternate(primary); alt != "" && !launched[alt] {
				rt.m.hedgesFired.Add(1)
				launch(alt, false, true)
			}
		case a := <-ch:
			inflight--
			if a.err != nil {
				g.markUnhealthy(a.addr)
				lastErr = a.err
				if inflight == 0 {
					// Fail over to any node of the group not yet tried.
					for _, addr := range g.writeOrder() {
						if !launched[addr] {
							launch(addr, false, false)
							break
						}
					}
				}
				continue
			}
			if a.hedge {
				rt.m.hedgeWins.Add(1)
			}
			rt.m.observeRead(a.replica)
			rt.m.legLatency[gi].Observe(time.Since(t0))
			return a.links, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no node answered in partition %d", gi)
	}
	return nil, lastErr
}

// doMatch issues one POST /match attempt and decodes the backend's
// links into the merge input. JSON float64 scores round-trip exactly
// (encoding/json emits the shortest representation that parses back to
// the same bits), so cross-node merges compare the same scores a
// single-process merge would.
func (rt *Router) doMatch(ctx context.Context, url string, probe []byte) ([]matching.Link, error) {
	status, data, err := rt.do(ctx, http.MethodPost, url, probe)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, truncate(data))
	}
	var resp linkserver.MatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	links := make([]matching.Link, 0, len(resp.Links))
	for _, l := range resp.Links {
		links = append(links, matching.Link{AID: resp.Query, BID: l.ID, Score: l.Score})
	}
	return links, nil
}

// handleStats sums /stats across the partition groups (each leg
// lag-aware). Per-group figures ride along so an imbalanced partition
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
			status, data, err := rt.readGroup(r.Context(), gi, http.MethodGet, "/stats", nil)
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
