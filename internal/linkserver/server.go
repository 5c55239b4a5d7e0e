// Package linkserver is the HTTP surface of one genlinkd node: handlers
// over a sharded index (optionally durable, optionally a read replica),
// the node's counters and the listen/drain/shutdown lifecycle.
// cmd/genlinkd builds the handles from its flags and hands them to New;
// internal/linkrouter serves the same wire contract (wire.go) over
// partition groups of such nodes.
package linkserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
)

// Serve runs handler on addr until SIGINT/SIGTERM, then stops accepting
// connections, drains in-flight requests and calls onShutdown. It
// returns only after a graceful shutdown; a listen failure is fatal.
// The routing tier runs under the same lifecycle as an index node.
func Serve(addr string, handler http.Handler, onShutdown func()) {
	// Explicit timeouts so stalled clients (slowloris headers, never-
	// finished bodies, idle keep-alives) cannot pin goroutines forever on
	// a long-lived service.
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down: draining in-flight requests...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		onShutdown()
	}
}

// metrics is the server's expvar-style counter set: monotonically
// increasing atomics, exposed as JSON on GET /metrics.
type metrics struct {
	queries    atomic.Int64
	writes     atomic.Int64 // entities upserted
	deletes    atomic.Int64
	snapshots  atomic.Int64
	backfilled atomic.Int64 // entities upserted through backfill sessions
	latency    Histogram    // over both match endpoints
}

// observeQuery records one query and its latency.
func (m *metrics) observeQuery(d time.Duration) {
	m.queries.Add(1)
	m.latency.Observe(d)
}

// Config carries the handles a Server serves; cmd/genlinkd builds them
// from its flags. Only Index is required.
type Config struct {
	Index      *linkindex.ShardedIndex // answers every read, and every write when Durable is nil
	Durable    *linkindex.DurableIndex // the -wal-dir wrapper of Index (nil: in-memory only)
	Follower   *linkindex.Follower     // set on a -follow read replica; Durable is then its local log
	DefaultK   int                     // k of a match request that names none (≤ 0 means 10)
	RecoveryMs float64                 // startup recovery time, reported as last_recovery_ms
}

// Server wires an index into HTTP handlers. Beyond the default k and the
// metrics counters it holds no state of its own: the index is the single
// synchronized source of truth (the backfill session included), so
// handlers are trivially safe under concurrent requests. When dix is set
// (-wal-dir), every mutation routes through the durable wrapper — logged
// before applied — and ix is its underlying index, used for reads.
type Server struct {
	ix         *linkindex.ShardedIndex
	dix        *linkindex.DurableIndex
	fol        *linkindex.Follower // read replica (-follow); nil on a leader
	defaultK   int
	recoveryMs float64
	m          metrics
}

// New returns the server of one node over cfg's handles.
func New(cfg Config) *Server {
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 10
	}
	return &Server{ix: cfg.Index, dix: cfg.Durable, fol: cfg.Follower, defaultK: cfg.DefaultK, recoveryMs: cfg.RecoveryMs}
}

// Shutdown is the graceful-shutdown hook: on a durable server it
// takes a final snapshot (compacting the log) and closes the WAL; on an
// in-memory server it is a no-op. The final snapshot is CommitBackfill,
// a plain snapshot that also commits an open backfill session: skipping
// the commit would lose the whole load (Snapshot refuses while a session
// is open).
func (s *Server) Shutdown() error {
	// Stop a follower's tailing goroutine FIRST: a record shipped from
	// the leader between the final snapshot and the log close would be
	// applied in memory but never covered — the restart would silently
	// lose it from the snapshot's view of the state. Stop() waits for the
	// tail loop to exit, so nothing can land once it returns.
	if s.fol != nil {
		s.fol.Stop()
	}
	if s.dix == nil {
		return nil
	}
	_, err := s.dix.CommitBackfill()
	if err == nil {
		s.m.snapshots.Add(1)
	}
	if cerr := s.dix.Close(); err == nil {
		err = cerr
	}
	return err
}

// Handler builds the HTTP mux (method-qualified patterns, Go 1.22+).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /entities", s.handlePostEntities)
	mux.HandleFunc("POST /backfill/commit", s.handleBackfillCommit)
	mux.HandleFunc("GET /entities/{id}", s.handleGetEntity)
	mux.HandleFunc("DELETE /entities/{id}", s.handleDeleteEntity)
	mux.HandleFunc("GET /match", s.handleMatch)
	mux.HandleFunc("POST /match", s.handleMatchProbe)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /promote", s.handlePromote)
	if s.dix != nil {
		// Replication source endpoints: any durable node can feed
		// followers — including a follower itself (chained replication),
		// since its local log is byte-identical to the leader's.
		mux.HandleFunc("GET /wal/stream", s.dix.ServeWALStream)
		mux.HandleFunc("GET /wal/snapshot", s.dix.ServeWALSnapshot)
	}
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is liveness, with an optional freshness gate: GET
// /healthz?max_lag=N answers 503 while this node's replica_lag_records
// exceeds N, so a router or load balancer can stop sending reads to a
// replica that has fallen behind. Leaders (and promoted replicas) have
// zero lag by definition and always pass the gate; without max_lag the
// endpoint is plain liveness. The gated body also carries a follower's
// last_error (empty on a leader), so a replica stuck retrying, say a
// refused re-bootstrap, says why.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("max_lag")
	if raw == "" {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	maxLag, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid max_lag %q (want a non-negative integer)", raw))
		return
	}
	role, lag, lastErr := "leader", uint64(0), ""
	if s.fol != nil {
		st := s.fol.Status()
		role, lag, lastErr = st.Role, st.LagRecords, st.LastError
	}
	out := map[string]any{
		"status":              "ok",
		"role":                role,
		"replica_lag_records": lag,
		"max_lag":             maxLag,
		"last_error":          lastErr,
	}
	if lag > maxLag {
		out["status"] = "lagging"
		WriteJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	WriteJSON(w, http.StatusOK, out)
}

// apply is the server's one write path: POST /entities and DELETE
// /entities/{id} each send one batch through it. With -wal-dir the batch
// goes through the durable wrapper — logged before it is applied, and
// durable under the -fsync policy once apply returns nil; a log failure
// means nothing was applied, so the client sees a 500 instead of a lying
// 200. Without -wal-dir it goes straight into the in-memory index.
// Either way the batch is one ShardedIndex.Apply: atomic per shard with
// respect to queries, no barrier across shards, the last upsert of an ID
// wins and a delete beats an upsert.
func (s *Server) apply(b linkindex.Batch) (linkindex.ApplyResult, error) {
	if s.dix != nil {
		return s.dix.Apply(b)
	}
	return s.ix.Apply(b), nil
}

// handlePostEntities decodes one entity or an array, each with its
// canonical bytes, and upserts them as one batch through apply: each
// shard is locked once, old versions leave through the bulk-remove path
// and new versions enter through the BulkAdd path. Concurrent queries see
// each shard's slice of the batch either fully applied or not at all.
// "added" counts distinct IDs (a repeated ID upserts once).
func (s *Server) handlePostEntities(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	entities, err := DecodeEncoded(w, r)
	if err != nil {
		WriteDecodeError(w, err)
		return
	}
	if bf := r.URL.Query().Get("backfill"); bf == "1" || bf == "true" {
		s.handleBackfillEntities(w, entities)
		return
	}
	res, err := s.apply(linkindex.Batch{Encoded: entities})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.writes.Add(int64(res.Upserted))
	WriteJSON(w, http.StatusOK, EntitiesAck{Added: res.Upserted, Entities: s.ix.Len()})
}

// handleBackfillEntities is the ?backfill=1 branch of POST /entities:
// the batch applies through DurableIndex.Backfill — per-shard parallel
// build, no WAL append, no fsync — which opens the session on first use.
// Nothing is durable until POST /backfill/commit; the response says so
// explicitly so a 200 here cannot be mistaken for the logged path's
// durability acknowledgment.
func (s *Server) handleBackfillEntities(w http.ResponseWriter, entities []entity.Encoded) {
	if s.dix == nil {
		WriteError(w, http.StatusConflict, errors.New("backfill mode requires -wal-dir (there is no durability barrier to commit to)"))
		return
	}
	res, pending, err := s.dix.Backfill(linkindex.Batch{Encoded: entities})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.writes.Add(int64(res.Upserted))
	s.m.backfilled.Add(int64(res.Upserted))
	WriteJSON(w, http.StatusOK, map[string]any{
		"added":            res.Upserted,
		"entities":         s.ix.Len(),
		"backfill_pending": pending,
		"durable":          false,
	})
}

// handleBackfillCommit closes the open backfill session with
// DurableIndex.CommitBackfill: one atomic snapshot makes every
// backfilled entity durable and compacts the log. 409 when no session is
// open. On a snapshot failure the session stays open so the commit can
// be retried.
func (s *Server) handleBackfillCommit(w http.ResponseWriter, _ *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	if s.dix == nil {
		WriteError(w, http.StatusConflict, errors.New("backfill mode requires -wal-dir"))
		return
	}
	if !s.dix.Backfilling() {
		WriteError(w, http.StatusConflict, errors.New("no open backfill session (POST /entities?backfill=1 opens one)"))
		return
	}
	t0 := time.Now()
	committed, err := s.dix.CommitBackfill()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.snapshots.Add(1)
	dm := s.dix.Metrics()
	WriteJSON(w, http.StatusOK, map[string]any{
		"committed":    committed,
		"entities":     s.ix.Len(),
		"snapshot_seq": dm.SnapshotSeq,
		"ms":           float64(time.Since(t0).Microseconds()) / 1000,
	})
}

// rejectReplicaWrite answers 403 with the leader's address when this
// node is an unpromoted follower — writes must go to the leader, and the
// body tells the client where that is.
func (s *Server) rejectReplicaWrite(w http.ResponseWriter) bool {
	if s.fol == nil || s.fol.Promoted() {
		return false
	}
	WriteJSON(w, http.StatusForbidden, ErrorBody{
		Error:  "read-only replica: send writes to the leader",
		Leader: s.fol.Leader(),
	})
	return true
}

// handleGetEntity answers a stored entity's canonical bytes as they are
// stored: WriteJSON's body of the entity, json.Marshal's bytes and a
// newline, without decoding or marshaling anything.
func (s *Server) handleGetEntity(w http.ResponseWriter, r *http.Request) {
	js, ok := s.ix.JSON(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err := io.WriteString(w, js)
	if err == nil {
		_, err = io.WriteString(w, "\n")
	}
	if err != nil {
		log.Printf("write response: %v", err)
	}
}

// handleDeleteEntity deletes one entity through apply. An unknown ID
// answers 404 without logging anything: the existence check runs first,
// in both modes. A delete that loses a race to another delete of the same
// ID between the check and the write applies nothing (Deleted == 0) and
// also answers 404, so a delete is never counted twice.
func (s *Server) handleDeleteEntity(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	id := r.PathValue("id")
	if !s.ix.Contains(id) {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", id))
		return
	}
	res, err := s.apply(linkindex.Batch{Deletes: []string{id}})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if res.Deleted == 0 {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", id))
		return
	}
	s.m.deletes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleMatch answers GET /match?id=X&k=N for a stored entity.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing id parameter"))
		return
	}
	k, err := ParseK(r, s.defaultK)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	t0 := time.Now()
	links, ok := s.ix.QueryID(id, k)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", id))
		return
	}
	s.m.observeQuery(time.Since(t0))
	WriteJSON(w, http.StatusOK, ToMatchResponse(id, k, links))
}

// handleMatchProbe answers POST /match?k=N with a probe entity in the
// body, matching it without indexing it. If the probe's ID is already
// indexed, the stored record with that ID is treated as the probe's own
// record and excluded from the results (the Index self-match rule) —
// probe with a fresh ID to match against the entire corpus.
func (s *Server) handleMatchProbe(w http.ResponseWriter, r *http.Request) {
	k, err := ParseK(r, s.defaultK)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	entities, err := DecodeEntities(w, r)
	if err != nil {
		WriteDecodeError(w, err)
		return
	}
	if len(entities) != 1 {
		WriteError(w, http.StatusBadRequest, errors.New("POST /match takes exactly one entity"))
		return
	}
	t0 := time.Now()
	links := s.ix.Query(entities[0], k)
	s.m.observeQuery(time.Since(t0))
	WriteJSON(w, http.StatusOK, ToMatchResponse(entities[0].ID, k, links))
}

// handleSnapshot persists on demand: it snapshots into the WAL directory
// and compacts the log. Without -wal-dir there is nowhere to write: 409.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.dix == nil {
		WriteError(w, http.StatusConflict, errors.New("server runs without -wal-dir; no snapshot destination configured"))
		return
	}
	t0 := time.Now()
	if err := s.dix.Snapshot(); err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.snapshots.Add(1)
	dm := s.dix.Metrics()
	WriteJSON(w, http.StatusOK, map[string]any{
		"wal_dir":      s.dix.Dir(),
		"snapshot_seq": dm.SnapshotSeq,
		"wal_segments": dm.WALSegments,
		"entities":     s.ix.Len(),
		"ms":           float64(time.Since(t0).Microseconds()) / 1000,
	})
}

// handlePromote flips a follower into a leader: stop tailing, cut a
// snapshot at the promote point, then accept writes. Idempotent — a
// second promote just re-snapshots. 409 on a node that isn't a replica.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if s.fol == nil {
		WriteError(w, http.StatusConflict, errors.New("not a replica (-follow): nothing to promote"))
		return
	}
	t0 := time.Now()
	if err := s.fol.Promote(); err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.snapshots.Add(1)
	log.Printf("promoted to leader at applied seq %d", s.dix.AppliedSeq())
	WriteJSON(w, http.StatusOK, map[string]any{
		"role":        "leader",
		"applied_seq": s.dix.AppliedSeq(),
		"entities":    s.ix.Len(),
		"ms":          float64(time.Since(t0).Microseconds()) / 1000,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.ix.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"entities":       st.Entities,
		"keys":           st.Keys,
		"blocker":        st.Blocker,
		"candidates":     st.Candidates,
		"threshold":      st.Threshold,
		"shards":         st.Shards,
		"shard_entities": st.ShardEntities,
	})
}

// handleMetrics exposes the counter set plus point-in-time gauges from
// the index (NodeMetrics names every key).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.ix.Stats()
	out := NodeMetrics{
		Entities:            st.Entities,
		Shards:              st.Shards,
		ShardEntities:       st.ShardEntities,
		Keys:                st.Keys,
		Queries:             s.m.queries.Load(),
		Writes:              s.m.writes.Load(),
		Deletes:             s.m.deletes.Load(),
		Snapshots:           s.m.snapshots.Load(),
		QueryLatencyBuckets: s.m.latency.Buckets(),
		StreamEarlyExits:    st.StreamEarlyExits,
		LastRecoveryMs:      s.recoveryMs,
		Backfilled:          s.m.backfilled.Load(),
	}
	// Durability gauges: zero-valued without -wal-dir so dashboards can
	// rely on the keys existing.
	if s.dix != nil {
		dm := s.dix.Metrics()
		out.WALRecords, out.WALSegments, out.WALSnapshotSeq = dm.WALRecords, dm.WALSegments, dm.SnapshotSeq
		out.BackfillActive = s.dix.Backfilling()
	}
	// Replication gauges, same always-present convention: a non-replica
	// reports role "leader", its own applied seq, zero lag and no error.
	out.Role, out.AppliedSeq = "leader", out.WALRecords
	if s.fol != nil {
		rs := s.fol.Status()
		out.Role, out.Leader, out.AppliedSeq = rs.Role, rs.Leader, rs.AppliedSeq
		out.ReplicaLagRecords, out.ReplicaLagMs, out.LastError = rs.LagRecords, rs.LagMs, rs.LastError
	}
	WriteJSON(w, http.StatusOK, out)
}
