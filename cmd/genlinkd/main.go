// Command genlinkd serves a learned linkage rule as an online matching
// service: entities are added, updated and removed over HTTP while
// queries return the top-k matches of an entity against the current
// corpus — the incremental sharded index (pkg/genlinkapi.NewShardedIndex)
// instead of the batch pipeline, so nothing is ever re-blocked.
//
// Usage:
//
//	genlinkd -rule rule.json [-addr :8080] [-blocker multipass] [-threshold 0.5] [-shards 0]
//	genlinkd -dataset Cora [-population 100] [-iterations 10]   # learn at startup, bulk-load side B
//	genlinkd -rule rule.json -wal-dir /var/lib/genlink          # crash-safe: WAL + auto-snapshots
//	genlinkd -follow leader:8080 -wal-dir /var/lib/replica      # read replica: tail the leader's WAL
//	genlinkd -route "l1:8080,f1:8081;l2:8080,f2:8081"           # stateless routing tier over partition groups
//
// The corpus is hash-partitioned over -shards partitions (0 means one
// per CPU), so writes stall only the shard they touch and queries fan
// out in parallel. Without -wal-dir the index lives in memory only.
//
// -wal-dir is the one persistence mode, and it is crash-safe: every
// write is appended to a segmented, CRC-checked write-ahead log before
// it is applied (-fsync batch|interval|off selects when it hits disk),
// a snapshot is taken automatically whenever -auto-snapshot records are
// not yet covered by one (and on demand via POST /snapshot), and log
// segments a snapshot covers are compacted away. At startup the state is
// recovered from the newest valid snapshot plus the log tail (taking
// precedence over -rule/-dataset seeding) — a kill -9 mid-write loses at
// most the final torn, unacknowledged record under -fsync batch.
// Graceful shutdown (SIGINT/SIGTERM) drains in-flight requests, takes a
// final snapshot and closes the log.
//
// On a durable server, POST /entities?backfill=1 routes the batch
// through a bulk-backfill session instead of the log: batches apply
// through the per-shard parallel pipeline with no per-batch WAL
// append/fsync, and POST /backfill/commit makes the whole load durable
// with one atomic snapshot barrier. A crash before the commit recovers
// the pre-backfill state (regular logged writes keep their own
// durability throughout). Graceful shutdown commits an open session.
//
// With -follow the server is an asynchronous read replica: it bootstraps
// from the leader's newest snapshot (or recovers its own local state and
// re-tails from the last applied seq), then streams the leader's WAL
// records into its own crash-safe log. Replicas serve every read
// endpoint and reject writes with 403 + the leader's address;
// GET /metrics reports applied_seq, replica_lag_records and
// replica_lag_ms. POST /promote flips a replica to a leader: tailing
// stops, a snapshot is cut at the promote point, writes are accepted.
// When a replica falls behind the leader's log compaction it re-
// bootstraps from the leader's snapshot automatically.
//
// With -route the process serves no index at all: it is the stateless
// scale-out routing tier (internal/linkrouter) over N partition groups,
// each "leader,replica,..." and separated by semicolons. Entity IDs are
// hash-partitioned across the groups with the index's own placement
// function, write batches are split per owning partition and applied to
// the leaders in parallel, match queries fan out to every group and
// merge with the index's top-k contract. -max-lag serves reads from
// replicas while their lag is within the bound, -hedge-after duplicates
// slow fan-out legs, -route-poll paces the membership/lag poll. The
// router follows 403 leader redirects (and survives kill -9 + promote;
// see scripts/router_smoke.sh) and serves its own /metrics.
//
// -pprof serves net/http/pprof on a second, normally-loopback address so
// the parallel ingest/recovery paths can be profiled in situ; it is off
// by default and shares nothing with the service mux.
//
// Endpoints:
//
//	POST   /entities        add or update entities; body is one entity
//	                        {"id": "...", "properties": {"p": ["v", ...]}}
//	                        or an array of them; the whole body is applied
//	                        as one batch through the sharded write pipeline
//	                        (?backfill=1 on a -wal-dir server: apply via
//	                        the unlogged bulk-backfill session)
//	POST   /backfill/commit commit the open backfill session: one atomic
//	                        snapshot barrier makes the whole load durable
//	                        (409 without -wal-dir or an open session)
//	DELETE /entities/{id}   remove an entity (404 if unknown)
//	GET    /entities/{id}   fetch a stored entity
//	GET    /match?id=X&k=10 top-k matches of stored entity X against the
//	                        rest of the corpus (k=0: all above threshold)
//	POST   /match?k=10      top-k matches of the entity in the body,
//	                        without adding it to the corpus (a stored
//	                        entity with the same id is excluded as the
//	                        probe's own record)
//	POST   /snapshot        snapshot into the -wal-dir and compact the
//	                        log (409 if the server runs without -wal-dir)
//	GET    /wal/stream      stream committed WAL records from from_seq
//	                        (replication wire; -wal-dir servers only)
//	GET    /wal/snapshot    newest snapshot file, seq in X-Snapshot-Seq
//	POST   /promote         flip a -follow replica to leader (409 on
//	                        non-replicas)
//	GET    /stats           corpus size, index keys, blocker, threshold,
//	                        shard count and per-shard sizes
//	GET    /metrics         expvar-style counters: entities, queries,
//	                        writes, deletes, snapshots, per-shard sizes,
//	                        query latency buckets, wal_records,
//	                        wal_segments, wal_snapshot_seq,
//	                        last_recovery_ms
//	GET    /healthz         liveness; ?max_lag=N gates on freshness:
//	                        503 while replica_lag_records exceeds N
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"genlink/pkg/genlinkapi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genlinkd: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		ruleFile   = flag.String("rule", "", "JSON file holding the linkage rule to serve")
		dataset    = flag.String("dataset", "", "learn a rule on a paper dataset at startup and bulk-load its B source (alternative to -rule)")
		population = flag.Int("population", 100, "population size for -dataset startup learning")
		iterations = flag.Int("iterations", 10, "iterations for -dataset startup learning")
		seed       = flag.Int64("seed", 1, "random seed for -dataset startup learning")
		blocker    = flag.String("blocker", "multipass", "blocking strategy: token, sortedneighborhood, qgram or multipass")
		threshold  = flag.Float64("threshold", 0, "minimum link score (0 = rule match threshold)")
		k          = flag.Int("k", 10, "default number of matches per query (k= overrides per request)")
		shards     = flag.Int("shards", 0, "index shard count (0 = one per CPU)")
		walDir     = flag.String("wal-dir", "", "durability directory: write-ahead log + auto-snapshots, recovered at startup")
		fsync      = flag.String("fsync", "batch", "WAL fsync policy: batch (fsync per write), interval (group-commit) or off")
		fsyncInt   = flag.Duration("fsync-interval", 100*time.Millisecond, "group-commit period for -fsync interval")
		autoSnap   = flag.Int("auto-snapshot", 10000, "auto-snapshot after this many WAL records (negative disables)")
		follow     = flag.String("follow", "", "run as a read replica of this leader address (requires -wal-dir; excludes -rule/-dataset)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; off when empty)")
		route      = flag.String("route", "", `run as a stateless routing tier over partition groups: "leader1,replica1,...;leader2,..." (excludes every index-serving flag)`)
		maxLag     = flag.Uint64("max-lag", 0, "-route: serve reads from a replica only while its replica_lag_records is at most this (0 = fully caught up)")
		hedgeAfter = flag.Duration("hedge-after", 0, "-route: duplicate a slow fan-out query leg to another node of the group after this budget (0 disables hedging)")
		routePoll  = flag.Duration("route-poll", 500*time.Millisecond, "-route: membership/lag poll interval")
	)
	flag.Parse()

	if *route != "" {
		if *ruleFile != "" || *dataset != "" || *walDir != "" || *follow != "" {
			log.Fatal("-route is exclusive with -rule/-dataset/-wal-dir/-follow: the router serves no index of its own")
		}
		runRouter(*addr, *route, *maxLag, *hedgeAfter, *routePoll, *k)
		return
	}

	bl := genlinkapi.BlockerByName(*blocker)
	if bl == nil {
		log.Fatalf("unknown blocker %q (available: %v)", *blocker, genlinkapi.BlockerNames())
	}

	policy, ok := genlinkapi.FsyncPolicyByName(*fsync)
	if !ok {
		log.Fatalf("unknown -fsync policy %q (available: batch, interval, off)", *fsync)
	}
	// One set of durability options: a -follow replica's local log is
	// tuned exactly like a leader's -wal-dir.
	durable := genlinkapi.DurableIndexOptions{
		Fsync:         policy,
		FsyncInterval: *fsyncInt,
		SnapshotEvery: *autoSnap,
		Shards:        *shards,
		Logf:          log.Printf,
	}

	var (
		ix       *genlinkapi.Index
		dix      *genlinkapi.DurableIndex
		fol      *genlinkapi.Follower
		recovery genlinkapi.RecoveryStats
		err      error
	)
	switch {
	case *follow != "":
		if *walDir == "" {
			log.Fatal("-follow requires -wal-dir (the follower keeps its own crash-safe copy of the log)")
		}
		if *ruleFile != "" || *dataset != "" {
			log.Fatal("-follow is exclusive with -rule/-dataset: a replica's rule and corpus come from the leader's snapshot")
		}
		fol, err = genlinkapi.OpenFollower(genlinkapi.FollowerOptions{Leader: *follow, Dir: *walDir, Durable: durable})
		if err != nil {
			log.Fatal(err)
		}
		dix = fol.Durable()
		ix = fol.Index()
		log.Printf("following %s from applied seq %d (%d entities)", fol.Leader(), fol.Status().AppliedSeq, ix.Len())
	case *walDir != "":
		dix, recovery, err = genlinkapi.OpenDurableIndex(*walDir, func() (*genlinkapi.Index, error) {
			return freshIndex(*ruleFile, *dataset, *population, *iterations, *seed, *shards, *threshold, bl)
		}, durable)
		if err != nil {
			log.Fatal(err)
		}
		ix = dix.Index()
		if recovery.Recovered {
			log.Printf("recovered %d entities from %s in %s (snapshot seq %d + %d log records replayed, torn tail discarded: %v)",
				ix.Len(), *walDir, recovery.Duration.Round(time.Millisecond),
				recovery.SnapshotSeq, recovery.RecordsReplayed, recovery.Torn)
		} else {
			log.Printf("initialized durable state in %s (fsync %s, auto-snapshot every %d records)",
				*walDir, policy, *autoSnap)
		}
	default:
		ix, err = freshIndex(*ruleFile, *dataset, *population, *iterations, *seed, *shards, *threshold, bl)
		if err != nil {
			log.Fatal(err)
		}
	}

	srv := newServer(ix, *k)
	srv.dix = dix
	srv.fol = fol
	srv.recoveryMs = float64(recovery.Duration.Microseconds()) / 1000

	if *pprofAddr != "" {
		// The profiling mux is the DefaultServeMux (net/http/pprof
		// registers itself there); the service mux below is separate, so
		// profiling is reachable only through this address.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	st := ix.Stats()
	log.Printf("serving on %s (blocker %s, %d shards, %d entities)", *addr, st.Blocker, st.Shards, st.Entities)
	serve(*addr, srv.routes(), func() {
		if err := srv.shutdownPersist(); err != nil {
			log.Printf("final snapshot: %v", err)
		} else if dix != nil {
			log.Printf("final snapshot written to %s; log compacted", dix.Dir())
		}
	})
}

// serve runs handler on addr until SIGINT/SIGTERM, then stops accepting
// connections, drains in-flight requests and calls onShutdown. It
// returns only after a graceful shutdown; a listen failure is fatal.
func serve(addr string, handler http.Handler, onShutdown func()) {
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

// parseRouteSpec turns "-route l1,f1;l2,f2" into partition groups:
// semicolons separate groups, commas separate a group's nodes, and the
// first node of each group is the router's initial leader guess.
func parseRouteSpec(spec string) [][]string {
	var groups [][]string
	for _, gs := range strings.Split(spec, ";") {
		var nodes []string
		for _, n := range strings.Split(gs, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) > 0 {
			groups = append(groups, nodes)
		}
	}
	return groups
}

// runRouter serves the -route mode: the stateless routing tier over the
// partition groups named in spec, with the same server timeouts and
// graceful shutdown as an index-serving node.
func runRouter(addr, spec string, maxLag uint64, hedgeAfter, poll time.Duration, defaultK int) {
	rt, err := genlinkapi.NewRouter(genlinkapi.RouterOptions{
		Groups:       parseRouteSpec(spec),
		MaxLag:       maxLag,
		HedgeAfter:   hedgeAfter,
		PollInterval: poll,
		DefaultK:     defaultK,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d partition groups on %s (max lag %d, hedge after %v)", rt.Partitions(), addr, maxLag, hedgeAfter)
	serve(addr, rt.Handler(), rt.Close)
}

// freshIndex builds a brand-new index from -rule or -dataset — the
// startup path when there is no durable state to recover.
func freshIndex(ruleFile, dataset string, population, iterations int, seed int64, shards int, threshold float64, bl genlinkapi.Blocker) (*genlinkapi.Index, error) {
	var (
		r            *genlinkapi.Rule
		seedEntities []*genlinkapi.Entity
	)
	switch {
	case ruleFile != "":
		data, err := os.ReadFile(ruleFile)
		if err != nil {
			return nil, err
		}
		r, err = genlinkapi.ParseRuleJSON(data)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", ruleFile, err)
		}
	case dataset != "":
		ds := genlinkapi.Dataset(dataset, seed)
		if ds == nil {
			return nil, fmt.Errorf("unknown dataset %q (available: %v)", dataset, genlinkapi.DatasetNames())
		}
		cfg := genlinkapi.DefaultConfig()
		cfg.PopulationSize = population
		cfg.MaxIterations = iterations
		cfg.Seed = seed
		log.Printf("learning rule on %s (population %d, %d iterations)...", ds.Name, population, iterations)
		result, err := genlinkapi.Learn(cfg, ds.Refs)
		if err != nil {
			return nil, err
		}
		r = result.Best
		log.Printf("learned: %s", r.Render())
		seedEntities = ds.B.Entities
	default:
		return nil, errors.New("one of -rule, -dataset or existing durable state in -wal-dir is required")
	}

	ix := genlinkapi.NewShardedIndex(r, shards, genlinkapi.MatchOptions{Blocker: bl, Threshold: threshold})
	if len(seedEntities) > 0 {
		log.Printf("bulk-loaded %d entities", ix.BulkLoad(seedEntities))
	}
	return ix, nil
}

// queryLatencyBuckets defines the query-latency histogram: an upper
// bound (exclusive, in nanoseconds) with its label, in ascending order,
// plus a final catch-all. The counter array is sized from this table, so
// adding a bucket is a one-line change.
var queryLatencyBuckets = []struct {
	boundNs int64
	label   string
}{
	{100_000, "<0.1ms"},
	{500_000, "<0.5ms"},
	{1_000_000, "<1ms"},
	{5_000_000, "<5ms"},
	{10_000_000, "<10ms"},
	{50_000_000, "<50ms"},
	{100_000_000, "<100ms"},
	{1_000_000_000, "<1s"},
	{0, "+inf"}, // bound ignored: catches everything slower
}

// metrics is the server's expvar-style counter set: monotonically
// increasing atomics, exposed as JSON on GET /metrics.
type metrics struct {
	queries        atomic.Int64
	writes         atomic.Int64 // entities upserted
	deletes        atomic.Int64
	snapshots      atomic.Int64
	backfilled     atomic.Int64   // entities upserted through backfill sessions
	latencyBuckets []atomic.Int64 // one per queryLatencyBuckets entry
}

// observeQuery records one query and its latency.
func (m *metrics) observeQuery(d time.Duration) {
	m.queries.Add(1)
	ns := d.Nanoseconds()
	last := len(queryLatencyBuckets) - 1
	for i, b := range queryLatencyBuckets[:last] {
		if ns < b.boundNs {
			m.latencyBuckets[i].Add(1)
			return
		}
	}
	m.latencyBuckets[last].Add(1)
}

// server wires an index into HTTP handlers. Beyond the default k and the
// metrics counters it holds no state of its own:
// the index is the single synchronized source of truth, so handlers are
// trivially safe under concurrent requests. When dix is set (-wal-dir),
// every mutation routes through the durable wrapper — logged before
// applied — and ix is its underlying index, used for reads.
type server struct {
	ix         *genlinkapi.Index
	dix        *genlinkapi.DurableIndex
	fol        *genlinkapi.Follower // read replica (-follow); nil on a leader
	defaultK   int
	recoveryMs float64
	m          metrics

	// bf is the open bulk-backfill session, lazily opened by the first
	// POST /entities?backfill=1 and closed by POST /backfill/commit (or
	// committed on graceful shutdown). bfMu serializes session lifecycle
	// against backfill applies.
	bfMu sync.Mutex
	bf   *genlinkapi.BackfillSession // guarded by bfMu
}

func newServer(ix *genlinkapi.Index, defaultK int) *server {
	if defaultK <= 0 {
		defaultK = 10
	}
	s := &server{ix: ix, defaultK: defaultK}
	s.m.latencyBuckets = make([]atomic.Int64, len(queryLatencyBuckets))
	return s
}

// shutdownPersist is the graceful-shutdown hook: on a durable server it
// takes a final snapshot (compacting the log) and closes the WAL; on an
// in-memory server it is a no-op. An open backfill session is committed
// first — its snapshot barrier doubles as the shutdown snapshot, and
// skipping it would lose the whole load (plain Snapshot refuses while a
// session is open).
func (s *server) shutdownPersist() error {
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
	s.bfMu.Lock()
	var err error
	if s.bf != nil {
		err = s.bf.Commit()
		s.bf = nil
	} else {
		err = s.dix.Snapshot()
	}
	s.bfMu.Unlock()
	if err == nil {
		s.m.snapshots.Add(1)
	}
	if cerr := s.dix.Close(); err == nil {
		err = cerr
	}
	return err
}

// routes builds the HTTP mux (method-qualified patterns, Go 1.22+).
func (s *server) routes() http.Handler {
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
// endpoint is plain liveness.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("max_lag")
	if raw == "" {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	maxLag, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid max_lag %q (want a non-negative integer)", raw))
		return
	}
	role, lag := "leader", uint64(0)
	if s.fol != nil {
		st := s.fol.Status()
		role, lag = st.Role, st.LagRecords
	}
	out := map[string]any{
		"status":              "ok",
		"role":                role,
		"replica_lag_records": lag,
		"max_lag":             maxLag,
	}
	if lag > maxLag {
		out["status"] = "lagging"
		writeJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// matchResponse is the JSON shape of both match endpoints.
type matchResponse struct {
	Query string          `json:"query"`
	K     int             `json:"k"`
	Links []matchLinkJSON `json:"links"`
}

type matchLinkJSON struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

func toMatchResponse(query string, k int, links []genlinkapi.MatchedLink) matchResponse {
	resp := matchResponse{Query: query, K: k, Links: make([]matchLinkJSON, 0, len(links))}
	for _, l := range links {
		resp.Links = append(resp.Links, matchLinkJSON{ID: l.BID, Score: l.Score})
	}
	return resp
}

// handlePostEntities decodes one entity or an array and upserts them as
// one batch through the sharded Apply pipeline: each shard is locked
// once, old versions leave through the bulk-remove path, new versions
// enter through the BulkAdder append-then-sort path — never the
// per-entity sorted-neighborhood memmove of repeated Adds. Concurrent
// queries see each shard's slice of the batch either fully applied or
// not at all. "added" counts distinct IDs (a repeated ID upserts once).
func (s *server) handlePostEntities(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	entities, err := decodeEntities(w, r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if bf := r.URL.Query().Get("backfill"); bf == "1" || bf == "true" {
		s.handleBackfillEntities(w, entities)
		return
	}
	var res genlinkapi.IndexApplyResult
	if s.dix != nil {
		// Durable path: the batch is write-ahead logged (and fsynced per
		// the -fsync policy) before it is applied; a log failure means
		// the write is NOT durable, so it is not applied and the client
		// sees a 500 instead of a lying 200.
		if res, err = s.dix.Apply(genlinkapi.IndexBatch{Upserts: entities}); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	} else {
		res = s.ix.Apply(genlinkapi.IndexBatch{Upserts: entities})
	}
	s.m.writes.Add(int64(res.Upserted))
	writeJSON(w, http.StatusOK, map[string]int{"added": res.Upserted, "entities": s.ix.Len()})
}

// handleBackfillEntities is the ?backfill=1 branch of POST /entities:
// the batch applies through the bulk-backfill session — per-shard
// parallel build, no WAL append, no fsync — lazily opening the session
// on first use. Nothing is durable until POST /backfill/commit; the
// response says so explicitly so a 200 here cannot be mistaken for the
// logged path's durability acknowledgment.
func (s *server) handleBackfillEntities(w http.ResponseWriter, entities []*genlinkapi.Entity) {
	if s.dix == nil {
		writeError(w, http.StatusConflict, errors.New("backfill mode requires -wal-dir (there is no durability barrier to commit to)"))
		return
	}
	s.bfMu.Lock()
	if s.bf == nil {
		bf, err := s.dix.BeginBackfill()
		if err != nil {
			s.bfMu.Unlock()
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		s.bf = bf
	}
	res, err := s.bf.Apply(genlinkapi.IndexBatch{Upserts: entities})
	loaded := s.bf.Loaded()
	s.bfMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.writes.Add(int64(res.Upserted))
	s.m.backfilled.Add(int64(res.Upserted))
	writeJSON(w, http.StatusOK, map[string]any{
		"added":            res.Upserted,
		"entities":         s.ix.Len(),
		"backfill_pending": loaded,
		"durable":          false,
	})
}

// handleBackfillCommit closes the open backfill session with its
// snapshot barrier: one atomic snapshot makes every backfilled entity
// durable and compacts the log. 409 when no session is open. On a
// snapshot failure the session stays open so the commit can be retried.
func (s *server) handleBackfillCommit(w http.ResponseWriter, _ *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	if s.dix == nil {
		writeError(w, http.StatusConflict, errors.New("backfill mode requires -wal-dir"))
		return
	}
	s.bfMu.Lock()
	defer s.bfMu.Unlock()
	if s.bf == nil {
		writeError(w, http.StatusConflict, errors.New("no open backfill session (POST /entities?backfill=1 opens one)"))
		return
	}
	t0 := time.Now()
	loaded := s.bf.Loaded()
	if err := s.bf.Commit(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.bf = nil
	s.m.snapshots.Add(1)
	dm := s.dix.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
		"committed":    loaded,
		"entities":     s.ix.Len(),
		"snapshot_seq": dm.SnapshotSeq,
		"ms":           float64(time.Since(t0).Microseconds()) / 1000,
	})
}

// rejectReplicaWrite answers 403 with the leader's address when this
// node is an unpromoted follower — writes must go to the leader, and the
// body tells the client where that is.
func (s *server) rejectReplicaWrite(w http.ResponseWriter) bool {
	if s.fol == nil || s.fol.Promoted() {
		return false
	}
	writeJSON(w, http.StatusForbidden, map[string]string{
		"error":  "read-only replica: send writes to the leader",
		"leader": s.fol.Leader(),
	})
	return true
}

// writeDecodeError maps a body-decoding failure to its status: an
// oversized body (MaxBytesReader tripped) is 413, everything else 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// decodeEntities accepts `{...}` or `[{...}, ...]` bodies and validates
// that every entity carries an id. The ResponseWriter lets
// MaxBytesReader close the connection on overrun; the caller maps the
// resulting *http.MaxBytesError to 413 via writeDecodeError.
func decodeEntities(w http.ResponseWriter, r *http.Request) ([]*genlinkapi.Entity, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	var entities []*genlinkapi.Entity
	if first := firstNonSpace(body); first == '[' {
		if err := json.Unmarshal(body, &entities); err != nil {
			return nil, fmt.Errorf("invalid entity array: %w", err)
		}
	} else {
		var e genlinkapi.Entity
		if err := json.Unmarshal(body, &e); err != nil {
			return nil, fmt.Errorf("invalid entity: %w", err)
		}
		entities = append(entities, &e)
	}
	for _, e := range entities {
		if e == nil || e.ID == "" {
			return nil, errors.New(`every entity needs a non-empty "id"`)
		}
	}
	return entities, nil
}

// firstNonSpace returns the first non-whitespace byte of b, or 0.
func firstNonSpace(b []byte) byte {
	for _, c := range b {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		}
		return c
	}
	return 0
}

func (s *server) handleGetEntity(w http.ResponseWriter, r *http.Request) {
	e := s.ix.Get(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, e)
}

func (s *server) handleDeleteEntity(w http.ResponseWriter, r *http.Request) {
	if s.rejectReplicaWrite(w) {
		return
	}
	id := r.PathValue("id")
	if s.dix != nil {
		// Cheap existence pre-check so 404s don't append log records; the
		// durable Remove re-checks under the write path, so a racing
		// delete still answers 404, never double-counts.
		if s.ix.Get(id) == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", id))
			return
		}
		present, err := s.dix.Remove(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if !present {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", id))
			return
		}
	} else if !s.ix.Remove(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", id))
		return
	}
	s.m.deletes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleMatch answers GET /match?id=X&k=N for a stored entity.
func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing id parameter"))
		return
	}
	k, err := s.parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t0 := time.Now()
	links, ok := s.ix.QueryID(id, k)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown entity %q", id))
		return
	}
	s.m.observeQuery(time.Since(t0))
	writeJSON(w, http.StatusOK, toMatchResponse(id, k, links))
}

// handleMatchProbe answers POST /match?k=N with a probe entity in the
// body, matching it without indexing it. If the probe's ID is already
// indexed, the stored record with that ID is treated as the probe's own
// record and excluded from the results (the Index self-match rule) —
// probe with a fresh ID to match against the entire corpus.
func (s *server) handleMatchProbe(w http.ResponseWriter, r *http.Request) {
	k, err := s.parseK(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entities, err := decodeEntities(w, r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(entities) != 1 {
		writeError(w, http.StatusBadRequest, errors.New("POST /match takes exactly one entity"))
		return
	}
	t0 := time.Now()
	links := s.ix.Query(entities[0], k)
	s.m.observeQuery(time.Since(t0))
	writeJSON(w, http.StatusOK, toMatchResponse(entities[0].ID, k, links))
}

// handleSnapshot persists on demand: it snapshots into the WAL directory
// and compacts the log. Without -wal-dir there is nowhere to write: 409.
func (s *server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.dix == nil {
		writeError(w, http.StatusConflict, errors.New("server runs without -wal-dir; no snapshot destination configured"))
		return
	}
	t0 := time.Now()
	if err := s.dix.Snapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.snapshots.Add(1)
	dm := s.dix.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
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
func (s *server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if s.fol == nil {
		writeError(w, http.StatusConflict, errors.New("not a replica (-follow): nothing to promote"))
		return
	}
	t0 := time.Now()
	if err := s.fol.Promote(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.m.snapshots.Add(1)
	log.Printf("promoted to leader at applied seq %d", s.dix.AppliedSeq())
	writeJSON(w, http.StatusOK, map[string]any{
		"role":        "leader",
		"applied_seq": s.dix.AppliedSeq(),
		"entities":    s.ix.Len(),
		"ms":          float64(time.Since(t0).Microseconds()) / 1000,
	})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.ix.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"entities":       st.Entities,
		"keys":           st.Keys,
		"blocker":        st.Blocker,
		"threshold":      st.Threshold,
		"shards":         st.Shards,
		"shard_entities": st.ShardEntities,
	})
}

// handleMetrics exposes the counter set plus point-in-time gauges from
// the index. Buckets are cumulative counts per latency bound, covering
// both match endpoints.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.ix.Stats()
	buckets := make(map[string]int64, len(queryLatencyBuckets))
	for i, b := range queryLatencyBuckets {
		buckets[b.label] = s.m.latencyBuckets[i].Load()
	}
	out := map[string]any{
		"entities":              st.Entities,
		"shards":                st.Shards,
		"shard_entities":        st.ShardEntities,
		"keys":                  st.Keys,
		"queries":               s.m.queries.Load(),
		"writes":                s.m.writes.Load(),
		"deletes":               s.m.deletes.Load(),
		"snapshots":             s.m.snapshots.Load(),
		"query_latency_buckets": buckets,
		"stream_early_exits":    st.StreamEarlyExits,
		"last_recovery_ms":      s.recoveryMs,
	}
	// Durability gauges: zero-valued without -wal-dir so dashboards can
	// rely on the keys existing.
	var dm genlinkapi.DurableIndexMetrics
	backfillActive := false
	if s.dix != nil {
		dm = s.dix.Metrics()
		backfillActive = s.dix.Backfilling()
	}
	out["wal_records"] = dm.WALRecords
	out["wal_segments"] = dm.WALSegments
	out["wal_snapshot_seq"] = dm.SnapshotSeq
	out["backfill_active"] = backfillActive
	out["backfilled"] = s.m.backfilled.Load()
	// Replication gauges, same always-present convention: a non-replica
	// reports role "leader", its own applied seq and zero lag.
	var rs genlinkapi.ReplicationStatus
	if s.fol != nil {
		rs = s.fol.Status()
	} else {
		rs.Role = "leader"
		rs.AppliedSeq = dm.WALRecords
	}
	out["role"] = rs.Role
	out["leader"] = rs.Leader
	out["applied_seq"] = rs.AppliedSeq
	out["replica_lag_records"] = rs.LagRecords
	out["replica_lag_ms"] = rs.LagMs
	writeJSON(w, http.StatusOK, out)
}

// parseK reads the k parameter: absent means the server default, 0 is
// the documented "every link above the threshold", negative is a client
// error.
func (s *server) parseK(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return s.defaultK, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 0 {
		return 0, fmt.Errorf("invalid k %q (want 0 for all links, or a positive count)", raw)
	}
	return k, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
