// Command genlinkd serves a learned linkage rule as an online matching
// service: entities are added, updated and removed over HTTP while
// queries return the top-k matches of an entity against the current
// corpus — the incremental sharded index (pkg/genlinkapi.NewShardedIndex)
// instead of the batch pipeline, so nothing is ever re-blocked. This
// command is flag parsing and wiring: the HTTP handlers, counters and
// shutdown lifecycle are internal/linkserver, the -route tier is
// internal/linkrouter.
//
// Usage:
//
//	genlinkd -rule rule.json [-addr :8080] [-blocker multipass] [-threshold 0.5]
//	genlinkd -dataset Cora [-population 100] [-iterations 10]   # learn at startup, bulk-load side B
//	genlinkd -rule rule.json -wal-dir /var/lib/genlink          # crash-safe: WAL + auto-snapshots
//	genlinkd -follow leader:8080 -wal-dir /var/lib/replica      # read replica: tail the leader's WAL
//	genlinkd -route "l1:8080,f1:8081;l2:8080,f2:8081"           # stateless routing tier over partition groups
//
// The corpus is hash-partitioned over one shard per two CPUs (at least
// one), so writes stall only the shard they touch and queries fan out in
// parallel. Each shard costs every query a probe pass of its own, while
// batched writes, snapshots and recovery build records on every core
// whatever the count, so shards stay few. The count is fixed when the
// corpus is created: a -wal-dir restart and a -follow replica keep the
// snapshot's, so a blocker's answers never move with the host's cores.
// Resharding is a fresh load. Without -wal-dir the index lives in
// memory only. A rule with a necessary levenshtein comparison is served
// from each shard's rule index, and its answers equal scoring every
// stored entity; -blocker picks the candidates of any other rule. The
// "serving on" log line and /stats "candidates" name which one serves.
//
// -wal-dir is the one persistence mode, and it is crash-safe: every
// write is appended to a segmented, CRC-checked write-ahead log before
// it is applied (-fsync batch|interval selects when it hits disk: every
// write, or a group commit every 100 ms), a snapshot is taken
// automatically whenever -auto-snapshot records are not yet covered by
// one (and on demand via POST /snapshot), and log segments a snapshot
// covers are compacted away. At startup the state is recovered from the
// newest valid snapshot plus the log tail (taking precedence over
// -rule/-dataset seeding) — a kill -9 mid-write loses at most the final
// torn, unacknowledged record under either policy; a power cut can also
// lose the last 100 ms of acknowledged writes under -fsync interval.
// Graceful shutdown (SIGINT/SIGTERM) drains in-flight requests, takes a
// final snapshot and closes the log.
//
// On a durable server, POST /entities?backfill=1 routes the batch
// through DurableIndex.Backfill instead of the log: batches apply
// through the per-shard parallel pipeline with no per-batch WAL
// append/fsync, and POST /backfill/commit (DurableIndex.CommitBackfill)
// makes the whole load durable with one atomic snapshot barrier. A
// crash before the commit recovers the pre-backfill state (regular
// logged writes keep their own durability throughout). Graceful
// shutdown commits an open session.
//
// With -follow the server is an asynchronous read replica: it bootstraps
// from the leader's newest snapshot (or recovers its own local state and
// re-tails from the last applied seq), then streams the leader's WAL
// records into its own crash-safe log. Replicas serve every read
// endpoint and reject writes with 403 + the leader's address;
// GET /metrics reports applied_seq, replica_lag_records,
// replica_lag_ms and last_error, the replica's most recent tailing
// error (say, a refused re-bootstrap). POST /promote flips a replica to
// a leader: tailing stops, a snapshot is cut at the promote point,
// writes are accepted.
// When a replica falls behind the leader's log compaction it re-
// bootstraps from the leader's snapshot automatically.
//
// With -route the process serves no index at all: it is the stateless
// scale-out routing tier (internal/linkrouter) over N partition groups,
// each "leader,replica,..." and separated by semicolons. Entity IDs are
// hash-partitioned across the groups with the index's own placement
// function, write batches are split per owning partition and applied to
// the leaders in parallel, match queries fan out to every group and
// merge with the index's top-k contract. Every routed read starts at a
// replica within -max-lag (else the leader guess), hedges after
// -hedge-after to another node within the same bound, and falls over to
// the group's other nodes only once every attempt has failed — the one
// way a read can answer staler than -max-lag. -route-poll paces the
// membership/lag poll. The
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
//	GET    /stats           corpus size, index keys, blocker, candidate
//	                        source, threshold, shard count and
//	                        per-shard sizes
//	GET    /metrics         counters and gauges, every key always present
//	                        (linkserver.NodeMetrics): entities, keys,
//	                        shards, shard_entities, queries, writes,
//	                        deletes, snapshots, query_latency_buckets,
//	                        stream_early_exits, last_recovery_ms,
//	                        wal_records, wal_segments, wal_snapshot_seq,
//	                        backfill_active, backfilled, role, leader,
//	                        applied_seq, replica_lag_records,
//	                        replica_lag_ms, last_error (a replica's most
//	                        recent tailing error; empty on a leader)
//	GET    /healthz         liveness; ?max_lag=N gates on freshness:
//	                        503 while replica_lag_records exceeds N; its
//	                        body carries role, replica_lag_records and
//	                        last_error
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux, served only via -pprof
	"os"
	"strings"
	"time"

	"genlink/internal/linkserver"
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
		blocker    = flag.String("blocker", "multipass", "blocking strategy for a rule without an edit bound: token, sortedneighborhood, qgram or multipass (a rule with a necessary levenshtein comparison is served from its rule index instead)")
		threshold  = flag.Float64("threshold", 0, "minimum link score (0 = rule match threshold)")
		k          = flag.Int("k", 10, "default number of matches per query (k= overrides per request)")
		walDir     = flag.String("wal-dir", "", "durability directory: write-ahead log + auto-snapshots, recovered at startup")
		fsync      = flag.String("fsync", "batch", "WAL fsync policy: batch|interval (fsync per write, or group-commit every 100ms)")
		autoSnap   = flag.Int("auto-snapshot", 10000, "auto-snapshot after this many WAL records (negative disables)")
		follow     = flag.String("follow", "", "run as a read replica of this leader address (requires -wal-dir; excludes -rule/-dataset)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; off when empty)")
		route      = flag.String("route", "", `run as a stateless routing tier over partition groups: "leader1,replica1,...;leader2,..." (excludes every index-serving flag)`)
		maxLag     = flag.Uint64("max-lag", 0, "-route: start or hedge a read at a replica only while its replica_lag_records is at most this, else at the leader; only a fall-over after every such node failed reads staler (0 = fully caught up)")
		hedgeAfter = flag.Duration("hedge-after", 0, "-route: duplicate a read not answered within this budget to another node of the group within -max-lag; the first answer wins (0 disables hedging)")
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
		log.Fatalf("unknown -fsync policy %q (available: batch, interval)", *fsync)
	}
	// One set of durability options: a -follow replica's local log is
	// tuned exactly like a leader's -wal-dir.
	durable := genlinkapi.DurableIndexOptions{
		Fsync:         policy,
		SnapshotEvery: *autoSnap,
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
			return freshIndex(*ruleFile, *dataset, *population, *iterations, *seed, *threshold, bl)
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
		ix, err = freshIndex(*ruleFile, *dataset, *population, *iterations, *seed, *threshold, bl)
		if err != nil {
			log.Fatal(err)
		}
	}

	srv := linkserver.New(linkserver.Config{
		Index: ix, Durable: dix, Follower: fol, DefaultK: *k,
		RecoveryMs: float64(recovery.Duration.Microseconds()) / 1000,
	})

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
	log.Printf("serving on %s (candidates from %s, %d shards, %d entities)", *addr, ix.CandidateSource(), st.Shards, st.Entities)
	linkserver.Serve(*addr, srv.Handler(), func() {
		if err := srv.Shutdown(); err != nil {
			log.Printf("final snapshot: %v", err)
		} else if dix != nil {
			log.Printf("final snapshot written to %s; log compacted", dix.Dir())
		}
	})
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
	linkserver.Serve(addr, rt.Handler(), rt.Close)
}

// freshIndex builds a brand-new index from -rule or -dataset — the
// startup path when there is no durable state to recover.
func freshIndex(ruleFile, dataset string, population, iterations int, seed int64, threshold float64, bl genlinkapi.Blocker) (*genlinkapi.Index, error) {
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

	ix := genlinkapi.NewShardedIndex(r, genlinkapi.MatchOptions{Blocker: bl, Threshold: threshold})
	if len(seedEntities) > 0 {
		log.Printf("bulk-loaded %d entities", ix.BulkLoad(seedEntities))
	}
	return ix, nil
}
