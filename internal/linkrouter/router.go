// Package linkrouter is the scale-out routing tier over genlinkd
// leader/replica groups: a stateless HTTP router that hash-partitions
// entity IDs across N partition groups — each a leader plus any number
// of WAL-shipping read replicas — the same way ShardedIndex partitions
// across in-process shards (linkindex.PartitionOf is the shared
// placement function).
//
// Writes: a POST /entities batch is split per owning partition with the
// Apply pipeline's exact dedup semantics (linkindex.SplitBatch) and the
// per-partition sub-batches are applied to the N leaders in parallel
// over one pooled, keep-alive transport. Aggregate write throughput
// scales with partitions because each leader appends and fsyncs only
// its slice of the log. When a leader answers 403 (an unpromoted
// replica) the router retargets the group's leader to the address named
// in the response body and retries; when a leader is unreachable the
// router fails over to the group's other nodes, which is how it finds a
// freshly promoted replica after the old leader died.
//
// Reads: every routed read — GET /entities/{id}, the probe fetch of
// GET /match?id=, each /stats leg and each leg of the /match fan-out —
// goes through one read leg (readLeg) with one policy. It starts at a
// replica whose polled replica_lag_records is within Options.MaxLag
// (round-robin across eligible replicas), else at the leader guess. If
// that node has not answered within Options.HedgeAfter, the same request
// is fired once more at a node the lag gate also admits (the leader for
// a replica start, an eligible replica for a leader start; none, no
// hedge), and the first answer wins. A transport error or 5xx marks the
// node unhealthy; once every launched attempt has failed, the leg falls
// over to the group's untried nodes in write order (leader guess first),
// whatever their lag. Any other answer is authoritative. So a read is
// staler than MaxLag only when it fell over past the leader guess, and a
// read fails only when no node of its group answers. Top-k /match fans
// out to every group and merges the per-group winners with
// linkindex.MergeTopK — the per-shard candidate-semantics contract of
// the sharded index is the cross-node contract, so a quiescent router
// over N groups answers exactly like one big index for
// partition-invariant blocking (pinned byte for byte by the
// differential tests in internal/linkserver).
//
// Hedging pays against a slow node. Measured in-process on an nproc 2
// Xeon: two groups, each a leader plus a caught-up follower, with group
// 0's follower delaying a seeded 5 % of /match replies by 20 ms; 2
// clients × 1,500 routed GET /match?k=10, 6 alternating pairs,
// HedgeAfter 0 against 5 ms. p95 went 9.21 → 7.01 ms (lower with
// hedging in 6/6 pairs), p99 23.2 → 9.9 ms and p50 2.04 → 1.87 ms.
//
// Membership and freshness come from polling each node's GET /metrics
// (role, applied_seq, replica_lag_records); a node that stops answering
// is no replica a read starts at or hedges to until it answers again.
// The router itself serves GET /metrics with per-partition fan-out leg
// latency buckets, hedge and retarget counters, the replica-read ratio
// and each node's polled standing, its last_error included.
package linkrouter

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genlink/internal/linkindex"
	"genlink/internal/linkserver"
)

// Options configures New.
type Options struct {
	// Groups lists the nodes of each partition group as base addresses
	// ("host:port" or full URLs). Entity IDs are placed by
	// linkindex.PartitionOf(id, len(Groups)). The first node of a group
	// is the initial leader guess; the membership poller and the 403 /
	// failover write paths correct it.
	Groups [][]string
	// MaxLag is the freshness knob: a read starts at, or hedges to, a
	// replica only while its polled replica_lag_records is ≤ MaxLag,
	// else at the leader guess. Only a read that falls over past the
	// leader guess can answer staler. 0 (the default) means replicas
	// must be fully caught up at the last poll.
	MaxLag uint64
	// HedgeAfter fires a second copy of a read at another node the
	// MaxLag gate admits when the first has not answered within this
	// budget; the first answer wins. 0 disables hedging.
	HedgeAfter time.Duration
	// PollInterval paces the membership/lag poll (default 500ms).
	PollInterval time.Duration
	// RequestTimeout bounds each proxied request leg (default 15s).
	RequestTimeout time.Duration
	// DefaultK is the k used when a match request names none (default 10).
	DefaultK int
	// Client overrides the backend HTTP client (nil means a client over
	// linkindex.PooledTransport; per-leg deadlines come from request
	// contexts, so the client itself needs no Timeout).
	Client *http.Client
	// Logf receives router log lines (nil discards them).
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// nodeState is the polled standing of one backend node.
type nodeState struct {
	role       string
	lag        uint64
	appliedSeq uint64
	lastErr    string // the node's polled last_error
	healthy    bool
}

// group is one partition group: a fixed node set plus the router's
// mutable view of it (polled states and the current leader guess).
type group struct {
	mu     sync.Mutex
	nodes  []string
	state  map[string]nodeState // guarded by mu
	leader string               // guarded by mu
	rr     uint32               // guarded by mu; round-robin cursor over eligible replicas
}

// setLeader records addr as the group's leader guess and reports whether
// that changed it.
func (g *group) setLeader(addr string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader == addr {
		return false
	}
	g.leader = addr
	return true
}

// writeOrder returns the node addresses in write-attempt order: the
// current leader guess first, then the remaining nodes.
func (g *group) writeOrder() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	order := make([]string, 0, len(g.nodes))
	order = append(order, g.leader)
	for _, a := range g.nodes {
		if a != g.leader {
			order = append(order, a)
		}
	}
	return order
}

// readable reports whether a read may start at, or hedge to, a node in
// this polled state other than the leader guess: a healthy follower
// within maxLag.
func (st nodeState) readable(maxLag uint64) bool {
	return st.healthy && st.role == "follower" && st.lag <= maxLag
}

// pickRead selects the node a read starts at: a readable follower
// (round-robin across the eligible ones), else the leader guess.
func (g *group) pickRead(maxLag uint64) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var eligible []string
	for _, a := range g.nodes {
		if g.state[a].readable(maxLag) {
			eligible = append(eligible, a)
		}
	}
	if len(eligible) > 0 {
		i := int(g.rr) % len(eligible)
		g.rr++
		return eligible[i]
	}
	return g.leader
}

// alternate returns a hedge target distinct from primary that pickRead
// would also accept: the leader when the primary was a replica,
// otherwise a readable follower ("" when the group has none).
func (g *group) alternate(primary string, maxLag uint64) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if primary != g.leader {
		return g.leader
	}
	for _, a := range g.nodes {
		if a != primary && g.state[a].readable(maxLag) {
			return a
		}
	}
	return ""
}

// isFollower reports whether addr's last poll found it a follower; a
// read it answers counts as a replica read.
func (g *group) isFollower(addr string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state[addr].role == "follower"
}

// markUnhealthy flags addr until the next successful poll, so reads stop
// selecting a node the write path just found dead.
func (g *group) markUnhealthy(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state[addr]
	st.healthy = false
	g.state[addr] = st
}

// routerMetrics is the router's counter set. Slices are indexed by
// partition; all counters are monotonic.
type routerMetrics struct {
	writeBatches  atomic.Int64
	routedWrites  []atomic.Int64 // entities upserted, per partition
	routedDeletes []atomic.Int64
	queries       atomic.Int64 // client-facing match queries
	hedgesFired   atomic.Int64
	hedgeWins     atomic.Int64
	replicaReads  atomic.Int64 // read legs answered by a polled follower
	leaderReads   atomic.Int64
	retargets     atomic.Int64           // leader-guess changes (403 redirect or failover)
	legErrors     atomic.Int64           // fan-out legs that failed their query
	legLatency    []linkserver.Histogram // answered fan-out legs, per partition
}

func (m *routerMetrics) observeRead(isReplica bool) {
	if isReplica {
		m.replicaReads.Add(1)
	} else {
		m.leaderReads.Add(1)
	}
}

// Snapshot is a point-in-time copy of the router's counters, exposed for
// benchmarks and tests; GET /metrics serves the same numbers.
type Snapshot struct {
	WriteBatches  int64
	RoutedWrites  []int64
	RoutedDeletes []int64
	Queries       int64
	HedgesFired   int64
	HedgeWins     int64
	ReplicaReads  int64
	LeaderReads   int64
	Retargets     int64
	LegErrors     int64
}

// ReplicaReadRatio is the fraction of read legs served by replicas.
func (s Snapshot) ReplicaReadRatio() float64 {
	total := s.ReplicaReads + s.LeaderReads
	if total == 0 {
		return 0
	}
	return float64(s.ReplicaReads) / float64(total)
}

// Router routes the genlinkd client API across partition groups. It is
// stateless beyond counters and the polled membership view: any number
// of routers can front the same groups, and a restarted router rebuilds
// its view from one poll round.
type Router struct {
	opts   Options
	client *http.Client
	groups []*group
	m      routerMetrics

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// normalizeAddr turns "host:port" into "http://host:port" and strips a
// trailing slash, mirroring the follower's leader normalization.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// New validates opts, runs one synchronous poll round (so the first
// request already sees roles and lag) and starts the background poller.
// Close stops it.
func New(opts Options) (*Router, error) {
	if len(opts.Groups) == 0 {
		return nil, errors.New("linkrouter: at least one partition group is required")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 15 * time.Second
	}
	if opts.DefaultK <= 0 {
		opts.DefaultK = 10
	}
	rt := &Router{
		opts:   opts,
		client: opts.Client,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if rt.client == nil {
		// Every leg the router sends carries a per-request context
		// deadline (proxy timeout, hedge timeout, poll timeout), so the
		// client itself stays unbounded rather than double-clamping.
		rt.client = linkindex.NewPooledClient(0) //genlint:ignore noclientdefault every request carries a context deadline; a client Timeout would double-clamp hedged legs
	}
	for gi, addrs := range opts.Groups {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("linkrouter: partition group %d has no nodes", gi)
		}
		g := &group{state: make(map[string]nodeState)}
		for _, a := range addrs {
			g.nodes = append(g.nodes, normalizeAddr(a))
		}
		g.leader = g.nodes[0]
		rt.groups = append(rt.groups, g)
	}
	rt.m.routedWrites = make([]atomic.Int64, len(rt.groups))
	rt.m.routedDeletes = make([]atomic.Int64, len(rt.groups))
	rt.m.legLatency = make([]linkserver.Histogram, len(rt.groups))
	rt.pollOnce()
	go rt.pollLoop()
	return rt, nil
}

// Close stops the membership poller. In-flight requests finish normally.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// Partitions returns the partition-group count.
func (rt *Router) Partitions() int { return len(rt.groups) }

// Metrics returns a point-in-time copy of the router counters.
func (rt *Router) Metrics() Snapshot {
	s := Snapshot{
		WriteBatches: rt.m.writeBatches.Load(),
		Queries:      rt.m.queries.Load(),
		HedgesFired:  rt.m.hedgesFired.Load(),
		HedgeWins:    rt.m.hedgeWins.Load(),
		ReplicaReads: rt.m.replicaReads.Load(),
		LeaderReads:  rt.m.leaderReads.Load(),
		Retargets:    rt.m.retargets.Load(),
		LegErrors:    rt.m.legErrors.Load(),
	}
	for i := range rt.groups {
		s.RoutedWrites = append(s.RoutedWrites, rt.m.routedWrites[i].Load())
		s.RoutedDeletes = append(s.RoutedDeletes, rt.m.routedDeletes[i].Load())
	}
	return s
}

// pollLoop refreshes membership and lag until Close.
func (rt *Router) pollLoop() {
	defer close(rt.done)
	tick := time.NewTicker(rt.opts.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.pollOnce()
		}
	}
}

// pollOnce polls every node's /metrics concurrently and folds the
// answers into the group states. A node whose poll fails is marked
// unhealthy (excluded from replica reads) until it answers again; a node
// reporting role "leader" becomes its group's leader guess.
func (rt *Router) pollOnce() {
	var wg sync.WaitGroup
	for _, g := range rt.groups {
		for _, addr := range g.nodes {
			wg.Add(1)
			go func(g *group, addr string) {
				defer wg.Done()
				st, err := rt.pollNode(addr)
				g.mu.Lock()
				if err != nil {
					prev := g.state[addr]
					prev.healthy = false
					g.state[addr] = prev
					g.mu.Unlock()
					return
				}
				g.state[addr] = st
				leaderChanged := st.role == "leader" && g.leader != addr
				if leaderChanged {
					g.leader = addr
				}
				g.mu.Unlock()
				if leaderChanged {
					rt.m.retargets.Add(1)
					rt.opts.logf("poll: %s reports role leader; retargeting its group", addr)
				}
			}(g, addr)
		}
	}
	wg.Wait()
}

// pollNode fetches one node's /metrics and extracts the replication
// standing. The poll deadline is the tighter of 5s and the per-leg
// RequestTimeout do applies.
func (rt *Router) pollNode(addr string) (nodeState, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	status, data, err := rt.do(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nodeState{}, err
	}
	if status != http.StatusOK {
		return nodeState{}, fmt.Errorf("linkrouter: %s/metrics: status %d", addr, status)
	}
	var m linkserver.NodeMetrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nodeState{}, err
	}
	return nodeState{role: m.Role, lag: m.ReplicaLagRecords, appliedSeq: m.AppliedSeq, lastErr: m.LastError, healthy: true}, nil
}

// do issues one proxied request with the router's per-leg deadline and
// returns the status plus the (bounded) body.
func (rt *Router) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// writeGroup sends a mutation to partition group gi, following 403
// leader redirects and failing over across the group's nodes: the
// current leader guess is tried first; a 403 response retargets to the
// address its body names (how the router finds the leader when pointed
// at a replica, and the new leader after a promote it was told about); a
// transport error or 5xx marks the node unhealthy and moves on (how it
// finds a freshly promoted replica after the old leader died). Any
// other status is authoritative and returned as-is.
func (rt *Router) writeGroup(ctx context.Context, gi int, method, path string, body []byte) (int, []byte, error) {
	g := rt.groups[gi]
	tried := make(map[string]bool)
	queue := g.writeOrder()
	var lastErr error
	for len(queue) > 0 {
		addr := queue[0]
		queue = queue[1:]
		if tried[addr] {
			continue
		}
		tried[addr] = true
		status, data, err := rt.do(ctx, method, addr+path, body)
		switch {
		case err != nil || status >= 500:
			if err != nil {
				lastErr = err
			} else {
				lastErr = fmt.Errorf("linkrouter: %s%s: status %d: %s", addr, path, status, truncate(data))
			}
			g.markUnhealthy(addr)
			continue
		case status == http.StatusForbidden:
			// An unpromoted replica: its body names the leader. Retarget
			// and try there next (in front of the remaining candidates).
			var reject linkserver.ErrorBody
			_ = json.Unmarshal(data, &reject)
			lastErr = fmt.Errorf("linkrouter: %s is a read-only replica of %s", addr, reject.Leader)
			if reject.Leader != "" {
				target := normalizeAddr(reject.Leader)
				if g.setLeader(target) {
					rt.m.retargets.Add(1)
					rt.opts.logf("write: %s answered 403; retargeting partition %d to leader %s", addr, gi, target)
				}
				if !tried[target] {
					queue = append([]string{target}, queue...)
				}
			}
			continue
		default:
			if g.setLeader(addr) {
				rt.m.retargets.Add(1)
				rt.opts.logf("write: partition %d leader is %s", gi, addr)
			}
			return status, data, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("linkrouter: no reachable leader in partition %d", gi)
	}
	return 0, nil, lastErr
}

// truncate bounds an upstream body for error messages.
func truncate(data []byte) string {
	const n = 200
	if len(data) > n {
		return string(data[:n]) + "…"
	}
	return string(data)
}
