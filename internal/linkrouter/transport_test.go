package linkrouter

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/linkserver"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// The router's decisions — 403 retarget, write failover, lag-gated
// reads, hedged fan-out legs — driven through its Handler over a fake
// http.RoundTripper (Options.Client): every backend node is a function
// answering in process, so each case is deterministic and no server or
// socket is involved.

// fakeNode is one backend genlinkd as the router sees it.
type fakeNode struct {
	role string // reported by the /metrics poll
	lag  uint64 // replica_lag_records reported by the poll
	down bool   // every request, polls included, fails to connect
	// serve answers every request but the poll. A nil error with a zero
	// status is not allowed; return an error to simulate a dropped
	// connection.
	serve func(r *http.Request) (int, any, error)
}

// fakeNet is the fake transport: nodes by host, plus the log of every
// non-poll request in arrival order ("host METHOD path").
type fakeNet struct {
	nodes map[string]*fakeNode
	mu    sync.Mutex
	log   []string
}

func (f *fakeNet) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	n := f.nodes[r.URL.Host]
	if r.URL.Path != "/metrics" {
		f.mu.Lock()
		f.log = append(f.log, r.URL.Host+" "+r.Method+" "+r.URL.Path)
		f.mu.Unlock()
	}
	if n == nil || n.down {
		return nil, errors.New("dial tcp: connection refused")
	}
	if r.URL.Path == "/metrics" {
		return reply(r, http.StatusOK, linkserver.NodeMetrics{Role: n.role, ReplicaLagRecords: n.lag})
	}
	status, body, err := n.serve(r)
	if err != nil {
		return nil, err
	}
	return reply(r, status, body)
}

func reply(r *http.Request, status int, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(data)),
		Request:    r,
	}, nil
}

func (f *fakeNet) requests() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

// newFakeRouter starts a router over one partition group of the given
// hosts (the first is the initial leader guess). The background poll is
// parked for the test's lifetime, so the only poll is New's own.
func newFakeRouter(t *testing.T, net *fakeNet, group []string, opts Options) *Router {
	t.Helper()
	opts.Groups = [][]string{group}
	opts.Client = &http.Client{Transport: net, Timeout: time.Minute}
	opts.PollInterval = time.Hour
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// serve sends one request through the router's handler.
func serve(rt *Router, method, target, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w
}

func answer(status int, body any) func(*http.Request) (int, any, error) {
	return func(*http.Request) (int, any, error) { return status, body, nil }
}

var ack = linkserver.EntitiesAck{Added: 1, Entities: 1}

func TestRouterWritesRetargetAndFailOver(t *testing.T) {
	for _, tc := range []struct {
		name          string
		group         []string
		nodes         map[string]*fakeNode
		wantLog       []string
		wantRetargets int64
	}{
		{
			// The leader guess is an unpromoted replica: its 403 names the
			// leader, the router retargets there, and the next write goes
			// straight to it.
			name:  "403 retargets to the named leader",
			group: []string{"f"},
			nodes: map[string]*fakeNode{
				"f":  {role: "follower", serve: answer(http.StatusForbidden, linkserver.ErrorBody{Error: "read-only replica", Leader: "l2"})},
				"l2": {role: "leader", serve: answer(http.StatusOK, ack)},
			},
			wantLog:       []string{"f POST /entities", "l2 POST /entities", "l2 POST /entities"},
			wantRetargets: 1,
		},
		{
			name:  "5xx fails over to the next node",
			group: []string{"l", "f"},
			nodes: map[string]*fakeNode{
				"l": {role: "leader", serve: answer(http.StatusServiceUnavailable, linkserver.ErrorBody{Error: "shutting down"})},
				"f": {role: "follower", serve: answer(http.StatusOK, ack)},
			},
			wantLog:       []string{"l POST /entities", "f POST /entities", "f POST /entities"},
			wantRetargets: 1,
		},
		{
			// The old leader is gone and the poll has not yet seen the
			// promotion: the connection error moves the write on.
			name:  "connection error fails over to the next node",
			group: []string{"l", "f"},
			nodes: map[string]*fakeNode{
				"l": {down: true},
				"f": {role: "follower", serve: answer(http.StatusOK, ack)},
			},
			wantLog:       []string{"l POST /entities", "f POST /entities", "f POST /entities"},
			wantRetargets: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &fakeNet{nodes: tc.nodes}
			rt := newFakeRouter(t, net, tc.group, Options{})
			for i := 0; i < 2; i++ {
				if w := serve(rt, http.MethodPost, "/entities", `{"id":"x","properties":{"p":["v"]}}`); w.Code != http.StatusOK {
					t.Fatalf("write %d: status %d: %s", i, w.Code, w.Body)
				}
			}
			if got := net.requests(); !reflect.DeepEqual(got, tc.wantLog) {
				t.Fatalf("requests %q, want %q", got, tc.wantLog)
			}
			m := rt.Metrics()
			if m.Retargets != tc.wantRetargets || m.WriteBatches != 2 || m.RoutedWrites[0] != 2 {
				t.Fatalf("retargets %d, write batches %d, routed writes %d; want %d, 2, 2",
					m.Retargets, m.WriteBatches, m.RoutedWrites[0], tc.wantRetargets)
			}
		})
	}
}

func TestRouterReadsLagGated(t *testing.T) {
	entity := map[string]any{"id": "x", "properties": map[string][]string{}}
	for _, tc := range []struct {
		name                    string
		followerLag, maxLag     uint64
		followerStatus          int
		wantLog                 []string
		wantReplica, wantLeader int64
	}{
		{
			name:           "caught-up replica serves",
			followerStatus: http.StatusOK,
			wantLog:        []string{"f GET /entities/x", "f GET /entities/x"},
			wantReplica:    2,
		},
		{
			name:        "replica beyond MaxLag: the leader serves",
			followerLag: 5, maxLag: 2,
			followerStatus: http.StatusOK,
			wantLog:        []string{"l GET /entities/x", "l GET /entities/x"},
			wantLeader:     2,
		},
		{
			name:        "replica within MaxLag serves",
			followerLag: 5, maxLag: 5,
			followerStatus: http.StatusOK,
			wantLog:        []string{"f GET /entities/x", "f GET /entities/x"},
			wantReplica:    2,
		},
		{
			// A replica failing mid-read is retried on the leader and then
			// left out of reads until the next poll.
			name:           "failed replica read falls back to the leader",
			followerStatus: http.StatusInternalServerError,
			wantLog:        []string{"f GET /entities/x", "l GET /entities/x", "l GET /entities/x"},
			wantLeader:     2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &fakeNet{nodes: map[string]*fakeNode{
				"l": {role: "leader", serve: answer(http.StatusOK, entity)},
				"f": {role: "follower", lag: tc.followerLag, serve: answer(tc.followerStatus, entity)},
			}}
			rt := newFakeRouter(t, net, []string{"l", "f"}, Options{MaxLag: tc.maxLag})
			for i := 0; i < 2; i++ {
				if w := serve(rt, http.MethodGet, "/entities/x", ""); w.Code != http.StatusOK {
					t.Fatalf("read %d: status %d: %s", i, w.Code, w.Body)
				}
			}
			if got := net.requests(); !reflect.DeepEqual(got, tc.wantLog) {
				t.Fatalf("requests %q, want %q", got, tc.wantLog)
			}
			if m := rt.Metrics(); m.ReplicaReads != tc.wantReplica || m.LeaderReads != tc.wantLeader {
				t.Fatalf("replica reads %d, leader reads %d; want %d, %d", m.ReplicaReads, m.LeaderReads, tc.wantReplica, tc.wantLeader)
			}
		})
	}
}

func TestRouterHedgedMatchLeg(t *testing.T) {
	links := func(id string) linkserver.MatchResponse {
		return linkserver.MatchResponse{Query: "p", K: 3, Links: []linkserver.MatchLink{{ID: id, Score: 0.9}}}
	}
	// Every case has a caught-up replica f (the primary pick) and the
	// leader l (the hedge target). hedged is closed when the hedge reaches
	// l, so "after the hedge fired" is an event, not a sleep.
	type nodes struct {
		f, l func(r *http.Request, hedged <-chan struct{}) (int, any, error)
	}
	untilCancelled := func(r *http.Request, _ <-chan struct{}) (int, any, error) {
		<-r.Context().Done()
		return 0, nil, r.Context().Err()
	}
	for _, tc := range []struct {
		name       string
		hedgeAfter time.Duration
		nodes      nodes
		wantStatus int
		wantLink   string
		want       Snapshot
	}{
		{
			name:       "primary answers within the budget",
			hedgeAfter: time.Hour,
			nodes: nodes{
				f: func(*http.Request, <-chan struct{}) (int, any, error) { return http.StatusOK, links("from-f"), nil },
			},
			wantStatus: http.StatusOK, wantLink: "from-f",
			want: Snapshot{Queries: 1, ReplicaReads: 1},
		},
		{
			name:       "hedge answers first",
			hedgeAfter: time.Millisecond,
			nodes: nodes{
				f: untilCancelled,
				l: func(*http.Request, <-chan struct{}) (int, any, error) { return http.StatusOK, links("from-l"), nil },
			},
			wantStatus: http.StatusOK, wantLink: "from-l",
			want: Snapshot{Queries: 1, HedgesFired: 1, HedgeWins: 1, LeaderReads: 1},
		},
		{
			name:       "primary answers after the hedge fired",
			hedgeAfter: time.Millisecond,
			nodes: nodes{
				f: func(_ *http.Request, hedged <-chan struct{}) (int, any, error) {
					<-hedged
					return http.StatusOK, links("from-f"), nil
				},
				l: untilCancelled,
			},
			wantStatus: http.StatusOK, wantLink: "from-f",
			want: Snapshot{Queries: 1, HedgesFired: 1, ReplicaReads: 1},
		},
		{
			name:       "both legs fail",
			hedgeAfter: time.Millisecond,
			nodes: nodes{
				f: func(_ *http.Request, hedged <-chan struct{}) (int, any, error) {
					<-hedged
					return http.StatusInternalServerError, linkserver.ErrorBody{Error: "boom"}, nil
				},
				l: func(*http.Request, <-chan struct{}) (int, any, error) {
					return http.StatusInternalServerError, linkserver.ErrorBody{Error: "boom"}, nil
				},
			},
			wantStatus: http.StatusBadGateway,
			want:       Snapshot{HedgesFired: 1, LegErrors: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hedged := make(chan struct{})
			var once sync.Once
			bind := func(h func(*http.Request, <-chan struct{}) (int, any, error), hedge bool) func(*http.Request) (int, any, error) {
				return func(r *http.Request) (int, any, error) {
					if hedge {
						once.Do(func() { close(hedged) })
					}
					if h == nil {
						t.Errorf("unexpected request to %s", r.URL.Host)
						return http.StatusInternalServerError, linkserver.ErrorBody{Error: "unexpected"}, nil
					}
					return h(r, hedged)
				}
			}
			net := &fakeNet{nodes: map[string]*fakeNode{
				"f": {role: "follower", serve: bind(tc.nodes.f, false)},
				"l": {role: "leader", serve: bind(tc.nodes.l, true)},
			}}
			rt := newFakeRouter(t, net, []string{"l", "f"}, Options{HedgeAfter: tc.hedgeAfter})
			w := serve(rt, http.MethodPost, "/match?k=3", `{"id":"p","properties":{"name":["x"]}}`)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.wantStatus, w.Body)
			}
			if tc.wantStatus == http.StatusOK {
				var resp linkserver.MatchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if len(resp.Links) != 1 || resp.Links[0].ID != tc.wantLink {
					t.Fatalf("links %+v, want the one from %s", resp.Links, tc.wantLink)
				}
			}
			got := rt.Metrics()
			got.RoutedWrites, got.RoutedDeletes = nil, nil
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("metrics %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestRouterStatsForwardsShardsAndCandidates pins that the routed /stats
// reports, per group, the shard count and candidate source its leader's
// own /stats names, next to the summed corpus. Each group is a real
// linkserver handler answering in process: one node serves a lone
// levenshtein from a one-shard rule index, the other a jaccard rule from
// its blocker over three shards.
func TestRouterStatsForwardsShardsAndCandidates(t *testing.T) {
	node := func(ruleJSON string, shards int) *fakeNode {
		r, err := rule.ParseJSON([]byte(ruleJSON))
		if err != nil {
			t.Fatal(err)
		}
		ix := linkindex.NewSharded(r, shards, matching.Options{Blocker: matching.TokenBlocking()})
		ix.Apply(linkindex.Batch{Upserts: []*entity.Entity{
			{ID: "a", Properties: map[string][]string{"name": {"Grace Hopper"}}},
			{ID: "b", Properties: map[string][]string{"name": {"Alan Turing"}}},
		}})
		h := linkserver.New(linkserver.Config{Index: ix}).Handler()
		return &fakeNode{role: "leader", serve: func(r *http.Request) (int, any, error) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			return w.Code, json.RawMessage(w.Body.Bytes()), nil
		}}
	}
	const comparison = `{"kind": "comparison", "function": %q, "threshold": %s,
		"children": [{"kind": "property", "property": "name"}, {"kind": "property", "property": "name"}]}`
	net := &fakeNet{nodes: map[string]*fakeNode{
		"l0": node(fmt.Sprintf(comparison, "levenshtein", "2"), 1),
		"l1": node(fmt.Sprintf(comparison, "jaccard", "0.5"), 3),
	}}
	rt, err := New(Options{
		Groups:       [][]string{{"l0"}, {"l1"}},
		Client:       &http.Client{Transport: net, Timeout: time.Minute},
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	w := serve(rt, http.MethodGet, "/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d: %s", w.Code, w.Body)
	}
	type group struct {
		Leader     string `json:"leader"`
		Entities   int    `json:"entities"`
		Shards     int    `json:"shards"`
		Candidates string `json:"candidates"`
	}
	var got struct {
		Entities int     `json:"entities"`
		Groups   []group `json:"groups"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := []group{
		{Leader: "http://l0", Entities: 2, Shards: 1, Candidates: "rule index (levenshtein ≤ 1, verified)"},
		{Leader: "http://l1", Entities: 2, Shards: 3, Candidates: "blocker token"},
	}
	if got.Entities != 4 || !reflect.DeepEqual(got.Groups, want) {
		t.Fatalf("/stats entities %d, groups %+v; want 4, %+v", got.Entities, got.Groups, want)
	}
}

// TestRouterReadsFallOverPastLeaderGuess pins that every routed read
// shares one fall-over policy: with the leader guess down and the only
// other node a follower past MaxLag, each kind of read starts at the
// leader guess, falls over to the follower and answers 200 from it —
// counted as a replica read, because the follower answered it.
func TestRouterReadsFallOverPastLeaderGuess(t *testing.T) {
	net := &fakeNet{nodes: map[string]*fakeNode{
		"l": {role: "leader", down: true},
		"f": {role: "follower", lag: 5, serve: func(r *http.Request) (int, any, error) {
			switch r.URL.Path {
			case "/entities/x":
				return http.StatusOK, map[string]any{"id": "x", "properties": map[string][]string{"p": {"v"}}}, nil
			case "/match":
				return http.StatusOK, linkserver.MatchResponse{Query: "x", K: 3, Links: []linkserver.MatchLink{{ID: "y", Score: 0.9}}}, nil
			case "/stats":
				return http.StatusOK, map[string]any{"entities": 1, "keys": 1, "shards": 1, "candidates": "blocker token"}, nil
			}
			return http.StatusNotFound, linkserver.ErrorBody{Error: "not found"}, nil
		}},
	}}
	rt := newFakeRouter(t, net, []string{"l", "f"}, Options{MaxLag: 0})
	for _, req := range []struct{ method, target, body, want string }{
		{http.MethodGet, "/entities/x", "", `"id":"x"`},
		{http.MethodGet, "/match?id=x&k=3", "", `"id":"y"`},
		{http.MethodGet, "/stats", "", `"entities":1`},
		{http.MethodPost, "/match?k=3", `{"id":"x","properties":{"p":["v"]}}`, `"id":"y"`},
	} {
		w := serve(rt, req.method, req.target, req.body)
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), req.want) {
			t.Fatalf("%s %s = %d %s, want 200 with %s", req.method, req.target, w.Code, w.Body, req.want)
		}
	}
	wantLog := []string{
		"l GET /entities/x", "f GET /entities/x",
		"l GET /entities/x", "f GET /entities/x", "l POST /match", "f POST /match",
		"l GET /stats", "f GET /stats",
		"l POST /match", "f POST /match",
	}
	if got := net.requests(); !reflect.DeepEqual(got, wantLog) {
		t.Fatalf("requests %q, want %q", got, wantLog)
	}
	got := rt.Metrics()
	got.RoutedWrites, got.RoutedDeletes = nil, nil
	if want := (Snapshot{Queries: 2, ReplicaReads: 5}); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %+v, want %+v", got, want)
	}
}

// TestRouterHedgeRespectsMaxLag pins that a hedge goes only to a node the
// lag gate admits: the leader is slow, but the only other node is a
// follower past MaxLag, so no hedge fires and the leader answers.
func TestRouterHedgeRespectsMaxLag(t *testing.T) {
	net := &fakeNet{nodes: map[string]*fakeNode{
		"l": {role: "leader", serve: func(*http.Request) (int, any, error) {
			time.Sleep(50 * time.Millisecond)
			return http.StatusOK, linkserver.MatchResponse{Query: "p", K: 3, Links: []linkserver.MatchLink{{ID: "from-l", Score: 0.9}}}, nil
		}},
		"f": {role: "follower", lag: 5, serve: func(r *http.Request) (int, any, error) {
			t.Errorf("hedge reached the lagging follower: %s %s", r.Method, r.URL)
			return http.StatusOK, linkserver.MatchResponse{Query: "p", K: 3, Links: []linkserver.MatchLink{{ID: "from-f", Score: 0.9}}}, nil
		}},
	}}
	rt := newFakeRouter(t, net, []string{"l", "f"}, Options{MaxLag: 0, HedgeAfter: time.Millisecond})
	w := serve(rt, http.MethodPost, "/match?k=3", `{"id":"p","properties":{"name":["x"]}}`)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "from-l") {
		t.Fatalf("status %d: %s, want 200 from the leader", w.Code, w.Body)
	}
	got := rt.Metrics()
	got.RoutedWrites, got.RoutedDeletes = nil, nil
	if want := (Snapshot{Queries: 1, LeaderReads: 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %+v, want %+v", got, want)
	}
}

// TestRouterWritePartialFailure pins the routed write's contract across
// partitions: with one group unreachable the write answers 502, the
// reachable group's sub-batch stays applied and its ack is reported,
// and re-posting the same batch once the group is back answers 200 with
// every entity stored exactly once. Each group is one real linkserver
// handler answering in process.
func TestRouterWritePartialFailure(t *testing.T) {
	r, err := rule.ParseJSON([]byte(`{"kind": "comparison", "function": "jaccard", "threshold": 0.5,
		"children": [{"kind": "property", "property": "name"}, {"kind": "property", "property": "name"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	node := func() *fakeNode {
		ix := linkindex.NewSharded(r, 1, matching.Options{Blocker: matching.TokenBlocking()})
		h := linkserver.New(linkserver.Config{Index: ix}).Handler()
		return &fakeNode{role: "leader", serve: func(r *http.Request) (int, any, error) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			return w.Code, json.RawMessage(w.Body.Bytes()), nil
		}}
	}
	net := &fakeNet{nodes: map[string]*fakeNode{"l0": node(), "l1": node()}}
	net.nodes["l1"].down = true
	rt, err := New(Options{
		Groups:       [][]string{{"l0"}, {"l1"}},
		Client:       &http.Client{Transport: net, Timeout: time.Minute},
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	var batch []map[string]any
	var inPart0 []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("e%d", i)
		batch = append(batch, map[string]any{"id": id, "properties": map[string][]string{"name": {"name " + id}}})
		if linkindex.PartitionOf(id, 2) == 0 {
			inPart0 = append(inPart0, id)
		}
	}
	if len(inPart0) == 0 || len(inPart0) == len(batch) {
		t.Fatalf("batch must span both partitions; partition 0 holds %v", inPart0)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	type writeResp struct {
		Added      int                        `json:"added"`
		Partitions map[string]json.RawMessage `json:"partitions"`
	}
	post := func() (int, writeResp) {
		w := serve(rt, http.MethodPost, "/entities", string(body))
		var resp writeResp
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("write response %s: %v", w.Body, err)
		}
		return w.Code, resp
	}

	code, resp := post()
	if code != http.StatusBadGateway {
		t.Fatalf("write with partition 1 down = %d, want 502", code)
	}
	if want := fmt.Sprintf(`{"added":%d}`, len(inPart0)); resp.Added != len(inPart0) || string(resp.Partitions["0"]) != want {
		t.Fatalf("added %d, partitions[0] %s; want %d, %s", resp.Added, resp.Partitions["0"], len(inPart0), want)
	}
	var part1 struct{ Error string }
	if err := json.Unmarshal(resp.Partitions["1"], &part1); err != nil || !strings.Contains(part1.Error, "connection refused") {
		t.Fatalf("partitions[1] = %s, want the unreachable group's error", resp.Partitions["1"])
	}
	for _, id := range inPart0 {
		if w := serve(rt, http.MethodGet, "/entities/"+id, ""); w.Code != http.StatusOK {
			t.Fatalf("GET %s after the partial write = %d, want it applied", id, w.Code)
		}
	}

	net.nodes["l1"].down = false
	if code, _ := post(); code != http.StatusOK {
		t.Fatalf("re-posted write = %d, want 200", code)
	}
	var stats struct {
		Entities int `json:"entities"`
	}
	w := serve(rt, http.MethodGet, "/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil || w.Code != http.StatusOK || stats.Entities != len(batch) {
		t.Fatalf("/stats after the retry = %d %s, want 200 with %d entities", w.Code, w.Body, len(batch))
	}
	for _, e := range batch {
		if w := serve(rt, http.MethodGet, "/entities/"+e["id"].(string), ""); w.Code != http.StatusOK {
			t.Fatalf("GET %s after the retry = %d", e["id"], w.Code)
		}
	}
}
