package linkserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"genlink/internal/linkindex"
	"genlink/internal/linkserver"
	"genlink/pkg/genlinkapi"
)

// serveRule compares lowercased names by levenshtein and titles by
// jaccard — the hand-built stand-in for a learned rule so the test
// doesn't pay for a learning run.
func serveRule(t *testing.T) *genlinkapi.Rule {
	t.Helper()
	r, err := genlinkapi.ParseRuleJSON([]byte(`{
	  "kind": "aggregation", "function": "max", "children": [
	    {"kind": "comparison", "function": "levenshtein", "threshold": 2, "children": [
	      {"kind": "transform", "function": "lowerCase",
	       "children": [{"kind": "property", "property": "name"}]},
	      {"kind": "transform", "function": "lowerCase",
	       "children": [{"kind": "property", "property": "name"}]}]},
	    {"kind": "comparison", "function": "jaccard", "threshold": 0.8, "children": [
	      {"kind": "property", "property": "title"},
	      {"kind": "property", "property": "title"}]}
	  ]}`))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newTestServer builds an in-memory test server over a sharded index.
func newTestServer(t *testing.T) (*httptest.Server, *genlinkapi.Index) {
	t.Helper()
	ix := linkindex.NewSharded(serveRule(t), 4, genlinkapi.MatchOptions{
		Blocker: genlinkapi.MultiPass(),
	})
	ts := httptest.NewServer(linkserver.New(linkserver.Config{Index: ix}).Handler())
	t.Cleanup(ts.Close)
	return ts, ix
}

func entityJSON(id, name, title string) []byte {
	e := map[string]any{"id": id, "properties": map[string][]string{
		"name": {name}, "title": {title},
	}}
	data, _ := json.Marshal(e)
	return data
}

// doJSON issues a request and decodes a JSON response. Errors are
// reported with Errorf (not Fatalf) so the helper is safe from the
// writer/reader goroutines of the race test; it returns -1 on transport
// or decode failure.
func doJSON(t *testing.T, client *http.Client, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return -1
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Errorf("%s %s: %v", method, url, err)
		return -1
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s %s: decode response: %v", method, url, err)
			return -1
		}
	}
	return resp.StatusCode
}

// TestStatsNamesCandidateSource pins that Stats and /stats name what
// serves the candidates beside the configured blocker: the blocker for
// serveRule (a max, which has no edit bound), and the rule index for a
// lone levenshtein comparison, whatever the blocker.
func TestStatsNamesCandidateSource(t *testing.T) {
	bounded, err := genlinkapi.ParseRuleJSON([]byte(`{"kind": "comparison", "function": "levenshtein", "threshold": 2, "children": [
	  {"kind": "property", "property": "name"},
	  {"kind": "property", "property": "name"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	blocker := genlinkapi.MultiPass().Name()
	for _, tc := range []struct {
		r    *genlinkapi.Rule
		want string
	}{
		{serveRule(t), "blocker " + blocker},
		{bounded, "rule index (levenshtein ≤ 1, verified)"},
	} {
		ix := linkindex.NewSharded(tc.r, 2, genlinkapi.MatchOptions{Blocker: genlinkapi.MultiPass()})
		if got := ix.Stats().Candidates; got != tc.want || ix.CandidateSource() != tc.want {
			t.Errorf("rule %s: Stats().Candidates = %q, CandidateSource() = %q, want %q", tc.r, got, ix.CandidateSource(), tc.want)
		}
		ts := httptest.NewServer(linkserver.New(linkserver.Config{Index: ix}).Handler())
		var stats map[string]any
		code := doJSON(t, ts.Client(), "GET", ts.URL+"/stats", nil, &stats)
		ts.Close()
		if code != 200 || stats["candidates"] != tc.want || stats["blocker"] != blocker {
			t.Errorf("rule %s: /stats %d %v, want candidates %q and blocker %q", tc.r, code, stats, tc.want, blocker)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	c := ts.Client()

	// Health and empty stats.
	if code := doJSON(t, c, "GET", ts.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	var stats map[string]any
	doJSON(t, c, "GET", ts.URL+"/stats", nil, &stats)
	if stats["entities"].(float64) != 0 {
		t.Fatalf("fresh stats = %v", stats)
	}

	// Single add, bulk add, fetch.
	var added map[string]int
	if code := doJSON(t, c, "POST", ts.URL+"/entities", entityJSON("a", "Grace Hopper", "compilers"), &added); code != 200 {
		t.Fatalf("POST /entities = %d", code)
	}
	if added["added"] != 1 || added["entities"] != 1 {
		t.Fatalf("add response = %v", added)
	}
	bulk := []byte(`[` + string(entityJSON("b", "grace hoper", "compilers")) + `,` +
		string(entityJSON("c", "Alan Turing", "computability")) + `]`)
	doJSON(t, c, "POST", ts.URL+"/entities", bulk, &added)
	if added["added"] != 2 || added["entities"] != 3 {
		t.Fatalf("bulk add response = %v", added)
	}
	var got map[string]any
	if code := doJSON(t, c, "GET", ts.URL+"/entities/a", nil, &got); code != 200 || got["id"] != "a" {
		t.Fatalf("GET /entities/a = %d %v", code, got)
	}

	// Match a stored entity.
	var match linkserver.MatchResponse
	if code := doJSON(t, c, "GET", ts.URL+"/match?id=a&k=5", nil, &match); code != 200 {
		t.Fatalf("GET /match = %d", code)
	}
	if len(match.Links) != 1 || match.Links[0].ID != "b" {
		t.Fatalf("match links = %v, want just b", match.Links)
	}

	// Match an external probe without indexing it.
	if code := doJSON(t, c, "POST", ts.URL+"/match?k=5", entityJSON("probe", "Alan Turing", "computability"), &match); code != 200 {
		t.Fatalf("POST /match = %d", code)
	}
	if len(match.Links) != 1 || match.Links[0].ID != "c" {
		t.Fatalf("probe match links = %v, want just c", match.Links)
	}
	doJSON(t, c, "GET", ts.URL+"/stats", nil, &stats)
	if stats["entities"].(float64) != 3 {
		t.Fatalf("probe was indexed: stats = %v", stats)
	}

	// Delete, then 404s and errors.
	if code := doJSON(t, c, "DELETE", ts.URL+"/entities/b", nil, nil); code != 204 {
		t.Fatalf("DELETE = %d", code)
	}
	if code := doJSON(t, c, "DELETE", ts.URL+"/entities/b", nil, nil); code != 404 {
		t.Fatalf("second DELETE = %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/match?id=b", nil, nil); code != 404 {
		t.Fatalf("match of deleted entity = %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/match", nil, nil); code != 400 {
		t.Fatalf("match without id = %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/match?id=a&k=x", nil, nil); code != 400 {
		t.Fatalf("match with bad k = %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/entities", []byte(`{"properties":{}}`), nil); code != 400 {
		t.Fatalf("entity without id = %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/entities", []byte(`not json`), nil); code != 400 {
		t.Fatalf("bad JSON = %d", code)
	}
}

// TestMetricsEndpoint pins the expvar-style counter set: entities,
// queries, writes, deletes, snapshots, per-shard sizes and the query
// latency histogram must all move with traffic and stay internally
// consistent (shard sizes sum to the corpus, bucket counts sum to the
// query count).
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	c := ts.Client()

	bulk := []byte(`[` + string(entityJSON("a", "Grace Hopper", "compilers")) + `,` +
		string(entityJSON("b", "grace hoper", "compilers")) + `,` +
		string(entityJSON("c", "Alan Turing", "computability")) + `]`)
	if code := doJSON(t, c, "POST", ts.URL+"/entities", bulk, nil); code != 200 {
		t.Fatalf("POST /entities = %d", code)
	}
	if code := doJSON(t, c, "DELETE", ts.URL+"/entities/c", nil, nil); code != 204 {
		t.Fatalf("DELETE = %d", code)
	}
	for i := 0; i < 3; i++ {
		if code := doJSON(t, c, "GET", ts.URL+"/match?id=a&k=5", nil, nil); code != 200 {
			t.Fatalf("GET /match = %d", code)
		}
	}
	if code := doJSON(t, c, "POST", ts.URL+"/match?k=5", entityJSON("probe", "Alan Turing", "computability"), nil); code != 200 {
		t.Fatalf("POST /match = %d", code)
	}

	var m linkserver.NodeMetrics
	if code := doJSON(t, c, "GET", ts.URL+"/metrics", nil, &m); code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	if m.Entities != 2 || m.Writes != 3 || m.Deletes != 1 || m.Queries != 4 || m.Snapshots != 0 {
		t.Fatalf("metrics = %+v, want entities=2 writes=3 deletes=1 queries=4 snapshots=0", m)
	}
	if m.Shards != 4 || len(m.ShardEntities) != 4 {
		t.Fatalf("metrics shards = %d/%v, want 4 shards with per-shard sizes", m.Shards, m.ShardEntities)
	}
	sum := 0
	for _, n := range m.ShardEntities {
		sum += n
	}
	if sum != m.Entities {
		t.Fatalf("shard sizes %v sum to %d, want %d", m.ShardEntities, sum, m.Entities)
	}
	if m.Keys == 0 {
		t.Fatal("metrics keys = 0, want > 0")
	}
	var bucketTotal int64
	for _, n := range m.QueryLatencyBuckets {
		bucketTotal += n
	}
	if bucketTotal != m.Queries {
		t.Fatalf("latency buckets %v sum to %d, want %d queries", m.QueryLatencyBuckets, bucketTotal, m.Queries)
	}
}

// TestSnapshotEndpointAndRestore exercises the full persistence loop the
// way a restart would: seed a -wal-dir server, POST /snapshot, then
// reopen the directory through the startup recovery path and check stats
// and answers are identical — including that the batched POST /entities
// writes and a delete survived, with nothing left to replay.
func TestSnapshotEndpointAndRestore(t *testing.T) {
	dir := t.TempDir()
	opts := genlinkapi.DurableIndexOptions{Fsync: genlinkapi.FsyncBatch, SnapshotEvery: -1}
	ts, dix := newDurableTestServer(t, dir, opts)
	c := ts.Client()
	ix := dix.Index()

	bulk := []byte(`[` + string(entityJSON("a", "Grace Hopper", "compilers")) + `,` +
		string(entityJSON("b", "grace hoper", "compilers")) + `,` +
		string(entityJSON("c", "Alan Turing", "computability")) + `,` +
		string(entityJSON("d", "Ada Lovelace", "notes")) + `]`)
	if code := doJSON(t, c, "POST", ts.URL+"/entities", bulk, nil); code != 200 {
		t.Fatalf("POST /entities = %d", code)
	}
	if code := doJSON(t, c, "DELETE", ts.URL+"/entities/d", nil, nil); code != 204 {
		t.Fatalf("DELETE = %d", code)
	}
	var snapResp map[string]any
	if code := doJSON(t, c, "POST", ts.URL+"/snapshot", nil, &snapResp); code != 200 {
		t.Fatalf("POST /snapshot = %d", code)
	}
	if int(snapResp["entities"].(float64)) != 3 {
		t.Fatalf("snapshot response = %v, want 3 entities", snapResp)
	}
	// The metrics snapshot counter moved.
	var m map[string]any
	doJSON(t, c, "GET", ts.URL+"/metrics", nil, &m)
	if m["snapshots"].(float64) != 1 {
		t.Fatalf("snapshots counter = %v, want 1", m["snapshots"])
	}

	// Restart: recovery must prefer the durable state over -rule/-dataset
	// (a nil build func would panic if it were consulted).
	ts.Close()
	if err := dix.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, stats, err := genlinkapi.OpenDurableIndex(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if !stats.Recovered || stats.SnapshotSeq != 2 || stats.RecordsReplayed != 0 {
		t.Fatalf("recovery stats = %+v, want snapshot seq 2 with an empty replay tail", stats)
	}
	restored := reopened.Index()
	want, got := ix.Stats(), restored.Stats()
	if got.Entities != want.Entities || got.Keys != want.Keys || got.Blocker != want.Blocker ||
		got.Threshold != want.Threshold || got.Shards != want.Shards {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	for _, id := range []string{"a", "b", "c"} {
		wantLinks, _ := ix.QueryID(id, 10)
		gotLinks, ok := restored.QueryID(id, 10)
		if !ok {
			t.Fatalf("restored index lost entity %q", id)
		}
		if len(gotLinks) != len(wantLinks) {
			t.Fatalf("restored QueryID(%s) = %v, want %v", id, gotLinks, wantLinks)
		}
		for i := range gotLinks {
			if gotLinks[i] != wantLinks[i] {
				t.Fatalf("restored QueryID(%s)[%d] = %+v, want %+v", id, i, gotLinks[i], wantLinks[i])
			}
		}
	}
	if restored.Get("d") != nil {
		t.Fatal("deleted entity d came back after restore")
	}
}

// TestSnapshotWithoutPath pins the 409 on servers running without
// -wal-dir, and that Shutdown (the graceful-shutdown hook) is a
// no-op rather than an error there.
func TestSnapshotWithoutPath(t *testing.T) {
	ts, ix := newTestServer(t)
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/snapshot", nil, nil); code != http.StatusConflict {
		t.Fatalf("POST /snapshot without -wal-dir = %d, want 409", code)
	}
	if err := linkserver.New(linkserver.Config{Index: ix}).Shutdown(); err != nil {
		t.Fatalf("Shutdown without -wal-dir = %v, want nil", err)
	}
}

// TestShutdownFlushesSnapshot drives the graceful-shutdown sequence the
// signal handler runs on a -wal-dir server — drain the HTTP server, then
// Shutdown — and checks the final state is recoverable from the
// final snapshot alone, with an empty replay tail.
func TestShutdownFlushesSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := genlinkapi.DurableIndexOptions{Fsync: genlinkapi.FsyncBatch, SnapshotEvery: -1}
	dix, _, err := genlinkapi.OpenDurableIndex(dir, func() (*genlinkapi.Index, error) {
		return linkindex.NewSharded(serveRule(t), 2, genlinkapi.MatchOptions{Blocker: genlinkapi.MultiPass()}), nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := linkserver.New(linkserver.Config{Index: dix.Index(), Durable: dix})
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	c := &http.Client{Timeout: 10 * time.Second}
	if code := doJSON(t, c, "POST", url+"/entities", entityJSON("a", "Grace Hopper", "compilers"), nil); code != 200 {
		t.Fatalf("POST /entities = %d", code)
	}

	// The shutdown sequence from serve's signal branch.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	reopened, stats, err := genlinkapi.OpenDurableIndex(dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if stats.SnapshotSeq != 1 || stats.RecordsReplayed != 0 {
		t.Fatalf("recovery stats = %+v, want the final snapshot at seq 1 and an empty replay tail", stats)
	}
	if reopened.Len() != 1 || reopened.Index().Get("a") == nil {
		t.Fatalf("recovered corpus = %d entities, want the 1 written before shutdown", reopened.Len())
	}
}

// TestServerConcurrentQueriesDuringUpdates is the race-enabled
// integration test: a stream of adds, updates and deletes runs against
// concurrent match queries. Every response a reader observes must be
// internally consistent — no duplicate candidates, no self matches, no
// sub-threshold or unordered scores — and once the stream quiesces the
// server must answer exactly like the batch matcher on the final corpus
// (no stale pairs survive).
func TestServerConcurrentQueriesDuringUpdates(t *testing.T) {
	ix := linkindex.NewSharded(serveRule(t), 4, genlinkapi.MatchOptions{Blocker: genlinkapi.MultiPass()})
	ts := httptest.NewServer(linkserver.New(linkserver.Config{Index: ix}).Handler())
	t.Cleanup(ts.Close)
	c := ts.Client()

	names := []string{"Grace Hopper", "grace hoper", "Alan Turing", "Ada Lovelace", "ada lovelace", "John McCarthy"}
	titles := []string{"compilers", "computability", "analytical engine notes", "lisp"}

	// Each writer owns a disjoint id range so the final corpus is exactly
	// the union of every writer's last op per id.
	const perWriter = 25
	finals := make([]map[string][2]string, 3) // id → (name, title); deleted ids absent
	var writers, readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		finals[w] = make(map[string][2]string)
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			final := finals[w]
			for i := 0; i < 150; i++ {
				id := fmt.Sprintf("s%d", w*perWriter+rng.Intn(perWriter))
				name := names[rng.Intn(len(names))]
				title := titles[rng.Intn(len(titles))]
				if rng.Float64() < 0.25 {
					code := doJSON(t, c, "DELETE", ts.URL+"/entities/"+id, nil, nil)
					if code != 204 && code != 404 {
						t.Errorf("DELETE %s = %d", id, code)
						return
					}
					delete(final, id)
					continue
				}
				if code := doJSON(t, c, "POST", ts.URL+"/entities", entityJSON(id, name, title), nil); code != 200 {
					t.Errorf("POST %s = %d", id, code)
					return
				}
				final[id] = [2]string{name, title}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 120; i++ {
				var match linkserver.MatchResponse
				var code int
				if rng.Float64() < 0.5 {
					id := fmt.Sprintf("s%d", rng.Intn(3*perWriter))
					code = doJSON(t, c, "GET", fmt.Sprintf("%s/match?id=%s&k=5", ts.URL, id), nil, &match)
					if code != 200 && code != 404 {
						t.Errorf("GET /match?id=%s = %d", id, code)
						return
					}
				} else {
					probe := entityJSON("probe", names[rng.Intn(len(names))], titles[rng.Intn(len(titles))])
					if code = doJSON(t, c, "POST", ts.URL+"/match?k=5", probe, &match); code != 200 {
						t.Errorf("POST /match = %d", code)
						return
					}
				}
				if code != 200 {
					continue
				}
				seen := make(map[string]bool)
				for j, l := range match.Links {
					if l.ID == match.Query {
						t.Errorf("self match in response: %+v", match)
						return
					}
					if seen[l.ID] {
						t.Errorf("duplicate candidate %q in response: %+v", l.ID, match)
						return
					}
					seen[l.ID] = true
					if l.Score < 0.5 {
						t.Errorf("sub-threshold link in response: %+v", l)
						return
					}
					if j > 0 && match.Links[j-1].Score < l.Score {
						t.Errorf("scores not descending: %+v", match.Links)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	writers.Wait()
	if t.Failed() {
		return
	}

	// Quiescent consistency: the server must now agree exactly with the
	// batch matcher over the final corpus.
	corpus := make(map[string][2]string)
	for _, final := range finals {
		for id, v := range final {
			corpus[id] = v
		}
	}
	var stats map[string]any
	doJSON(t, c, "GET", ts.URL+"/stats", nil, &stats)
	if int(stats["entities"].(float64)) != len(corpus) {
		t.Fatalf("final corpus size %v, want %d", stats["entities"], len(corpus))
	}

	ids := make([]string, 0, len(corpus))
	for id := range corpus {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	mk := func(id string) *genlinkapi.Entity {
		e := genlinkapi.NewEntity(id)
		e.Add("name", corpus[id][0])
		e.Add("title", corpus[id][1])
		return e
	}
	r := serveRule(t)
	for _, id := range ids {
		var match linkserver.MatchResponse
		if code := doJSON(t, c, "GET", fmt.Sprintf("%s/match?id=%s&k=0", ts.URL, id), nil, &match); code != 200 {
			t.Fatalf("final GET /match?id=%s = %d", id, code)
		}
		a := genlinkapi.NewSource("probe")
		a.Add(mk(id))
		b := genlinkapi.NewSource("corpus")
		for _, other := range ids {
			if other != id {
				b.Add(mk(other))
			}
		}
		want := genlinkapi.Match(r, a, b, genlinkapi.MatchOptions{Blocker: genlinkapi.MultiPass()})
		if len(match.Links) != len(want) {
			t.Fatalf("final match of %s: %d links, batch wants %d\nserver: %+v\nbatch: %+v",
				id, len(match.Links), len(want), match.Links, want)
		}
		for i, l := range want {
			if match.Links[i].ID != l.BID || match.Links[i].Score != l.Score {
				t.Fatalf("final match of %s diverges at %d: server %+v, batch %+v",
					id, i, match.Links[i], l)
			}
		}
	}
}

// newDurableTestServer builds a test server whose writes are
// write-ahead logged into dir.
func newDurableTestServer(t *testing.T, dir string, opts genlinkapi.DurableIndexOptions) (*httptest.Server, *genlinkapi.DurableIndex) {
	t.Helper()
	dix, _, err := genlinkapi.OpenDurableIndex(dir, func() (*genlinkapi.Index, error) {
		return linkindex.NewSharded(serveRule(t), 3, genlinkapi.MatchOptions{
			Blocker: genlinkapi.MultiPass(),
		}), nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := linkserver.New(linkserver.Config{Index: dix.Index(), Durable: dix})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, dix
}

// TestHandlerErrorPaths is the table-driven 4xx sweep: malformed or
// incomplete requests must answer a client error — never a 500, never
// an empty 200 that quietly did nothing.
func TestHandlerErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	c := ts.Client()
	// Seed one entity so the probe-shaped cases hit a live corpus.
	if code := doJSON(t, c, "POST", ts.URL+"/entities", entityJSON("a", "Grace Hopper", "compilers"), nil); code != 200 {
		t.Fatalf("seed POST /entities = %d", code)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		want   int
	}{
		{"match without id", "GET", "/match", nil, 400},
		{"match with empty id", "GET", "/match?id=", nil, 400},
		{"match with bad k", "GET", "/match?id=a&k=abc", nil, 400},
		{"match with negative k", "GET", "/match?id=a&k=-1", nil, 400},
		{"match of unknown id", "GET", "/match?id=ghost", nil, 404},
		{"post entities oversized body", "POST", "/entities", bytes.Repeat([]byte("x"), 16<<20+1), 413},
		{"post match oversized body", "POST", "/match", bytes.Repeat([]byte("x"), 16<<20+1), 413},
		{"post entities malformed json", "POST", "/entities", []byte(`{"id": "x",`), 400},
		{"post entities empty body", "POST", "/entities", []byte(``), 400},
		{"post entities not an object", "POST", "/entities", []byte(`42`), 400},
		{"post entities missing id", "POST", "/entities", []byte(`{"properties":{"name":["x"]}}`), 400},
		{"post entities empty id", "POST", "/entities", []byte(`{"id":"","properties":{"name":["x"]}}`), 400},
		{"post entities array with empty id", "POST", "/entities", []byte(`[{"id":"ok"},{"id":""}]`), 400},
		{"post entities array with null", "POST", "/entities", []byte(`[{"id":"ok"},null]`), 400},
		{"post match malformed json", "POST", "/match", []byte(`not json`), 400},
		{"post match empty body", "POST", "/match", []byte(``), 400},
		{"post match empty id", "POST", "/match", []byte(`{"id":""}`), 400},
		{"post match array of two", "POST", "/match", []byte(`[{"id":"p1"},{"id":"p2"}]`), 400},
		{"post match empty array", "POST", "/match", []byte(`[]`), 400},
		{"post match bad k", "POST", "/match?k=x", []byte(`{"id":"p"}`), 400},
		{"delete unknown entity", "DELETE", "/entities/ghost", nil, 404},
		{"get unknown entity", "GET", "/entities/ghost", nil, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody map[string]string
			code := doJSON(t, c, tc.method, ts.URL+tc.path, tc.body, nil)
			if code != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, code, tc.want)
			}
			// Error responses must carry a JSON error body, not be empty.
			req, _ := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
			resp, err := c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
				t.Fatalf("error response is not JSON: %v", err)
			}
			if errBody["error"] == "" {
				t.Fatalf("error response carries no error message: %v", errBody)
			}
		})
	}

	// A rejected batch must be all-or-nothing: "ok" from the mixed array
	// cases must not have been indexed.
	if code := doJSON(t, c, "GET", ts.URL+"/entities/ok", nil, nil); code != 404 {
		t.Fatalf("rejected batch partially applied: GET /entities/ok = %d, want 404", code)
	}
}

// TestDurableServerCrashRecovery drives the -wal-dir path end to end:
// writes and deletes through the handlers, a crash without any final
// snapshot (Close flushes the log tail, like a SIGKILL after the last
// acknowledged fsync), and a restart that must recover the acknowledged
// state and keep answering queries and accepting writes.
func TestDurableServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := genlinkapi.DurableIndexOptions{Fsync: genlinkapi.FsyncBatch, SnapshotEvery: -1}
	ts, dix := newDurableTestServer(t, dir, opts)
	c := ts.Client()

	bulk := []byte(`[` + string(entityJSON("a", "Grace Hopper", "compilers")) + `,` +
		string(entityJSON("b", "grace hoper", "compilers")) + `,` +
		string(entityJSON("c", "Alan Turing", "computability")) + `,` +
		string(entityJSON("d", "Ada Lovelace", "notes")) + `]`)
	if code := doJSON(t, c, "POST", ts.URL+"/entities", bulk, nil); code != 200 {
		t.Fatalf("POST /entities = %d", code)
	}
	if code := doJSON(t, c, "DELETE", ts.URL+"/entities/d", nil, nil); code != 204 {
		t.Fatalf("DELETE = %d", code)
	}
	// POST /snapshot persists into the WAL dir and reports the seq.
	var snapResp map[string]any
	if code := doJSON(t, c, "POST", ts.URL+"/snapshot", nil, &snapResp); code != 200 {
		t.Fatalf("POST /snapshot = %d", code)
	}
	if snapResp["snapshot_seq"].(float64) != 2 || int(snapResp["entities"].(float64)) != 3 {
		t.Fatalf("snapshot response = %v, want seq 2 over 3 entities", snapResp)
	}
	// More acknowledged writes after the snapshot: recovery must replay
	// them from the log tail.
	if code := doJSON(t, c, "POST", ts.URL+"/entities", entityJSON("e", "John McCarthy", "lisp"), nil); code != 200 {
		t.Fatalf("POST /entities = %d", code)
	}
	var m map[string]any
	doJSON(t, c, "GET", ts.URL+"/metrics", nil, &m)
	if m["wal_records"].(float64) != 3 || m["wal_snapshot_seq"].(float64) != 2 {
		t.Fatalf("metrics = wal_records %v, wal_snapshot_seq %v; want 3 and 2", m["wal_records"], m["wal_snapshot_seq"])
	}
	var wantMatch linkserver.MatchResponse
	if code := doJSON(t, c, "GET", ts.URL+"/match?id=a&k=5", nil, &wantMatch); code != 200 {
		t.Fatalf("GET /match = %d", code)
	}

	// Crash: no Shutdown, no final snapshot.
	ts.Close()
	if err := dix.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, dix2 := newDurableTestServer(t, dir, opts)
	defer dix2.Close()
	c = ts2.Client()
	var stats map[string]any
	doJSON(t, c, "GET", ts2.URL+"/stats", nil, &stats)
	if stats["entities"].(float64) != 4 {
		t.Fatalf("recovered stats = %v, want 4 entities (a,b,c,e)", stats)
	}
	var gotMatch linkserver.MatchResponse
	if code := doJSON(t, c, "GET", ts2.URL+"/match?id=a&k=5", nil, &gotMatch); code != 200 {
		t.Fatalf("recovered GET /match = %d", code)
	}
	if len(gotMatch.Links) != len(wantMatch.Links) {
		t.Fatalf("recovered match = %+v, want %+v", gotMatch.Links, wantMatch.Links)
	}
	for i := range gotMatch.Links {
		if gotMatch.Links[i] != wantMatch.Links[i] {
			t.Fatalf("recovered match[%d] = %+v, want %+v", i, gotMatch.Links[i], wantMatch.Links[i])
		}
	}
	if code := doJSON(t, c, "GET", ts2.URL+"/entities/d", nil, nil); code != 404 {
		t.Fatal("deleted entity d came back after recovery")
	}
	// The recovered server keeps accepting durable writes.
	if code := doJSON(t, c, "POST", ts2.URL+"/entities", entityJSON("f", "Barbara Liskov", "abstraction"), nil); code != 200 {
		t.Fatalf("post-recovery POST /entities = %d", code)
	}
	if dix2.Metrics().WALRecords != 4 {
		t.Fatalf("post-recovery WALRecords = %d, want 4", dix2.Metrics().WALRecords)
	}
}

// TestBackfillEndpoints drives the bulk-backfill HTTP surface end to
// end: ?backfill=1 batches skip the WAL and answer durable:false, a
// crash before POST /backfill/commit recovers none of them, and after
// a commit (the snapshot barrier) a crashed server recovers the whole
// load with nothing replayed from the log.
func TestBackfillEndpoints(t *testing.T) {
	dir := t.TempDir()
	opts := genlinkapi.DurableIndexOptions{Fsync: genlinkapi.FsyncBatch, SnapshotEvery: -1}
	ts, dix := newDurableTestServer(t, dir, opts)
	c := ts.Client()

	// Commit without a session: 409.
	if code := doJSON(t, c, "POST", ts.URL+"/backfill/commit", nil, nil); code != 409 {
		t.Fatalf("commit without session = %d, want 409", code)
	}

	// A logged write before the session: its durability must survive a
	// pre-commit crash alongside the discarded backfill.
	if code := doJSON(t, c, "POST", ts.URL+"/entities", entityJSON("logged1", "Grace Hopper", "compilers"), nil); code != 200 {
		t.Fatalf("logged POST /entities = %d", code)
	}
	walBefore := dix.Metrics().WALRecords

	bulk := []byte(`[` + string(entityJSON("bf1", "Alan Turing", "computability")) + `,` +
		string(entityJSON("bf2", "Ada Lovelace", "notes")) + `]`)
	var bfResp map[string]any
	if code := doJSON(t, c, "POST", ts.URL+"/entities?backfill=1", bulk, &bfResp); code != 200 {
		t.Fatalf("POST /entities?backfill=1 = %d", code)
	}
	if bfResp["durable"] != false || bfResp["backfill_pending"].(float64) != 2 {
		t.Fatalf("backfill response = %v, want durable:false pending:2", bfResp)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/entities?backfill=1", entityJSON("bf3", "John McCarthy", "lisp"), &bfResp); code != 200 {
		t.Fatalf("second backfill batch = %d", code)
	}
	if bfResp["backfill_pending"].(float64) != 3 {
		t.Fatalf("backfill_pending = %v, want 3 across batches", bfResp["backfill_pending"])
	}
	if got := dix.Metrics().WALRecords; got != walBefore {
		t.Fatalf("backfill wrote %d WAL records, want 0", got-walBefore)
	}
	// Visible in memory immediately, flagged in metrics.
	if code := doJSON(t, c, "GET", ts.URL+"/entities/bf1", nil, nil); code != 200 {
		t.Fatal("backfilled entity not servable before commit")
	}
	var m map[string]any
	doJSON(t, c, "GET", ts.URL+"/metrics", nil, &m)
	if m["backfill_active"] != true || m["backfilled"].(float64) != 3 {
		t.Fatalf("metrics = active %v, backfilled %v; want true and 3", m["backfill_active"], m["backfilled"])
	}
	// An explicit snapshot must refuse mid-session: no durable state may
	// expose a partial backfill.
	if code := doJSON(t, c, "POST", ts.URL+"/snapshot", nil, nil); code != 500 {
		t.Fatalf("POST /snapshot during backfill = %d, want 500", code)
	}

	// Crash before the barrier: only the logged write survives.
	crash := t.TempDir()
	copyWalDir(t, dir, crash)
	r, _, err := genlinkapi.OpenDurableIndex(crash, nil, genlinkapi.DurableIndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Index().Get("bf1") != nil || r.Index().Get("bf3") != nil {
		t.Fatal("pre-commit crash recovered backfilled entities")
	}
	if r.Index().Get("logged1") == nil {
		t.Fatal("pre-commit crash lost the acknowledged logged write")
	}
	r.Close()

	// Commit: the barrier makes the load durable in one snapshot.
	var commitResp map[string]any
	if code := doJSON(t, c, "POST", ts.URL+"/backfill/commit", nil, &commitResp); code != 200 {
		t.Fatalf("POST /backfill/commit = %d", code)
	}
	if commitResp["committed"].(float64) != 3 {
		t.Fatalf("commit response = %v, want committed:3", commitResp)
	}
	doJSON(t, c, "GET", ts.URL+"/metrics", nil, &m)
	if m["backfill_active"] != false {
		t.Fatal("backfill_active still true after commit")
	}

	// Crash after the barrier: everything recovers from the snapshot
	// alone — the load never touched the log.
	ts.Close()
	if err := dix.Close(); err != nil {
		t.Fatal(err)
	}
	r2, stats, err := genlinkapi.OpenDurableIndex(dir, nil, genlinkapi.DurableIndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if stats.RecordsReplayed != 0 {
		t.Fatalf("post-commit recovery replayed %d records, want 0", stats.RecordsReplayed)
	}
	for _, id := range []string{"logged1", "bf1", "bf2", "bf3"} {
		if r2.Index().Get(id) == nil {
			t.Fatalf("post-commit recovery lost %s", id)
		}
	}
}

// TestBackfillWithoutWALDir pins the 409 contract: without -wal-dir
// there is no durability barrier, so backfill mode is refused rather
// than silently degrading to a plain in-memory apply.
func TestBackfillWithoutWALDir(t *testing.T) {
	ts, _ := newTestServer(t)
	c := ts.Client()
	if code := doJSON(t, c, "POST", ts.URL+"/entities?backfill=1", entityJSON("x", "Grace Hopper", "compilers"), nil); code != 409 {
		t.Fatalf("backfill without -wal-dir = %d, want 409", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/backfill/commit", nil, nil); code != 409 {
		t.Fatalf("commit without -wal-dir = %d, want 409", code)
	}
}

// newFollowerTestServer opens a follower of leaderURL over dir and
// serves it the way main's -follow branch does.
func newFollowerTestServer(t *testing.T, leaderURL, dir string) (*httptest.Server, *genlinkapi.Follower, *linkserver.Server) {
	t.Helper()
	fol, err := genlinkapi.OpenFollower(genlinkapi.FollowerOptions{
		Leader:         leaderURL,
		Dir:            dir,
		Durable:        genlinkapi.DurableIndexOptions{SnapshotEvery: -1},
		ReconnectDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := linkserver.New(linkserver.Config{Index: fol.Index(), Durable: fol.Durable(), Follower: fol})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, fol, srv
}

// waitFollowerApplied blocks until the follower has applied at least seq.
func waitFollowerApplied(t *testing.T, fol *genlinkapi.Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if fol.Status().AppliedSeq >= seq {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck: %+v, want applied seq ≥ %d", fol.Status(), seq)
}

// TestReplicaServer drives the follower HTTP surface: reads and metrics
// are served locally, writes bounce with 403 naming the leader, and
// POST /promote flips the node into accepting writes.
func TestReplicaServer(t *testing.T) {
	leaderTS, leaderDix := newDurableTestServer(t, t.TempDir(),
		genlinkapi.DurableIndexOptions{SnapshotEvery: -1})
	c := leaderTS.Client()
	bulk := []byte(`[` + string(entityJSON("a", "Grace Hopper", "compilers")) + `,` +
		string(entityJSON("b", "grace hoper", "compilers")) + `,` +
		string(entityJSON("c", "Alan Turing", "computability")) + `]`)
	if code := doJSON(t, c, "POST", leaderTS.URL+"/entities", bulk, nil); code != 200 {
		t.Fatalf("leader POST /entities = %d", code)
	}

	folTS, fol, _ := newFollowerTestServer(t, leaderTS.URL, t.TempDir())
	waitFollowerApplied(t, fol, leaderDix.AppliedSeq())

	// Promote on a non-replica: 409.
	if code := doJSON(t, c, "POST", leaderTS.URL+"/promote", nil, nil); code != 409 {
		t.Fatalf("POST /promote on leader = %d, want 409", code)
	}

	// Reads are served from the replica's own index.
	var got map[string]any
	if code := doJSON(t, c, "GET", folTS.URL+"/entities/a", nil, &got); code != 200 || got["id"] != "a" {
		t.Fatalf("replica GET /entities/a = %d %v", code, got)
	}
	var wantMatch, gotMatch linkserver.MatchResponse
	if code := doJSON(t, c, "GET", leaderTS.URL+"/match?id=a&k=5", nil, &wantMatch); code != 200 {
		t.Fatalf("leader GET /match = %d", code)
	}
	if code := doJSON(t, c, "GET", folTS.URL+"/match?id=a&k=5", nil, &gotMatch); code != 200 {
		t.Fatalf("replica GET /match = %d", code)
	}
	if len(gotMatch.Links) != len(wantMatch.Links) {
		t.Fatalf("replica match = %+v, leader match = %+v", gotMatch.Links, wantMatch.Links)
	}
	for i := range gotMatch.Links {
		if gotMatch.Links[i] != wantMatch.Links[i] {
			t.Fatalf("replica match[%d] = %+v, leader %+v", i, gotMatch.Links[i], wantMatch.Links[i])
		}
	}
	var stats map[string]any
	doJSON(t, c, "GET", folTS.URL+"/stats", nil, &stats)
	if stats["entities"].(float64) != 3 {
		t.Fatalf("replica stats = %v, want 3 entities", stats)
	}
	var m map[string]any
	if code := doJSON(t, c, "GET", folTS.URL+"/metrics", nil, &m); code != 200 {
		t.Fatalf("replica GET /metrics = %d", code)
	}
	if m["role"] != "follower" || m["applied_seq"].(float64) != 1 {
		t.Fatalf("replica metrics role=%v applied_seq=%v, want follower at seq 1", m["role"], m["applied_seq"])
	}
	if m["leader"] != fol.Leader() {
		t.Fatalf("replica metrics leader = %v, want %v", m["leader"], fol.Leader())
	}
	for _, k := range []string{"replica_lag_records", "replica_lag_ms"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("replica metrics missing %q: %v", k, m)
		}
	}

	// Writes bounce with 403 and the leader's address.
	for _, wr := range []struct{ method, path string }{
		{"POST", "/entities"},
		{"DELETE", "/entities/a"},
		{"POST", "/backfill/commit"},
	} {
		req, _ := http.NewRequest(wr.method, folTS.URL+wr.path, bytes.NewReader(entityJSON("z", "x", "y")))
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != 403 || body["leader"] != fol.Leader() {
			t.Fatalf("%s %s on replica = %d %v, want 403 naming the leader", wr.method, wr.path, resp.StatusCode, body)
		}
	}
	if code := doJSON(t, c, "GET", folTS.URL+"/entities/a", nil, nil); code != 200 {
		t.Fatal("rejected write deleted the entity anyway")
	}

	// Promote: writes start succeeding, role flips, second promote is
	// idempotent.
	var pr map[string]any
	if code := doJSON(t, c, "POST", folTS.URL+"/promote", nil, &pr); code != 200 || pr["role"] != "leader" {
		t.Fatalf("POST /promote = %d %v", code, pr)
	}
	if code := doJSON(t, c, "POST", folTS.URL+"/entities", entityJSON("d", "Ada Lovelace", "notes"), nil); code != 200 {
		t.Fatalf("post-promote POST /entities = %d", code)
	}
	if code := doJSON(t, c, "GET", folTS.URL+"/entities/d", nil, nil); code != 200 {
		t.Fatal("post-promote write not visible")
	}
	if code := doJSON(t, c, "POST", folTS.URL+"/promote", nil, nil); code != 200 {
		t.Fatal("second promote not idempotent")
	}
	doJSON(t, c, "GET", folTS.URL+"/metrics", nil, &m)
	if m["role"] != "leader" {
		t.Fatalf("post-promote metrics role = %v, want leader", m["role"])
	}
}

// TestFollowerShutdownOrdering pins the graceful-shutdown fix: the tail
// loop stops before the final snapshot, so the snapshot covers every
// applied record and a restart replays nothing from the log.
func TestFollowerShutdownOrdering(t *testing.T) {
	leaderTS, leaderDix := newDurableTestServer(t, t.TempDir(),
		genlinkapi.DurableIndexOptions{SnapshotEvery: -1})
	c := leaderTS.Client()
	for _, id := range []string{"a", "b", "c", "d"} {
		if code := doJSON(t, c, "POST", leaderTS.URL+"/entities", entityJSON(id, "Grace Hopper", "compilers"), nil); code != 200 {
			t.Fatalf("leader POST /entities = %d", code)
		}
	}
	folDir := t.TempDir()
	_, fol, srv := newFollowerTestServer(t, leaderTS.URL, folDir)
	waitFollowerApplied(t, fol, leaderDix.AppliedSeq())

	// The signal handler's persistence sequence: stop tailing, then the
	// final snapshot.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := fol.Durable().Close(); err != nil {
		t.Fatal(err)
	}

	restored, stats, err := genlinkapi.OpenDurableIndex(folDir, nil, genlinkapi.DurableIndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if stats.RecordsReplayed != 0 {
		t.Fatalf("restart replayed %d records, want 0 — the final snapshot missed applied state", stats.RecordsReplayed)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if restored.Index().Get(id) == nil {
			t.Fatalf("restart lost entity %s", id)
		}
	}
}

// copyWalDir snapshots a live WAL directory into dst, simulating the
// on-disk state a crash would leave behind.
func copyWalDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
