package linkserver_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"genlink/internal/linkindex"
	"genlink/internal/linkrouter"
	"genlink/internal/linkserver"
	"genlink/pkg/genlinkapi"
)

// routerCorpusEntity builds one corpus record. Names share the token
// "item" (token blocking puts every record in one uncapped block, so
// candidate enumeration is partition-invariant) while the numbered part
// varies the levenshtein distance — scores spread instead of all tying.
func routerCorpusEntity(id, name, title string) *genlinkapi.Entity {
	return &genlinkapi.Entity{ID: id, Properties: map[string][]string{
		"name": {name}, "title": {title},
	}}
}

// routerTestCorpus builds groups of three near-duplicate records each
// (edit distances 1–2 apart) plus cross-group near-misses, giving every
// probe several matches at distinct scores.
func routerTestCorpus() []*genlinkapi.Entity {
	var out []*genlinkapi.Entity
	for g := 0; g < 20; g++ {
		base := fmt.Sprintf("item %02d", g)
		title := fmt.Sprintf("the quick brown fox %d", g)
		out = append(out,
			routerCorpusEntity(fmt.Sprintf("e%02d-a", g), base, title),
			routerCorpusEntity(fmt.Sprintf("e%02d-b", g), base+"x", title),
			routerCorpusEntity(fmt.Sprintf("e%02d-c", g), base+"xy", title),
		)
	}
	return out
}

// newRouterBackend serves a plain sharded index over the partition-
// invariant options the differential contract requires: token blocking,
// uncapped blocks.
func newRouterBackend(t *testing.T, shards int) (*httptest.Server, *genlinkapi.Index) {
	t.Helper()
	ix := linkindex.NewSharded(serveRule(t), shards, genlinkapi.MatchOptions{
		Blocker: genlinkapi.TokenBlocking(), MaxBlockSize: -1,
	})
	ts := httptest.NewServer(linkserver.New(linkserver.Config{Index: ix}).Handler())
	t.Cleanup(ts.Close)
	return ts, ix
}

func newTestRouter(t *testing.T, opts linkrouter.Options) (*httptest.Server, *linkrouter.Router) {
	t.Helper()
	rt, err := linkrouter.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts, rt
}

// rawBody issues a request and returns the status and the exact response
// bytes.
func rawBody(t *testing.T, c *http.Client, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRouterDifferentialVsSingleIndex pins the routing contract: a
// quiescent router over {2,3} partition groups answers exactly like one
// big ShardedIndex over the same corpus — same top-k links in the same
// order (scores included) for GET /match and POST /match, and the same
// response bytes as a single node serving that index; the same
// entities from GET /entities/{id}, the same corpus size — under
// token blocking with uncapped blocks, the partition-invariant
// candidate semantics.
func TestRouterDifferentialVsSingleIndex(t *testing.T) {
	corpus := routerTestCorpus()
	for _, parts := range []int{2, 3} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			big := linkindex.NewSharded(serveRule(t), 4, genlinkapi.MatchOptions{
				Blocker: genlinkapi.TokenBlocking(), MaxBlockSize: -1,
			})
			big.Apply(genlinkapi.IndexBatch{Upserts: corpus})
			single := httptest.NewServer(linkserver.New(linkserver.Config{Index: big}).Handler())
			t.Cleanup(single.Close)

			var groups [][]string
			for i := 0; i < parts; i++ {
				ts, _ := newRouterBackend(t, 2)
				groups = append(groups, []string{ts.URL})
			}
			rts, _ := newTestRouter(t, linkrouter.Options{
				Groups: groups, DefaultK: 10, PollInterval: time.Hour,
			})
			c := rts.Client()

			// Load the corpus THROUGH the router so SplitBatch placement is
			// what's under test, in two batches to exercise batch splitting
			// more than once.
			var ack struct {
				Added int `json:"added"`
			}
			half := len(corpus) / 2
			for _, batch := range [][]*genlinkapi.Entity{corpus[:half], corpus[half:]} {
				body, _ := json.Marshal(batch)
				if code := doJSON(t, c, "POST", rts.URL+"/entities", body, &ack); code != 200 {
					t.Fatalf("routed POST /entities = %d", code)
				}
				if ack.Added != len(batch) {
					t.Fatalf("routed batch added %d, want %d", ack.Added, len(batch))
				}
			}

			// Corpus size must survive the split, and no partition may be
			// empty with 60 well-spread IDs.
			var stats struct {
				Entities int `json:"entities"`
				Groups   []struct {
					Entities int `json:"entities"`
				} `json:"groups"`
			}
			if code := doJSON(t, c, "GET", rts.URL+"/stats", nil, &stats); code != 200 {
				t.Fatalf("GET /stats = %d", code)
			}
			if stats.Entities != len(corpus) {
				t.Fatalf("routed corpus has %d entities, want %d", stats.Entities, len(corpus))
			}
			for gi, g := range stats.Groups {
				if g.Entities == 0 {
					t.Fatalf("partition %d is empty: placement is not spreading", gi)
				}
			}

			for _, k := range []int{5, 0} {
				for _, e := range corpus {
					want, ok := big.QueryID(e.ID, k)
					if !ok {
						t.Fatalf("big index lost %s", e.ID)
					}
					path := fmt.Sprintf("/match?id=%s&k=%d", e.ID, k)
					code, routed := rawBody(t, c, "GET", rts.URL+path, nil)
					if code != 200 {
						t.Fatalf("routed GET %s = %d", path, code)
					}
					if _, direct := rawBody(t, c, "GET", single.URL+path, nil); !bytes.Equal(routed, direct) {
						t.Fatalf("GET %s: router and single node answer different bytes\nrouter: %s\nsingle: %s", path, routed, direct)
					}
					var got linkserver.MatchResponse
					if err := json.Unmarshal(routed, &got); err != nil {
						t.Fatal(err)
					}
					if len(got.Links) != len(want) {
						t.Fatalf("id=%s k=%d: router %d links, big index %d\nrouter: %+v\nbig: %+v",
							e.ID, k, len(got.Links), len(want), got.Links, want)
					}
					for i, l := range want {
						if got.Links[i].ID != l.BID || got.Links[i].Score != l.Score {
							t.Fatalf("id=%s k=%d diverges at %d: router %+v, big index %+v",
								e.ID, k, i, got.Links[i], l)
						}
					}
				}
			}

			// POST /match with a fresh-ID probe (full-corpus match) agrees too.
			probe := routerCorpusEntity("probe-fresh", "item 07x", "the quick brown fox 7")
			want := big.Query(probe, 10)
			body, _ := json.Marshal(probe)
			code, routed := rawBody(t, c, "POST", rts.URL+"/match?k=10", body)
			if code != 200 {
				t.Fatalf("routed POST /match = %d", code)
			}
			if _, direct := rawBody(t, c, "POST", single.URL+"/match?k=10", body); !bytes.Equal(routed, direct) {
				t.Fatalf("POST /match: router and single node answer different bytes\nrouter: %s\nsingle: %s", routed, direct)
			}
			var got linkserver.MatchResponse
			if err := json.Unmarshal(routed, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Links) != len(want) {
				t.Fatalf("probe: router %d links, big index %d", len(got.Links), len(want))
			}
			for i, l := range want {
				if got.Links[i].ID != l.BID || got.Links[i].Score != l.Score {
					t.Fatalf("probe diverges at %d: router %+v, big index %+v", i, got.Links[i], l)
				}
			}

			// Entity gets round-trip through the owning partition.
			for _, e := range corpus[:10] {
				var round genlinkapi.Entity
				if code := doJSON(t, c, "GET", rts.URL+"/entities/"+e.ID, nil, &round); code != 200 {
					t.Fatalf("routed GET /entities/%s = %d", e.ID, code)
				}
				if round.ID != e.ID || round.Properties["name"][0] != e.Properties["name"][0] {
					t.Fatalf("routed get of %s returned %+v", e.ID, round)
				}
			}

			// A routed delete lands on the owning partition.
			victim := corpus[3].ID
			if code := doJSON(t, c, "DELETE", rts.URL+"/entities/"+victim, nil, nil); code != 204 {
				t.Fatalf("routed DELETE = %d", code)
			}
			if code := doJSON(t, c, "GET", rts.URL+"/entities/"+victim, nil, nil); code != 404 {
				t.Fatalf("GET of deleted entity = %d, want 404", code)
			}
		})
	}
}

// TestRouterRetargetsVia403 pins the redirect half of leader discovery:
// a router whose only contact for a group is an unpromoted replica must
// follow the 403 body's leader address, apply the write there, and
// remember the leader for the next write.
func TestRouterRetargetsVia403(t *testing.T) {
	lt, _ := newDurableTestServer(t, t.TempDir(), genlinkapi.DurableIndexOptions{SnapshotEvery: -1})
	ft, fol, _ := newFollowerTestServer(t, lt.URL, t.TempDir())
	t.Cleanup(fol.Stop) // stop tailing before the leader server's Close waits on the stream

	// The router only knows the replica — a stale deployment config.
	rts, rt := newTestRouter(t, linkrouter.Options{
		Groups: [][]string{{ft.URL}}, DefaultK: 10, PollInterval: 50 * time.Millisecond,
	})
	c := rts.Client()

	var ack struct {
		Added int `json:"added"`
	}
	if code := doJSON(t, c, "POST", rts.URL+"/entities", entityJSON("r1", "Grace Hopper", "compilers"), &ack); code != 200 {
		t.Fatalf("routed write via replica-only group = %d", code)
	}
	if ack.Added != 1 {
		t.Fatalf("added %d, want 1", ack.Added)
	}
	if got := rt.Metrics().Retargets; got < 1 {
		t.Fatalf("retargets = %d, want ≥ 1 (403 redirect must count)", got)
	}
	// The write landed on the real leader and replicates back to the
	// follower the router reads from.
	waitFollowerApplied(t, fol, 1)
	var e genlinkapi.Entity
	if code := doJSON(t, c, "GET", rts.URL+"/entities/r1", nil, &e); code != 200 || e.ID != "r1" {
		t.Fatalf("routed read after retarget: code=%d entity=%+v", code, e)
	}
	// Second write goes straight to the remembered leader: no new retarget.
	before := rt.Metrics().Retargets
	if code := doJSON(t, c, "POST", rts.URL+"/entities", entityJSON("r2", "Ada Lovelace", "analytical engines"), &ack); code != 200 {
		t.Fatalf("second routed write = %d", code)
	}
	if got := rt.Metrics().Retargets; got != before {
		t.Fatalf("second write retargeted again (%d -> %d); leader guess was not remembered", before, got)
	}
}

// TestRouterPromoteMidTraffic pins the failover half: the leader dies
// (connection refused, no 403 to follow), its replica is promoted, and
// the router's writes recover by iterating the group's other nodes —
// while reads keep answering throughout.
func TestRouterPromoteMidTraffic(t *testing.T) {
	lt, _ := newDurableTestServer(t, t.TempDir(), genlinkapi.DurableIndexOptions{SnapshotEvery: -1})
	ft, fol, _ := newFollowerTestServer(t, lt.URL, t.TempDir())
	t.Cleanup(fol.Stop)

	rts, rt := newTestRouter(t, linkrouter.Options{
		Groups: [][]string{{lt.URL, ft.URL}}, DefaultK: 10, PollInterval: 25 * time.Millisecond,
	})
	c := rts.Client()

	var ack struct {
		Added int `json:"added"`
	}
	if code := doJSON(t, c, "POST", rts.URL+"/entities", entityJSON("p1", "Grace Hopper", "compilers"), &ack); code != 200 {
		t.Fatalf("routed write before failover = %d", code)
	}
	waitFollowerApplied(t, fol, 1)

	// kill -9 the leader (connection refused from here on), then promote
	// the replica the way the runbook does. The follower's long-poll
	// stream is still open, so sever client connections first — Close
	// alone would wait for it.
	lt.CloseClientConnections()
	lt.Close()
	if code := doJSON(t, c, "POST", ft.URL+"/promote", nil, nil); code != 200 {
		t.Fatalf("promote = %d", code)
	}

	// The next routed write finds the promoted node by failover.
	if code := doJSON(t, c, "POST", rts.URL+"/entities", entityJSON("p2", "Ada Lovelace", "analytical engines"), &ack); code != 200 {
		t.Fatalf("routed write after promote = %d", code)
	}
	if got := rt.Metrics().Retargets; got < 1 {
		t.Fatalf("retargets = %d, want ≥ 1 (failover must update the leader guess)", got)
	}
	// Both the pre-failover and post-failover writes are readable.
	for _, id := range []string{"p1", "p2"} {
		var e genlinkapi.Entity
		if code := doJSON(t, c, "GET", rts.URL+"/entities/"+id, nil, &e); code != 200 || e.ID != id {
			t.Fatalf("routed read of %s after failover: code=%d entity=%+v", id, code, e)
		}
	}
}

// TestRouterConcurrent exercises the router under the race detector:
// parallel routed writes, fan-out matches, entity reads and metrics
// scrapes against two partition groups, then checks nothing was lost.
func TestRouterConcurrent(t *testing.T) {
	var groups [][]string
	for i := 0; i < 2; i++ {
		ts, _ := newRouterBackend(t, 2)
		groups = append(groups, []string{ts.URL})
	}
	rts, _ := newTestRouter(t, linkrouter.Options{
		Groups: groups, DefaultK: 5, PollInterval: 10 * time.Millisecond,
	})
	c := rts.Client()

	const writers, batches, perBatch = 4, 12, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var batch []*genlinkapi.Entity
				for j := 0; j < perBatch; j++ {
					n := (w*batches+b)*perBatch + j
					batch = append(batch, routerCorpusEntity(
						fmt.Sprintf("c%03d", n), fmt.Sprintf("item %02d", n%20), "racing fox"))
				}
				body, _ := json.Marshal(batch)
				if code := doJSON(t, c, "POST", rts.URL+"/entities", body, nil); code != 200 {
					t.Errorf("concurrent routed write = %d", code)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probe := routerCorpusEntity("probe", fmt.Sprintf("item %02d", r), "racing fox")
			body, _ := json.Marshal(probe)
			for i := 0; i < 30; i++ {
				if code := doJSON(t, c, "POST", rts.URL+"/match?k=5", body, nil); code != 200 {
					t.Errorf("concurrent routed match = %d", code)
					return
				}
				doJSON(t, c, "GET", rts.URL+"/entities/c000", nil, nil) // may 404 early; must not error
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if code := doJSON(t, c, "GET", rts.URL+"/metrics", nil, nil); code != 200 {
				t.Errorf("concurrent GET /metrics = %d", code)
				return
			}
		}
	}()
	wg.Wait()

	var stats struct {
		Entities int `json:"entities"`
	}
	if code := doJSON(t, c, "GET", rts.URL+"/stats", nil, &stats); code != 200 {
		t.Fatalf("GET /stats = %d", code)
	}
	if want := writers * batches * perBatch; stats.Entities != want {
		t.Fatalf("after concurrent writes: %d entities, want %d", stats.Entities, want)
	}
}

// TestRouterHedgedQuery pins the hedge path: the read-eligible node of a
// group stalls on /match, so after HedgeAfter the router duplicates the
// leg to the leader and the fast answer wins — correct links, hedge
// counters incremented, and latency far under the stall.
func TestRouterHedgedQuery(t *testing.T) {
	ix := linkindex.NewSharded(serveRule(t), 2, genlinkapi.MatchOptions{
		Blocker: genlinkapi.TokenBlocking(), MaxBlockSize: -1,
	})
	ix.Apply(genlinkapi.IndexBatch{Upserts: routerTestCorpus()})
	real := linkserver.New(linkserver.Config{Index: ix}).Handler()
	fast := httptest.NewServer(real)
	t.Cleanup(fast.Close)

	// The slow node serves the same corpus but stalls match legs, and
	// reports itself as a caught-up follower so the router's lag-aware
	// read pick prefers it.
	const stall = 400 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/metrics":
			linkserver.WriteJSON(w, http.StatusOK, map[string]any{
				"role": "follower", "applied_seq": 60, "replica_lag_records": 0,
			})
		case r.URL.Path == "/match":
			time.Sleep(stall)
			real.ServeHTTP(w, r)
		default:
			real.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(slow.Close)

	rts, rt := newTestRouter(t, linkrouter.Options{
		Groups:       [][]string{{fast.URL, slow.URL}},
		DefaultK:     10,
		PollInterval: 20 * time.Millisecond,
		HedgeAfter:   25 * time.Millisecond,
	})
	c := rts.Client()

	probe := routerCorpusEntity("probe-hedge", "item 03x", "the quick brown fox 3")
	want := ix.Query(probe, 10)
	body, _ := json.Marshal(probe)
	t0 := time.Now()
	var got linkserver.MatchResponse
	if code := doJSON(t, c, "POST", rts.URL+"/match?k=10", body, &got); code != 200 {
		t.Fatalf("hedged POST /match = %d", code)
	}
	if elapsed := time.Since(t0); elapsed >= stall {
		t.Fatalf("hedged query took %v, want well under the %v stall", elapsed, stall)
	}
	if len(got.Links) != len(want) {
		t.Fatalf("hedged answer has %d links, want %d", len(got.Links), len(want))
	}
	for i, l := range want {
		if got.Links[i].ID != l.BID || got.Links[i].Score != l.Score {
			t.Fatalf("hedged answer diverges at %d: %+v vs %+v", i, got.Links[i], l)
		}
	}
	m := rt.Metrics()
	if m.HedgesFired < 1 || m.HedgeWins < 1 {
		t.Fatalf("hedge counters: fired=%d wins=%d, want both ≥ 1", m.HedgesFired, m.HedgeWins)
	}
}

// TestHealthzMaxLag pins the lag-aware readiness gate: plain /healthz
// stays pure liveness, ?max_lag=N answers by role and lag — leaders
// always pass, a caught-up follower passes, a lagging follower is 503
// until the bound admits its lag, and garbage is a client error.
func TestHealthzMaxLag(t *testing.T) {
	lt, _ := newDurableTestServer(t, t.TempDir(), genlinkapi.DurableIndexOptions{SnapshotEvery: -1})
	dir := t.TempDir()
	ft, fol, _ := newFollowerTestServer(t, lt.URL, dir)
	t.Cleanup(fol.Stop)
	c := lt.Client()

	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("h%d", i)
		if code := doJSON(t, c, "POST", lt.URL+"/entities", entityJSON(id, "Grace Hopper", "compilers"), nil); code != 200 {
			t.Fatalf("seed write %d failed", i)
		}
	}
	waitFollowerApplied(t, fol, 2)

	// Caught-up follower passes the strictest gate; leaders always do;
	// garbage is 400; plain healthz stays a bare liveness probe.
	if code := doJSON(t, c, "GET", ft.URL+"/healthz?max_lag=0", nil, nil); code != 200 {
		t.Fatalf("caught-up follower healthz?max_lag=0 = %d, want 200", code)
	}
	if code := doJSON(t, c, "GET", lt.URL+"/healthz?max_lag=0", nil, nil); code != 200 {
		t.Fatalf("leader healthz?max_lag=0 = %d, want 200", code)
	}
	if code := doJSON(t, c, "GET", ft.URL+"/healthz?max_lag=bogus", nil, nil); code != 400 {
		t.Fatalf("healthz?max_lag=bogus = %d, want 400", code)
	}
	if code := doJSON(t, c, "GET", ft.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("plain healthz = %d, want 200", code)
	}

	// Force real lag: reopen the follower's state against a fake leader
	// whose stream heartbeat advertises a committed seq 5 ahead and then
	// stalls — exactly what a follower sees when it cannot keep up.
	fol.Stop()
	ft.Close()
	if err := fol.Durable().Close(); err != nil {
		t.Fatal(err)
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/wal/stream") {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "glnkrep1")
		payload := make([]byte, 16)
		binary.LittleEndian.PutUint64(payload[0:8], 7) // leader claims seq 7; we applied 2
		binary.LittleEndian.PutUint64(payload[8:16], uint64(time.Now().UnixNano()))
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint64(hdr[8:16], 0) // heartbeat frame seq
		table := crc32.MakeTable(crc32.Castagnoli)
		crc := crc32.Update(0, table, hdr[8:16])
		crc = crc32.Update(crc, table, payload)
		binary.LittleEndian.PutUint32(hdr[4:8], crc)
		_, _ = w.Write(hdr[:])
		_, _ = w.Write(payload)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(fake.Close)

	ft2, fol2, _ := newFollowerTestServer(t, fake.URL, dir)
	defer fol2.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for fol2.Status().LagRecords != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never saw the advertised lag: %+v", fol2.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := c.Get(ft2.URL + "/healthz?max_lag=4")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status string `json:"status"`
		Lag    uint64 `json:"replica_lag_records"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("lagging follower healthz?max_lag=4 = %d, want 503", resp.StatusCode)
	}
	if body.Status != "lagging" || body.Lag != 5 {
		t.Fatalf("503 body = %+v, want status lagging with lag 5", body)
	}
	if code := doJSON(t, c, "GET", ft2.URL+"/healthz?max_lag=5", nil, nil); code != 200 {
		t.Fatalf("healthz?max_lag=5 with lag 5 = %d, want 200", code)
	}
	if code := doJSON(t, c, "GET", ft2.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("plain healthz on a lagging follower = %d, want 200 (pure liveness)", code)
	}
}

// TestFollowerLastErrorServed pins that a follower's tailing error is
// served, not only logged: a 1-shard follower whose leader was
// re-created with 3 shards refuses to re-bootstrap from it, and the
// refusal shows as last_error on the follower's own GET /metrics and
// GET /healthz?max_lag= and in the router's polled view of the node. A
// leader reports the key empty.
func TestFollowerLastErrorServed(t *testing.T) {
	durableServer := func(shards int) *httptest.Server {
		dix, err := linkindex.NewDurable(t.TempDir(), linkindex.NewSharded(serveRule(t), shards, genlinkapi.MatchOptions{
			Blocker: genlinkapi.MultiPass(),
		}), genlinkapi.DurableIndexOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dix.Close() })
		ts := httptest.NewServer(linkserver.New(linkserver.Config{Index: dix.Index(), Durable: dix}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	write := func(ts *httptest.Server, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if code := doJSON(t, ts.Client(), "POST", ts.URL+"/entities", entityJSON(fmt.Sprintf("e%d", i), "Grace Hopper", "compilers"), nil); code != 200 {
				t.Fatalf("write %d = %d", i, code)
			}
		}
	}

	old := durableServer(1)
	write(old, 0, 3)
	dir := t.TempDir()
	ft, fol, _ := newFollowerTestServer(t, old.URL, dir)
	waitFollowerApplied(t, fol, 3)
	fol.Stop()
	ft.Close()
	if err := fol.Durable().Close(); err != nil {
		t.Fatal(err)
	}

	// The corpus re-created in 3 shards, its early log compacted away, so
	// the follower's next record is gone and it has to re-bootstrap.
	leader := durableServer(3)
	for _, to := range []int{10, 20} {
		write(leader, to-10, to)
		if code := doJSON(t, leader.Client(), "POST", leader.URL+"/snapshot", nil, nil); code != 200 {
			t.Fatalf("snapshot = %d", code)
		}
	}
	ft, fol, _ = newFollowerTestServer(t, leader.URL, dir)
	t.Cleanup(fol.Stop)

	const want = "leader snapshot has 3 shards, this follower 1"
	var m struct {
		LastError string `json:"last_error"`
	}
	for deadline := time.Now().Add(20 * time.Second); !strings.Contains(m.LastError, want); {
		if time.Now().After(deadline) {
			t.Fatalf("follower /metrics last_error = %q, want it to contain %q", m.LastError, want)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, ft.Client(), "GET", ft.URL+"/metrics", nil, &m)
	}
	m.LastError = ""
	doJSON(t, ft.Client(), "GET", ft.URL+"/healthz?max_lag=1000", nil, &m)
	if !strings.Contains(m.LastError, want) {
		t.Errorf("follower /healthz?max_lag last_error = %q, want it to contain %q", m.LastError, want)
	}

	rts, _ := newTestRouter(t, linkrouter.Options{
		Groups: [][]string{{leader.URL, ft.URL}}, DefaultK: 10, PollInterval: 25 * time.Millisecond,
	})
	var rm struct {
		Groups []struct {
			Nodes map[string]map[string]any `json:"nodes"`
		} `json:"groups"`
	}
	if code := doJSON(t, rts.Client(), "GET", rts.URL+"/metrics", nil, &rm); code != 200 || len(rm.Groups) != 1 {
		t.Fatalf("router /metrics = %d, %+v", code, rm)
	}
	nodes := rm.Groups[0].Nodes
	if got, _ := nodes[ft.URL]["last_error"].(string); !strings.Contains(got, want) {
		t.Errorf("router's view of the follower: last_error %q, want it to contain %q", got, want)
	}
	if got, ok := nodes[leader.URL]["last_error"].(string); !ok || got != "" {
		t.Errorf("router's view of the leader: last_error %v, want present and empty", nodes[leader.URL]["last_error"])
	}
}
