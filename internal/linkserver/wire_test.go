package linkserver_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"genlink/internal/linkserver"
	"genlink/internal/matching"
)

// TestWireGolden pins the client wire contract byte for byte: these are
// the bodies genlinkd has always sent, and both tiers now encode them
// from the one set of types in wire.go.
func TestWireGolden(t *testing.T) {
	links := []matching.Link{{AID: "q", BID: "b", Score: 0.75}, {AID: "q", BID: "c", Score: 0.5}}
	cases := []struct {
		name   string
		write  func(w http.ResponseWriter)
		status int
		body   string
	}{
		{"match response", func(w http.ResponseWriter) {
			linkserver.WriteJSON(w, http.StatusOK, linkserver.ToMatchResponse("q", 5, links))
		}, 200, `{"query":"q","k":5,"links":[{"id":"b","score":0.75},{"id":"c","score":0.5}]}` + "\n"},
		{"match response without links", func(w http.ResponseWriter) {
			linkserver.WriteJSON(w, http.StatusOK, linkserver.ToMatchResponse("q", 0, nil))
		}, 200, `{"query":"q","k":0,"links":[]}` + "\n"},
		{"entities ack", func(w http.ResponseWriter) {
			linkserver.WriteJSON(w, http.StatusOK, linkserver.EntitiesAck{Added: 2, Entities: 7})
		}, 200, `{"added":2,"entities":7}` + "\n"},
		{"error", func(w http.ResponseWriter) {
			linkserver.WriteError(w, http.StatusNotFound, errors.New(`unknown entity "x"`))
		}, 404, `{"error":"unknown entity \"x\""}` + "\n"},
		{"replica write rejection", func(w http.ResponseWriter) {
			linkserver.WriteJSON(w, http.StatusForbidden, linkserver.ErrorBody{Error: "read-only replica", Leader: "http://l:1"})
		}, 403, `{"error":"read-only replica","leader":"http://l:1"}` + "\n"},
		{"oversized body", func(w http.ResponseWriter) {
			linkserver.WriteDecodeError(w, &http.MaxBytesError{Limit: 16 << 20})
		}, 413, `{"error":"request body exceeds the 16777216-byte limit"}` + "\n"},
		{"undecodable body", func(w http.ResponseWriter) {
			linkserver.WriteDecodeError(w, errors.New("invalid entity: boom"))
		}, 400, `{"error":"invalid entity: boom"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.write(rec)
			if rec.Code != tc.status || rec.Body.String() != tc.body {
				t.Fatalf("got %d %q, want %d %q", rec.Code, rec.Body.String(), tc.status, tc.body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
		})
	}
}

// TestNodeMetricsKeyOrder pins GET /metrics to the bytes the endpoint
// emitted when it was a map[string]any: every key present, in byte
// order. Re-encoding the decoded body through a map (which sorts) must
// reproduce it exactly.
func TestNodeMetricsKeyOrder(t *testing.T) {
	ts, _ := newTestServer(t)
	_, raw := rawBody(t, ts.Client(), "GET", ts.URL+"/metrics", nil)
	var asMap map[string]any
	if err := json.Unmarshal(raw, &asMap); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(asMap)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(raw); !bytes.Equal(got, sorted) {
		t.Fatalf("GET /metrics is not in sorted-key order:\n got %s\nwant %s", got, sorted)
	}
	if len(asMap) != 21 {
		t.Fatalf("GET /metrics has %d keys, want the 21 of NodeMetrics: %s", len(asMap), sorted)
	}
}

// TestHistogramBuckets pins the one latency table both tiers render: an
// observation lands in the first bucket whose (exclusive) bound exceeds
// it, and every label is present even at zero.
func TestHistogramBuckets(t *testing.T) {
	var h linkserver.Histogram
	for _, d := range []time.Duration{50 * time.Microsecond, 100 * time.Microsecond, 3 * time.Millisecond, 2 * time.Second} {
		h.Observe(d)
	}
	want := map[string]int64{
		"<0.1ms": 1, "<0.5ms": 1, "<1ms": 0, "<5ms": 1, "<10ms": 0,
		"<50ms": 0, "<100ms": 0, "<1s": 0, "+inf": 1,
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("Buckets() = %v, want %v", got, want)
	}
	for label, n := range want {
		if got[label] != n {
			t.Fatalf("bucket %q = %d, want %d (all: %v)", label, got[label], n, got)
		}
	}
}
