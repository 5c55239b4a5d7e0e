package linkserver_test

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"genlink/internal/entity"
	"genlink/pkg/genlinkapi"
)

// storedUploads are entity bodies a client may send: bytes already in
// json.Marshal's form, escapes included, and bytes in other forms, whose
// entities the node stores as json.Marshal's bytes.
var storedUploads = map[string]string{
	"canonical": `{"id":"canonical","properties":{"name":["Grace Hopper"],"title":["compilers"]}}`,
	"escaped":   `{"id":"escaped","properties":{"name":["a \"quoted\" \\ name\n "],"title":["<b> & é"]}}`,
	"spaced":    " {\n \"properties\" : {\"title\":[\"\\u00e9\\/x\"], \"name\":[\"\xff\", \"\\ud83d\\ude00\"]},\n \"id\":\"spaced\" } ",
	"empty":     `{"id":"empty","properties":{}}`,
	"swapped":   `{"properties":{"name":["x"]},"id":"swapped"}`,
}

// wantEntityBody is the body GET /entities/{id} has always answered for
// an upload: json.Marshal's bytes of the entity json.Unmarshal decodes
// from it, and a newline.
func wantEntityBody(t *testing.T, upload string) string {
	t.Helper()
	var e entity.Entity
	if err := json.Unmarshal([]byte(upload), &e); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// checkEntityBodies holds every upload's GET /entities/{id} to
// wantEntityBody on the node at url.
func checkEntityBodies(t *testing.T, c *http.Client, url, node string) {
	t.Helper()
	for id, upload := range storedUploads {
		resp, err := c.Get(url + "/entities/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := wantEntityBody(t, upload); resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("%s GET /entities/%s = %d\n%q\nwant\n%q", node, id, resp.StatusCode, body, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s GET /entities/%s: Content-Type %q", node, id, ct)
		}
	}
}

// TestGetEntityAnswersMarshaledBytes pins the entity body a node answers
// from its stored bytes to json.Marshal's bytes of the uploaded entity
// plus a newline, for canonical, escaped and non-canonical uploads: on
// the leader, after a crash recovered from a snapshot and the log tail,
// and on a follower bootstrapped from that node.
func TestGetEntityAnswersMarshaledBytes(t *testing.T) {
	dir := t.TempDir()
	opts := genlinkapi.DurableIndexOptions{Fsync: genlinkapi.FsyncBatch, SnapshotEvery: -1}
	ts, dix := newDurableTestServer(t, dir, opts)
	c := ts.Client()
	post := func(url, id string) {
		t.Helper()
		if code := doJSON(t, c, "POST", url+"/entities", []byte(storedUploads[id]), nil); code != http.StatusOK {
			t.Fatalf("POST /entities %s = %d", id, code)
		}
	}
	// Three uploads reach the snapshot, the rest only the log tail.
	for _, id := range []string{"canonical", "spaced", "empty"} {
		post(ts.URL, id)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("POST /snapshot = %d", code)
	}
	for _, id := range []string{"escaped", "swapped"} {
		post(ts.URL, id)
	}
	checkEntityBodies(t, c, ts.URL, "leader")

	// Crash: no Shutdown, no final snapshot.
	ts.Close()
	if err := dix.Close(); err != nil {
		t.Fatal(err)
	}
	ts2, dix2 := newDurableTestServer(t, dir, opts)
	defer dix2.Close()
	checkEntityBodies(t, ts2.Client(), ts2.URL, "recovered leader")

	folTS, fol, _ := newFollowerTestServer(t, ts2.URL, t.TempDir())
	defer fol.Stop()
	waitFollowerApplied(t, fol, dix2.AppliedSeq())
	checkEntityBodies(t, folTS.Client(), folTS.URL, "follower")
}
