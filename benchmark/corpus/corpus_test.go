package corpus

import (
	"bytes"
	"reflect"
	"testing"

	"genlink/internal/entity"
)

// requests renders everything the workloads send for a seed: the load
// requests, a stretch of the probe stream and of the write stream.
func requests(seed int64) [][]byte {
	c := Generate(seed, 3000)
	var out [][]byte
	for _, r := range c.LoadRequests(512) {
		out = append(out, []byte(r.Method+" "+r.Path), r.Body)
	}
	ps := NewProbeStream(c, 0, 10, 0.2)
	for i := 0; i < 200; i++ {
		p := ps.Next()
		out = append(out, []byte(p.Method+" "+p.Path), p.Body)
	}
	ws := NewWriteStream(seed, 0, c.Entities[:100], 0.25, 0.05)
	for i := 0; i < 20; i++ {
		b := ws.NextBatch(64)
		out = append(out, b.Upsert.Body)
		for _, d := range b.Deletes {
			out = append(out, []byte(d.Path))
		}
	}
	return out
}

func TestSameSeedGivesIdenticalRequests(t *testing.T) {
	a, b := requests(7), requests(7)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d requests, then %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed: request %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedGivesDifferentRequests(t *testing.T) {
	a, b := requests(7), requests(8)
	same := 0
	for i := range a {
		if i < len(b) && len(a[i]) > 40 && bytes.Equal(a[i], b[i]) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 7 and 8 share %d request bodies", same)
	}
}

func TestStreamsOfOneSeedDiffer(t *testing.T) {
	c := Generate(3, 2000)
	p0, p1 := NewProbeStream(c, 0, 10, 0.2), NewProbeStream(c, 1, 10, 0.2)
	same := 0
	for i := 0; i < 100; i++ {
		if p0.Next().Path == p1.Next().Path {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("two clients' probe streams agree on %d of 100 probes", same)
	}
}

func TestGroundTruthClusters(t *testing.T) {
	c := Generate(1, 4000)
	if len(c.Entities) != 4000 || len(c.Cluster) != 4000 {
		t.Fatalf("want 4000 entities, got %d (%d cluster entries)", len(c.Entities), len(c.Cluster))
	}
	ids := make(map[string]bool)
	dups := 0
	for i, e := range c.Entities {
		if ids[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		ids[e.ID] = true
		members := c.Members[c.Cluster[i]]
		found := false
		for _, m := range members {
			found = found || m == i
		}
		if !found {
			t.Fatalf("entity %d is not listed in its own cluster", i)
		}
		if len(members) > 1 {
			dups++
		}
	}
	// datagen.Cora: 1617 of 1879 records are in three-record clusters.
	if dups < 3000 {
		t.Fatalf("only %d of 4000 entities have a duplicate", dups)
	}
}

func TestProbeStreamIsSkewedAndMixed(t *testing.T) {
	c := Generate(2, 3000)
	ps := NewProbeStream(c, 0, 10, 0.2)
	hits := make(map[int]int)
	posts := 0
	for i := 0; i < 2000; i++ {
		p := ps.Next()
		if !p.Stored {
			posts++
			if p.Entity.ID == c.Entities[p.Source].ID {
				t.Fatal("an external probe reuses a stored ID")
			}
			continue
		}
		hits[p.Source]++
	}
	if posts < 300 || posts > 500 {
		t.Fatalf("external share: %d of 2000, want about 400", posts)
	}
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	// Uniform probing would give each of 3000 entities about half a probe;
	// Zipf(1.1, v=10) gives the hottest about 2 %, and the head no more.
	if top < 15 || top > 100 {
		t.Fatalf("hottest stored entity probed %d times of %d: want Zipf-skewed with a flattened head", top, 2000-posts)
	}
}

func TestWriteStreamStateMatchesReplay(t *testing.T) {
	c := Generate(5, 500)
	ws := NewWriteStream(5, 1, c.Entities, 0.25, 0.05)
	replay := make(map[string]*entity.Entity)
	for _, e := range c.Entities {
		replay[e.ID] = e
	}
	kinds := make(map[OpKind]int)
	for i := 0; i < 5000; i++ {
		op := ws.Next()
		kinds[op.Kind]++
		switch op.Kind {
		case Delete:
			if replay[op.ID] == nil {
				t.Fatalf("op %d deletes %s, which is not live", i, op.ID)
			}
			replay[op.ID] = nil
		case Update:
			if replay[op.ID] == nil {
				t.Fatalf("op %d updates %s, which is not live", i, op.ID)
			}
			replay[op.ID] = op.Entity
		case Insert:
			if _, known := replay[op.ID]; known {
				t.Fatalf("op %d inserts known ID %s", i, op.ID)
			}
			replay[op.ID] = op.Entity
		}
	}
	if !reflect.DeepEqual(replay, ws.State()) {
		t.Fatal("State() differs from replaying the operations")
	}
	if kinds[Insert] < 3300 || kinds[Update] < 1100 || kinds[Delete] < 180 {
		t.Fatalf("mix %v, want about 70/25/5 of 5000", kinds)
	}
}

func TestStreamsOwnDisjointIDs(t *testing.T) {
	a, b := NewWriteStream(1, 0, nil, 0.25, 0.05), NewWriteStream(1, 1, nil, 0.25, 0.05)
	for i := 0; i < 500; i++ {
		a.Next()
		b.Next()
	}
	for id := range a.State() {
		if _, both := b.State()[id]; both {
			t.Fatalf("streams 0 and 1 both own %s", id)
		}
	}
}
