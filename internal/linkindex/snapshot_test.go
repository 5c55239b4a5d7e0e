package linkindex_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// TestSnapshotRoundTripCora is the acceptance round-trip on the paper's
// hardest dataset: bulk-load Cora's B source into a 4-shard multipass
// index, snapshot to disk, restore, and require identical Stats and
// identical top-k answers for probes drawn from Cora's A source — the
// "save → restart → restore" contract of the persistence subsystem.
func TestSnapshotRoundTripCora(t *testing.T) {
	ds := datagen.ByName("Cora")(1)
	r := coraRule()
	ix := linkindex.NewSharded(r, 4, matching.Options{Blocker: matching.MultiPass()})
	ix.BulkLoad(ds.B.Entities)

	path := filepath.Join(t.TempDir(), "cora.snap")
	if err := ix.SnapshotTo(path); err != nil {
		t.Fatal(err)
	}
	restored, err := linkindex.RestoreFrom(path, linkindex.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}

	want, got := ix.Stats(), restored.Stats()
	if got.Entities != want.Entities || got.Keys != want.Keys || got.Blocker != want.Blocker ||
		got.Threshold != want.Threshold || got.Shards != want.Shards {
		t.Fatalf("restored Stats = %+v, want %+v", got, want)
	}
	for i := range want.ShardEntities {
		if got.ShardEntities[i] != want.ShardEntities[i] {
			t.Fatalf("restored shard sizes %v, want %v", got.ShardEntities, want.ShardEntities)
		}
	}

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		probe := ds.A.Entities[rng.Intn(len(ds.A.Entities))]
		wantLinks := ix.Query(probe, 10)
		gotLinks := restored.Query(probe, 10)
		if !linksEqual(gotLinks, wantLinks) {
			t.Fatalf("probe %s: restored answers diverge\n want: %v\n  got: %v", probe.ID, wantLinks, gotLinks)
		}
	}
}

// coraRule builds a learned-rule-shaped probe over Cora's schema:
// lowercased titles by levenshtein, authors by jaccard, dates numerically.
func coraRule() *rule.Rule {
	title := rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("title")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("title")),
		similarity.Levenshtein(), 3)
	author := rule.NewComparison(
		rule.NewProperty("author"), rule.NewProperty("author"),
		similarity.Jaccard(), 0.9)
	date := rule.NewComparison(
		rule.NewProperty("date"), rule.NewProperty("date"),
		similarity.Numeric(), 2)
	return rule.New(rule.NewAggregation(rule.Max(), title, author, date))
}

// TestSnapshotShardCountOverride pins that a snapshot restores cleanly
// into a different shard count (shard assignment is a pure function of
// entity ID): with a partition-invariant strategy the answers are
// identical regardless of partitioning.
func TestSnapshotShardCountOverride(t *testing.T) {
	r := diffRule()
	rng := rand.New(rand.NewSource(3))
	ix := linkindex.NewSharded(r, 4, matching.Options{Blocker: matching.TokenBlocking(), MaxBlockSize: -1})
	for i := 0; i < 80; i++ {
		ix.Add(diffEntity(rng, fmt.Sprintf("o%d", i)))
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := linkindex.ReadSnapshot(bytes.NewReader(buf.Bytes()), linkindex.RestoreOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Shards() != 2 {
		t.Fatalf("restored Shards = %d, want override 2", restored.Shards())
	}
	if restored.Len() != ix.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), ix.Len())
	}
	for i := 0; i < 80; i += 9 {
		id := fmt.Sprintf("o%d", i)
		want, _ := ix.QueryID(id, 0)
		got, ok := restored.QueryID(id, 0)
		if !ok || !linksEqual(got, want) {
			t.Fatalf("QueryID(%s) after reshard: got %v, want %v", id, got, want)
		}
	}
}

// TestSnapshotV1Rejected pins that the retired v1 format — one JSON
// object with the whole corpus inline — is refused with an error naming
// its version, never misread as an empty v2 snapshot.
func TestSnapshotV1Rejected(t *testing.T) {
	r := diffRule()
	rng := rand.New(rand.NewSource(5))
	ix := linkindex.NewSharded(r, 3, matching.Options{Blocker: matching.TokenBlocking(), MaxBlockSize: -1})
	for i := 0; i < 60; i++ {
		ix.Add(diffEntity(rng, fmt.Sprintf("c%d", i)))
	}
	st := ix.Stats()
	v1, err := json.Marshal(map[string]any{
		"version":        1,
		"shards":         3,
		"blocker":        st.Blocker,
		"threshold":      st.Threshold,
		"max_block_size": -1,
		"rule":           ix.Rule(),
		"entities":       ix.Entities(),
	})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := linkindex.ReadSnapshot(bytes.NewReader(v1), linkindex.RestoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "snapshot version 1") {
		t.Fatalf("v1 restore = %v, %v; want an error naming snapshot version 1", restored, err)
	}
}

// TestSnapshotVersionAndBlockerErrors pins the failure modes: a future
// format version is rejected rather than misread, and a snapshot of a
// non-registry blocker restores only when RestoreOptions.Blocker names
// the strategy to rebuild with.
func TestSnapshotVersionAndBlockerErrors(t *testing.T) {
	r := diffRule()
	ix := linkindex.NewSharded(r, 2, matching.Options{Blocker: matching.SortedNeighborhood(4)})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		ix.Add(diffEntity(rng, fmt.Sprintf("v%d", i)))
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// SortedNeighborhood(4) is not a registry default: restoring without
	// an explicit blocker must fail loudly, with one succeed.
	if _, err := linkindex.ReadSnapshot(bytes.NewReader(buf.Bytes()), linkindex.RestoreOptions{}); err == nil {
		t.Fatal("restore of non-registry blocker without RestoreOptions.Blocker succeeded")
	}
	restored, err := linkindex.ReadSnapshot(bytes.NewReader(buf.Bytes()), linkindex.RestoreOptions{Blocker: matching.SortedNeighborhood(4)})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != ix.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), ix.Len())
	}

	// Version bump: reject. A v2 snapshot is newline-separated JSON
	// values with the header first; mangle only the header line and keep
	// the section values behind it intact.
	hdrEnd := bytes.IndexByte(buf.Bytes(), '\n')
	if hdrEnd < 0 {
		t.Fatal("snapshot has no header line")
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes()[:hdrEnd], &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = json.RawMessage("999")
	mangledHdr, _ := json.Marshal(raw)
	mangled := append(append(mangledHdr, '\n'), buf.Bytes()[hdrEnd+1:]...)
	if _, err := linkindex.ReadSnapshot(bytes.NewReader(mangled), linkindex.RestoreOptions{Blocker: matching.TokenBlocking()}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version restore error = %v, want version rejection", err)
	}
}
