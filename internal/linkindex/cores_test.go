package linkindex_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
)

// The write side's parallelism follows GOMAXPROCS, not the shard count:
// the default shard count is one per two CPUs, buildRecords builds a
// group's records in chunks across the cores, and a snapshot splits each
// shard into GOMAXPROCS/shards sections. These tests pin that none of
// it moves an answer. They set GOMAXPROCS, so none of them runs in
// parallel with another test.

// setProcs sets GOMAXPROCS to n until the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestDefaultShardsFollowCores(t *testing.T) {
	for _, tc := range []struct{ procs, shards int }{{1, 1}, {2, 1}, {3, 1}, {4, 2}} {
		setProcs(t, tc.procs)
		if got := linkindex.NewSharded(diffRule(), 0, matching.Options{}).Shards(); got != tc.shards {
			t.Errorf("GOMAXPROCS %d: NewSharded(r, 0, …) has %d shards, want %d", tc.procs, got, tc.shards)
		}
	}
}

// chunkedBatches are batches the record build splits into several
// chunks: a seed of 5·RecordChunk entities, then two batches that each
// upsert 3·RecordChunk IDs — a third of them stored already, some twice,
// the second batch's IDs all the first's — and delete every fifth or
// seventh seeded ID, some of them also upserted in the batch.
func chunkedBatches() []linkindex.Batch {
	rng := rand.New(rand.NewSource(11))
	var seed linkindex.Batch
	for i := range 5 * linkindex.RecordChunk {
		seed.Upserts = append(seed.Upserts, diffEntity(rng, fmt.Sprintf("e%d", i)))
	}
	batches := []linkindex.Batch{seed}
	for _, every := range []int{5, 7} {
		var b linkindex.Batch
		for i := range 3 * linkindex.RecordChunk {
			id := fmt.Sprintf("e%d", 4*linkindex.RecordChunk+i) // e64 … e111 at a chunk of 16
			b.Upserts = append(b.Upserts, diffEntity(rng, id))
			if i%every == 0 {
				b.Upserts = append(b.Upserts, diffEntity(rng, id)) // the later version wins
			}
		}
		for i := 0; i < 5*linkindex.RecordChunk; i += every {
			b.Deletes = append(b.Deletes, fmt.Sprintf("e%d", i))
		}
		batches = append(batches, b)
	}
	return batches
}

// applyChunked applies chunkedBatches to a one-shard index at the given
// GOMAXPROCS.
func applyChunked(t *testing.T, procs int, prefix string) *linkindex.ShardedIndex {
	setProcs(t, procs)
	ix := linkindex.NewSharded(diffRules()[prefix], 1, matching.Options{Blocker: matching.TokenBlocking(), MaxBlockSize: -1})
	for _, b := range chunkedBatches() {
		ix.Apply(b)
	}
	if err := ix.CheckShardCounts(); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestApplyRecordBuildParallel pins that building a one-shard group's
// records on four cores leaves the same index as building them inline:
// the same entities, Stats and QueryID answers, under a blocker and
// under a rule index, whose keys are built in the same chunks.
func TestApplyRecordBuildParallel(t *testing.T) {
	for name, prefix := range map[string]string{"max": "", "wmean": "wmean/"} {
		t.Run(name, func(t *testing.T) {
			inline := applyChunked(t, 1, prefix)
			chunked := applyChunked(t, 4, prefix)
			if want, got := inline.Stats(), chunked.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Stats %+v at GOMAXPROCS 4, %+v at 1", got, want)
			}
			sameAnswers(t, chunked, inline)
		})
	}
}

// TestRecoverChunkedRecords pins the replay pipeline's two stages on a
// one-shard index at GOMAXPROCS 4: each logged batch's records build in
// several chunks while the previous batch installs, and the recovered
// index must equal chunkedBatches applied in order — the latest version
// of every re-upserted ID, none of the deleted ones.
func TestRecoverChunkedRecords(t *testing.T) {
	want := applyChunked(t, 4, "wmean/")
	dir := t.TempDir()
	opts := linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1}
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(diffWMeanRule(), 1, matching.Options{Blocker: matching.TokenBlocking()}), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range chunkedBatches() {
		if _, err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := linkindex.Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	if stats.RecordsReplayed != 3 {
		t.Fatalf("replayed %d records, want 3", stats.RecordsReplayed)
	}
	if err := rec.Index().CheckShardCounts(); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, rec.Index(), want)
}

// snapshotSections reads the section count from a snapshot's header.
func snapshotSections(t *testing.T, snap []byte) int {
	t.Helper()
	var hdr struct {
		Sections int `json:"sections"`
	}
	line, err := bufio.NewReader(bytes.NewReader(snap)).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		t.Fatal(err)
	}
	return hdr.Sections
}

// sameAnswers fails unless got holds want's entities, compared by their
// JSON (a snapshot decodes an entity without properties to a nil map),
// and answers every stored ID's QueryID as want does.
func sameAnswers(t *testing.T, got, want *linkindex.ShardedIndex) {
	t.Helper()
	gj, err := json.Marshal(got.Entities())
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want.Entities())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("entities %s, want %s", gj, wj)
	}
	for _, e := range want.Entities() {
		wl, _ := want.QueryID(e.ID, 0)
		gl, ok := got.QueryID(e.ID, 0)
		if !ok || !linksEqual(gl, wl) {
			t.Fatalf("QueryID(%s) = %v, want %v", e.ID, gl, wl)
		}
	}
}

// TestSnapshotSectionsFollowCores pins that a one-shard index written at
// GOMAXPROCS 4 snapshots in four sections, and that the snapshot
// restores to one shard, the same entities and the same answers at any
// GOMAXPROCS: at 6 the default would be three shards.
func TestSnapshotSectionsFollowCores(t *testing.T) {
	ix := applyChunked(t, 4, "wmean/")
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := snapshotSections(t, buf.Bytes()); got != 4 {
		t.Fatalf("a one-shard snapshot at GOMAXPROCS 4 has %d sections, want 4", got)
	}
	for _, procs := range []int{1, 6} {
		setProcs(t, procs)
		restored, err := linkindex.ReadSnapshot(bytes.NewReader(buf.Bytes()), linkindex.RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if restored.Shards() != 1 {
			t.Fatalf("restored %d shards at GOMAXPROCS %d, want the snapshot's 1", restored.Shards(), procs)
		}
		sameAnswers(t, restored, ix)
	}
}

// shardSensitive returns a one-shard multipass index over the first 400
// entities of Cora's B source under coraRule, a max of three comparisons
// with no edit bound, so the blocker serves it. Its answers depend on
// the shard count (the derived block cap and the sorted-neighborhood
// window apply per shard), which the test pins against a 3-shard load of
// the same corpus: only then can a restore into another count show.
func shardSensitive(t *testing.T) *linkindex.ShardedIndex {
	t.Helper()
	es := datagen.ByName("Cora")(1).B.Entities[:400]
	ix := linkindex.NewSharded(coraRule(), 1, matching.Options{Blocker: matching.MultiPass()})
	ix.BulkLoad(es)
	three := linkindex.NewSharded(coraRule(), 3, matching.Options{Blocker: matching.MultiPass()})
	three.BulkLoad(es)
	for _, e := range es {
		a, _ := ix.QueryID(e.ID, 0)
		b, _ := three.QueryID(e.ID, 0)
		if !linksEqual(a, b) {
			return ix
		}
	}
	t.Fatal("a 3-shard load answers every QueryID as the 1-shard one: the corpus cannot show a moved shard count")
	return nil
}

// TestRestoreKeepsShardCount pins that a corpus keeps the shard count it
// was created with: a one-shard snapshot restores through RestoreFrom and
// Recover at GOMAXPROCS 6, where a fresh index would take three shards,
// into one shard with the same answer to every stored ID's QueryID.
func TestRestoreKeepsShardCount(t *testing.T) {
	want := shardSensitive(t)
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, want, linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	setProcs(t, 6)
	if got := linkindex.NewSharded(coraRule(), 0, matching.Options{}).Shards(); got != 3 {
		t.Fatalf("a fresh index at GOMAXPROCS 6 has %d shards, want 3", got)
	}
	restored, err := linkindex.RestoreFrom(filepath.Join(dir, "snapshot-0000000000000000.snap"), linkindex.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := linkindex.Recover(dir, linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for name, got := range map[string]*linkindex.ShardedIndex{"RestoreFrom": restored, "Recover": rec.Index()} {
		if got.Shards() != 1 {
			t.Fatalf("%s rebuilt %d shards, want the snapshot's 1", name, got.Shards())
		}
		sameAnswers(t, got, want)
	}
}

// sectionPerShardCorpus is the corpus of testdata/sections_per_shard.snap.
func sectionPerShardCorpus() []*entity.Entity {
	return []*entity.Entity{
		ent("p1", "Grace Hopper", "compilers"),
		ent("p2", "grace hoper", "compiler design"),
		ent("p3", "Alan Turing", "computable numbers"),
		ent("p4", "alan turing", "on computable numbers"),
		ent("p5", "Ada Lovelace", "analytical engine"),
		ent("p6", "Ada Lovelac", "the analytical engine"),
		ent("p7", "Edsger Dijkstra", "structured programming"),
		ent("p8", "Edsger Dijkstra", ""),
		ent("p9", "Barbara Liskov", "data abstraction"),
		ent("p10", "Barbara Liskow", "abstraction"),
		ent("p11", "Donald Knuth", "literate programming"),
		ent("p12", "", "literate programming"),
	}
}

// TestSnapshotSectionPerShardRestores pins that a snapshot in the layout
// of writers that cut one section per shard — a two-shard index's
// sectionPerShardCorpus under diffWMeanRule, kept as a testdata file —
// restores as it is, to the answers of the same corpus loaded directly.
func TestSnapshotSectionPerShardRestores(t *testing.T) {
	snap, err := os.ReadFile("testdata/sections_per_shard.snap")
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotSections(t, snap); got != 2 {
		t.Fatalf("testdata snapshot has %d sections, want one per shard (2)", got)
	}
	restored, err := linkindex.ReadSnapshot(bytes.NewReader(snap), linkindex.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := linkindex.NewSharded(restored.Rule(), 2, matching.Options{Blocker: matching.TokenBlocking()})
	want.Apply(linkindex.Batch{Upserts: sectionPerShardCorpus()})
	if restored.Shards() != 2 {
		t.Fatalf("restored %d shards, want the snapshot's 2", restored.Shards())
	}
	if got, w := restored.Stats().ShardEntities, want.Stats().ShardEntities; !reflect.DeepEqual(got, w) {
		t.Fatalf("restored shard sizes %v, want %v", got, w)
	}
	sameAnswers(t, restored, want)
}
