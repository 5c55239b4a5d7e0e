package linkindex_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
)

func durableOpts() matching.Options {
	return matching.Options{Blocker: matching.MultiPass()}
}

// testBatches builds a deterministic mutation stream: upserts with
// varied names/titles over a bounded id pool, plus occasional deletes.
func testBatches(n int, seed int64) []linkindex.Batch {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"Grace Hopper", "grace hoper", "Alan Turing", "Ada Lovelace", "ada lovelace", "John McCarthy"}
	titles := []string{"compilers", "computability", "analytical engine notes", "lisp"}
	batches := make([]linkindex.Batch, n)
	for i := range batches {
		var b linkindex.Batch
		for j := 0; j < 3; j++ {
			id := fmt.Sprintf("p%d", rng.Intn(20))
			b.Upserts = append(b.Upserts, ent(id, names[rng.Intn(len(names))], titles[rng.Intn(len(titles))]))
		}
		if rng.Float64() < 0.3 {
			b.Deletes = append(b.Deletes, fmt.Sprintf("p%d", rng.Intn(20)))
		}
		batches[i] = b
	}
	return batches
}

// cloneBatch deep-copies a batch so the reference index and the durable
// index never share entity pointers.
func cloneBatch(b linkindex.Batch) linkindex.Batch {
	c := linkindex.Batch{Deletes: append([]string(nil), b.Deletes...)}
	for _, e := range b.Upserts {
		c.Upserts = append(c.Upserts, e.Clone())
	}
	return c
}

// referenceIndex replays batches[:n] into a fresh in-memory index — the
// ground truth a recovered index must match.
func referenceIndex(batches []linkindex.Batch, n, shards int) *linkindex.ShardedIndex {
	ix := linkindex.NewSharded(testRule(), shards, durableOpts())
	for _, b := range batches[:n] {
		ix.Apply(cloneBatch(b))
	}
	return ix
}

// compareIndexes differentially compares two indexes: identical corpora
// and identical QueryID answers for every stored entity.
func compareIndexes(t *testing.T, label string, got, want *linkindex.ShardedIndex) {
	t.Helper()
	ge, we := got.Entities(), want.Entities()
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: corpora differ:\n got %v\nwant %v", label, ge, we)
	}
	for _, e := range we {
		gl, gok := got.QueryID(e.ID, 0)
		wl, wok := want.QueryID(e.ID, 0)
		if gok != wok || !reflect.DeepEqual(gl, wl) {
			t.Fatalf("%s: QueryID(%s) = %v,%v, want %v,%v", label, e.ID, gl, gok, wl, wok)
		}
	}
}

// copyDir simulates the disk state a crash would leave: a file-by-file
// copy of the durable directory (atomic-write temp files excluded, as a
// crash would discard them too).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !de.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestDurableApplyCloseRecover(t *testing.T) {
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), 3, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches(12, 1)
	for _, b := range batches {
		if _, err := d.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Apply(linkindex.Batch{Upserts: []*entity.Entity{ent("x1", "Grace Hopper", "compilers")}}); err != nil {
		t.Fatal(err)
	}
	if res, err := d.Apply(linkindex.Batch{Deletes: []string{"x1"}}); err != nil || res.Deleted != 1 {
		t.Fatalf("delete x1 = %+v, %v; want it present", res, err)
	}
	if res, err := d.Apply(linkindex.Batch{Deletes: []string{"nope"}}); err != nil || res.Deleted != 0 {
		t.Fatalf("delete nope = %+v, %v; want it absent", res, err)
	}
	m := d.Metrics()
	if m.WALRecords != 15 { // 12 batches + add + 2 removes... the absent remove still logs
		t.Fatalf("WALRecords = %d, want 15", m.WALRecords)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(linkindex.Batch{Deletes: []string{"p0"}}); err == nil {
		t.Fatal("Apply after Close succeeded")
	}

	r, stats, err := linkindex.Recover(dir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !stats.Recovered || stats.Torn || stats.SnapshotSeq != 0 || stats.RecordsReplayed != 15 {
		t.Fatalf("stats = %+v, want clean recovery of 15 records from the genesis snapshot", stats)
	}
	want := referenceIndex(batches, len(batches), 3)
	want.Apply(linkindex.Batch{Upserts: []*entity.Entity{ent("x1", "Grace Hopper", "compilers")}})
	want.Apply(linkindex.Batch{Deletes: []string{"x1"}})
	compareIndexes(t, "recovered", r.Index(), want)
}

// TestDurableCrashSimulationDifferential is the crash contract test:
// after every acknowledged batch the on-disk state is copied (as a
// kill -9 would leave it), optionally truncated mid-record, and
// recovered. Under FsyncBatch the recovery must reconstruct a state
// differentially equal to a reference index fed exactly the batches the
// log covers — all acknowledged ones for a clean copy, all but the
// final torn record for a truncated one.
func TestDurableCrashSimulationDifferential(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), shards, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(7))
	batches := testBatches(30, 2)
	for i, b := range batches {
		if _, err := d.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			// Mix snapshots into the stream so recovery exercises
			// snapshot + tail replay, not just full-log replay.
			if err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 != 0 {
			continue
		}
		acked := i + 1

		// Crash 1: clean copy — every acknowledged record is on disk
		// (FsyncBatch flushes before Apply returns), so recovery must
		// reproduce the acknowledged state exactly.
		crash := copyDir(t, dir)
		r, stats, err := linkindex.Recover(crash, linkindex.DurableOptions{})
		if err != nil {
			t.Fatalf("recover after batch %d: %v", i, err)
		}
		covered := int(stats.SnapshotSeq) + stats.RecordsReplayed
		if covered != acked {
			t.Fatalf("after batch %d: recovery covered %d records, want all %d acknowledged", i, covered, acked)
		}
		compareIndexes(t, fmt.Sprintf("clean crash after batch %d", i), r.Index(), referenceIndex(batches, covered, shards))
		r.Close()

		// Crash 2: the same copy with the newest segment truncated a few
		// bytes short — a torn final write. Recovery loses at most that
		// final record and must equal the reference over what remains.
		crash = copyDir(t, dir)
		segs, err := filepath.Glob(filepath.Join(crash, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no wal segments in crash copy: %v", err)
		}
		sort.Strings(segs)
		newest := segs[len(segs)-1]
		info, err := os.Stat(newest)
		if err != nil {
			t.Fatal(err)
		}
		cut := int64(1 + rng.Intn(8))
		if cut > info.Size() {
			cut = info.Size()
		}
		if err := os.Truncate(newest, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		r, stats, err = linkindex.Recover(crash, linkindex.DurableOptions{})
		if err != nil {
			t.Fatalf("recover truncated copy after batch %d: %v", i, err)
		}
		if !stats.Torn {
			t.Fatalf("after batch %d: truncated copy recovered without Torn: %+v", i, stats)
		}
		covered = int(stats.SnapshotSeq) + stats.RecordsReplayed
		if covered < acked-1 || covered > acked {
			t.Fatalf("after batch %d: truncated recovery covered %d records, want %d or %d (at most the final torn record lost)",
				i, covered, acked-1, acked)
		}
		compareIndexes(t, fmt.Sprintf("torn crash after batch %d", i), r.Index(), referenceIndex(batches, covered, shards))
		r.Close()
	}
}

// TestRecoverAfterRotationNotTorn crashes right after a segment opens,
// with no append since: after Snapshot's rotation, and after the fresh
// segment Recover starts. The segment's magic reaches the OS when it
// opens, so recovery finds an empty segment, not a zero-byte file it
// would report as a torn tail.
func TestRecoverAfterRotationNotTorn(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), shards, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches(6, 3)
	for _, b := range batches[:4] {
		if _, err := d.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	r, stats, err := linkindex.Recover(copyDir(t, dir), linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Torn || stats.SnapshotSeq != 4 || stats.RecordsReplayed != 0 {
		t.Fatalf("crash after rotation: stats = %+v, want snapshot seq 4, 0 records replayed, not torn", stats)
	}
	compareIndexes(t, "crash after rotation", r.Index(), referenceIndex(batches, 4, shards))
	r.Close()

	for _, b := range batches[4:] {
		if _, err := d.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, _, err = linkindex.Recover(dir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, stats, err = linkindex.Recover(copyDir(t, dir), linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if stats.Torn || stats.SnapshotSeq != 4 || stats.RecordsReplayed != 2 {
		t.Fatalf("crash after recovery: stats = %+v, want snapshot seq 4, 2 records replayed, not torn", stats)
	}
	compareIndexes(t, "crash after recovery", r.Index(), referenceIndex(batches, 6, shards))
}

func TestDurableAutoSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), 2, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncIntervalPolicy, SnapshotEvery: 5, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches(24, 3)
	for _, b := range batches[:23] {
		if _, err := d.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	// Auto-snapshots run in the background; wait for one covering at
	// least record 15 (with SnapshotEvery 5 several triggers have fired
	// by now; the async snapshotter coalesces them).
	deadline := time.Now().Add(10 * time.Second)
	for d.Metrics().SnapshotSeq < 15 {
		if time.Now().After(deadline) {
			t.Fatalf("no auto-snapshot past record 15; metrics = %+v", d.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Two manual snapshots at distinct sequence numbers: compaction
	// keeps exactly those two and deletes every segment the older one
	// covers — the log shrinks to the tail past record 23.
	if err := d.Snapshot(); err != nil { // covers 23
		t.Fatal(err)
	}
	if _, err := d.Apply(cloneBatch(batches[23])); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil { // covers 24; retained: {23, 24}
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.SnapshotSeq != 24 || m.RecordsSinceSnapshot != 0 {
		t.Fatalf("metrics after manual snapshot = %+v, want snapshot at 24", m)
	}
	// With one-record segments and no compaction there would be 25
	// segment files; only record 24's segment and the active one may
	// survive.
	if m.WALSegments > 2 {
		t.Fatalf("WALSegments = %d after compaction, want ≤ 2", m.WALSegments)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots on disk, want exactly the 2 newest: %v", len(snaps), snaps)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, stats, err := linkindex.Recover(dir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if stats.SnapshotSeq != 24 || stats.RecordsReplayed != 0 {
		t.Fatalf("recovery stats = %+v, want snapshot 24 with an empty tail", stats)
	}
	compareIndexes(t, "auto-snapshot recovery", r.Index(), referenceIndex(batches, 24, 2))
}

func TestOpenDurableBuildsOnlyWhenFresh(t *testing.T) {
	dir := t.TempDir()
	built := 0
	build := func() (*linkindex.ShardedIndex, error) {
		built++
		return linkindex.NewSharded(testRule(), 2, durableOpts()), nil
	}
	d, stats, err := linkindex.OpenDurable(dir, build, linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if built != 1 || stats.Recovered {
		t.Fatalf("fresh open: built=%d recovered=%v, want build once, no recovery", built, stats.Recovered)
	}
	if _, err := d.Apply(linkindex.Batch{Upserts: []*entity.Entity{ent("a", "Grace Hopper", "compilers")}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, stats, err := linkindex.OpenDurable(dir, build, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if built != 1 {
		t.Fatalf("recovery path called build (built=%d)", built)
	}
	if !stats.Recovered || stats.RecordsReplayed != 1 {
		t.Fatalf("stats = %+v, want recovery replaying 1 record", stats)
	}
	if d2.Len() != 1 || d2.Index().Get("a") == nil {
		t.Fatalf("recovered corpus lost the entity: len=%d", d2.Len())
	}

	// NewDurable must refuse a directory that already holds state.
	if _, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), 1, durableOpts()), linkindex.DurableOptions{}); err == nil {
		t.Fatal("NewDurable over existing durable state succeeded")
	}
}

// TestRecoverFallsBackToOlderSnapshot corrupts the newest snapshot:
// recovery must fall back to the previous one and replay the longer log
// tail — which compaction must therefore have retained.
func TestRecoverFallsBackToOlderSnapshot(t *testing.T) {
	dir, batches, snaps := corruptNewestSnapshot(t)

	r, stats, err := linkindex.Recover(dir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if stats.SnapshotSeq != 10 || stats.RecordsReplayed != 8 {
		t.Fatalf("stats = %+v, want fallback to snapshot 10 replaying 8 records", stats)
	}
	compareIndexes(t, "fallback recovery", r.Index(), referenceIndex(batches, 18, 2))

	// The unreadable snapshot must be quarantined out of the
	// snapshot-*.snap namespace: left in place it would occupy a
	// retention slot at the next compaction, eventually evicting the
	// last readable snapshot while anchoring segment deletion at a
	// sequence number nothing can restore.
	if _, err := os.Stat(snaps[1]); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot %s still occupies the snapshot namespace (stat err %v)", snaps[1], err)
	}
	if _, err := os.Stat(snaps[1] + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not preserved for forensics: %v", err)
	}
	// A post-fallback snapshot + compaction must retain the good base
	// and keep the directory recoverable.
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, stats2, err := linkindex.Recover(dir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if stats2.Torn || stats2.RecordsReplayed != 0 {
		t.Fatalf("post-fallback re-recovery stats = %+v, want clean empty tail", stats2)
	}
	compareIndexes(t, "post-fallback re-recovery", r2.Index(), referenceIndex(batches, 18, 2))
}

// corruptNewestSnapshot builds twoSnapshotDir and overwrites the newest
// snapshot with garbage.
func corruptNewestSnapshot(t *testing.T) (dir string, batches []linkindex.Batch, snaps []string) {
	t.Helper()
	dir, batches, snaps = twoSnapshotDir(t)
	if err := os.WriteFile(snaps[1], []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, batches, snaps
}

// twoSnapshotDir builds a closed durable directory of a 2-shard index
// over 18 batches with snapshots covering 10 and 15 and a log tail to
// 18. It returns the directory, the batches and the two snapshot paths,
// oldest first.
func twoSnapshotDir(t *testing.T) (dir string, batches []linkindex.Batch, snaps []string) {
	t.Helper()
	dir = t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), 2, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncIntervalPolicy, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	batches = testBatches(18, 4)
	apply := func(from, to int) {
		for _, b := range batches[from:to] {
			if _, err := d.Apply(cloneBatch(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(0, 10)
	if err := d.Snapshot(); err != nil { // covers 10
		t.Fatal(err)
	}
	apply(10, 15)
	if err := d.Snapshot(); err != nil { // covers 15; retained: {10, 15}
		t.Fatal(err)
	}
	apply(15, 18)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err = filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots = %v, %v; want 2", snaps, err)
	}
	sort.Strings(snaps)
	return dir, batches, snaps
}

// TestDurableNamesMatchExactly pins that only exact snapshot and segment
// names are durable state. A quarantined snapshot must not take a
// retention slot: after fallback recovery and one more snapshot, the
// readable fallback survives compaction next to the new snapshot. And a
// directory holding only leftovers of an interrupted snapshot write or
// other near-miss names holds no durable state.
func TestDurableNamesMatchExactly(t *testing.T) {
	t.Run("quarantine then compaction", func(t *testing.T) {
		dir, _, snaps := corruptNewestSnapshot(t)
		r, _, err := linkindex.Recover(dir, linkindex.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(snaps[0]); err != nil {
			t.Fatalf("fallback snapshot %s compacted away next to the quarantined one: %v", snaps[0], err)
		}
		if _, err := os.Stat(snaps[1] + ".corrupt"); err != nil {
			t.Fatalf("quarantined snapshot removed by compaction: %v", err)
		}
	})
	t.Run("leftovers only", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{
			"snapshot-0000000000000007.snap.tmp-123",
			"snapshot-0000000000000003.snap.corrupt",
			"wal-0000000000000001.seg.old",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if linkindex.HasDurableState(dir) {
			t.Fatal("leftover files counted as durable state")
		}
	})
}

// TestDurableConcurrentMutations races writers (Apply/Add/Remove) with
// queries and background auto-snapshots, then recovers the directory
// and compares against the live index: whatever interleaving the locks
// produced, the log order must equal the apply order, so recovery must
// land on exactly the final live state.
func TestDurableConcurrentMutations(t *testing.T) {
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), 3, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncIntervalPolicy, SnapshotEvery: 10, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, b := range testBatches(40, int64(10+w)) {
				if _, err := d.Apply(cloneBatch(b)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%5 == 0 {
					if _, err := d.Apply(linkindex.Batch{Deletes: []string{fmt.Sprintf("p%d", i%20)}}); err != nil {
						t.Errorf("writer %d remove: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				d.Index().Query(ent("probe", "Grace Hopper", "compilers"), 5)
				d.Len()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, _, err := linkindex.Recover(dir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	compareIndexes(t, "concurrent recovery", r.Index(), d.Index())
}
