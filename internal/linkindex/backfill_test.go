package linkindex_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
)

// backfillEntities builds a corpus of fresh IDs disjoint from the
// testBatches p* pool.
func backfillEntities(n int) []*entity.Entity {
	names := []string{"Grace Hopper", "Alan Turing", "Ada Lovelace"}
	titles := []string{"compilers", "computability", "lisp"}
	out := make([]*entity.Entity, n)
	for i := range out {
		out[i] = ent(fmt.Sprintf("bf%d", i), names[i%len(names)], titles[i%len(titles)])
	}
	return out
}

// TestBackfillCrashContract is the snapshot-barrier differential: a
// crash before CommitBackfill recovers the pre-backfill state (plus
// acknowledged logged writes — logged Apply keeps its durability
// contract during the session), and a crash after it recovers every
// backfilled entity. Snapshots are suppressed while the session is open,
// so no intermediate durable state can expose a partial backfill.
func TestBackfillCrashContract(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), shards, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	logged := testBatches(10, 21)
	for _, b := range logged {
		if _, err := d.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if d.Backfilling() {
		t.Fatal("Backfilling() = true before the first Backfill")
	}

	walBefore := d.Metrics().WALRecords
	entities := backfillEntities(50)
	res, pending, err := d.Backfill(linkindex.Batch{Upserts: entities[:30]})
	if err != nil || res.Upserted != 30 || pending != 30 {
		t.Fatalf("first Backfill = %d upserted, %d pending, %v; want 30, 30", res.Upserted, pending, err)
	}
	if !d.Backfilling() {
		t.Fatal("Backfilling() = false with an open session")
	}
	if err := d.Snapshot(); !errors.Is(err, linkindex.ErrBackfillActive) {
		t.Fatalf("Snapshot during session error = %v, want ErrBackfillActive", err)
	}
	if _, pending, err = d.Backfill(linkindex.Batch{Upserts: entities[30:]}); err != nil || pending != 50 {
		t.Fatalf("second Backfill = %d pending, %v; want 50 across batches", pending, err)
	}
	if got := d.Metrics().WALRecords; got != walBefore {
		t.Fatalf("backfill wrote %d WAL records, want 0", got-walBefore)
	}
	if d.Index().Get("bf0") == nil {
		t.Fatal("backfilled entity not visible in memory")
	}

	// A logged write during the session keeps its own durability.
	if err := d.Add(ent("live1", "Grace Hopper", "compilers")); err != nil {
		t.Fatal(err)
	}

	// Crash before the barrier: recovery must see the logged state only.
	crash := copyDir(t, dir)
	r, _, err := linkindex.Recover(crash, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Index().Get("bf0") != nil || r.Index().Get("bf49") != nil {
		t.Fatal("pre-barrier crash recovered backfilled entities")
	}
	if r.Index().Get("live1") == nil {
		t.Fatal("pre-barrier crash lost an acknowledged logged write")
	}
	want := referenceIndex(logged, len(logged), shards)
	want.Add(ent("live1", "Grace Hopper", "compilers"))
	compareIndexes(t, "pre-barrier crash", r.Index(), want)
	r.Close()

	// CommitBackfill is the barrier: afterwards a crash recovers
	// everything, the session is closed, and snapshots work again.
	if committed, err := d.CommitBackfill(); err != nil || committed != 50 {
		t.Fatalf("CommitBackfill = %d, %v; want 50 committed", committed, err)
	}
	if d.Backfilling() {
		t.Fatal("Backfilling() = true after CommitBackfill")
	}
	// With the session closed a second commit has nothing to count: it
	// is a plain snapshot.
	if committed, err := d.CommitBackfill(); err != nil || committed != 0 {
		t.Fatalf("CommitBackfill without a session = %d, %v; want 0, nil", committed, err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot after CommitBackfill: %v", err)
	}
	crash = copyDir(t, dir)
	r2, stats, err := linkindex.Recover(crash, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if stats.RecordsReplayed != 0 {
		t.Fatalf("post-barrier recovery replayed %d records, want 0 (snapshot covers all)", stats.RecordsReplayed)
	}
	compareIndexes(t, "post-barrier crash", r2.Index(), d.Index())
}

// TestBackfillOneShot pins a session of one batch: load, barrier,
// recover — nothing through the WAL.
func TestBackfillOneShot(t *testing.T) {
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), 2, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := d.Backfill(linkindex.Batch{Upserts: backfillEntities(30)}); err != nil || res.Upserted != 30 {
		t.Fatalf("Backfill = %+v, %v; want 30 upserted", res, err)
	}
	if n, err := d.CommitBackfill(); err != nil || n != 30 {
		t.Fatalf("CommitBackfill = %d, %v; want 30", n, err)
	}
	if d.Backfilling() {
		t.Fatal("Backfilling() = true after CommitBackfill")
	}
	if m := d.Metrics(); m.WALRecords != 0 {
		t.Fatalf("the backfill logged %d WAL records, want 0", m.WALRecords)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, stats, err := linkindex.Recover(dir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 30 || stats.RecordsReplayed != 0 {
		t.Fatalf("recovered Len=%d replayed=%d, want 30 entities from the barrier snapshot alone", r.Len(), stats.RecordsReplayed)
	}
	compareIndexes(t, "one-shot backfill", r.Index(), d.Index())
}

// TestBackfillCommitRacesWrites races Backfill writers against a
// goroutine that calls CommitBackfill in a loop. Both hold the snapshot
// lock, so every write lands wholly before or after a commit: after a
// final commit, recovery holds every entity whose Backfill returned nil,
// and the commits counted each upsert exactly once.
func TestBackfillCommitRacesWrites(t *testing.T) {
	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), 2, durableOpts()),
		linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const writers, perWriter = 3, 40
	var (
		wg       sync.WaitGroup
		acked    [writers][]string
		upserted atomic.Int64
	)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				id := fmt.Sprintf("bf-w%d-%d", w, i)
				res, _, err := d.Backfill(linkindex.Batch{Upserts: []*entity.Entity{ent(id, "Grace Hopper", "compilers")}})
				if err != nil {
					t.Errorf("writer %d: Backfill(%s): %v", w, id, err)
					return
				}
				upserted.Add(int64(res.Upserted))
				acked[w] = append(acked[w], id)
			}
		}()
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	committed := 0
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := d.CommitBackfill()
			if err != nil {
				t.Errorf("CommitBackfill: %v", err)
				return
			}
			committed += n
		}
	}()
	wg.Wait()
	close(stop)
	<-stopped
	n, err := d.CommitBackfill()
	if err != nil {
		t.Fatal(err)
	}
	committed += n
	if committed != int(upserted.Load()) {
		t.Fatalf("commits counted %d backfilled entities, writers upserted %d", committed, upserted.Load())
	}
	if d.Backfilling() {
		t.Fatal("Backfilling() = true after the final CommitBackfill")
	}

	r, stats, err := linkindex.Recover(copyDir(t, dir), linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if stats.RecordsReplayed != 0 {
		t.Fatalf("recovery replayed %d records, want 0 (nothing was logged)", stats.RecordsReplayed)
	}
	for w := range writers {
		for _, id := range acked[w] {
			if r.Index().Get(id) == nil {
				t.Fatalf("acknowledged backfill write %s lost across a racing CommitBackfill", id)
			}
		}
	}
	compareIndexes(t, "racing commits", r.Index(), d.Index())
}
