package linkindex_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"genlink/internal/datagen"
	"genlink/internal/linkindex"
)

// leaderServer mounts the replication source endpoints of d the way
// genlinkd does.
func leaderServer(t *testing.T, d *linkindex.DurableIndex) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /wal/stream", d.ServeWALStream)
	mux.HandleFunc("GET /wal/snapshot", d.ServeWALSnapshot)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// waitApplied blocks until the follower has applied at least seq.
func waitApplied(t *testing.T, fol *linkindex.Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if fol.Status().AppliedSeq >= seq {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck: status %+v, want applied seq ≥ %d", fol.Status(), seq)
}

func followerOpts(leader, dir string) linkindex.FollowerOptions {
	return linkindex.FollowerOptions{
		Leader:         leader,
		Dir:            dir,
		Durable:        linkindex.DurableOptions{SnapshotEvery: -1},
		ReconnectDelay: 20 * time.Millisecond,
	}
}

// TestFollowerDifferential pins the replica contract across shard
// counts: at equal applied seq, follower state ≡ leader state — same
// corpus, same QueryID answers — through live tailing, a follower
// restart (crash-safe re-tail from the local log) and a torn-tail
// handoff (the follower's own crashed log tail is discarded and
// re-shipped from the leader).
func TestFollowerDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		t.Run(map[int]string{1: "shards=1", 2: "shards=2", 5: "shards=5"}[shards], func(t *testing.T) {
			batches := testBatches(30, int64(100+shards))
			leader, err := linkindex.NewDurable(t.TempDir(),
				linkindex.NewSharded(testRule(), shards, durableOpts()),
				linkindex.DurableOptions{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			ts := leaderServer(t, leader)

			// Phase 1: history before the follower exists — shipped through
			// the bootstrap snapshot (genesis) plus a stream catch-up.
			for _, b := range batches[:10] {
				if _, err := leader.Apply(cloneBatch(b)); err != nil {
					t.Fatal(err)
				}
			}
			folDir := t.TempDir()
			fol, err := linkindex.OpenFollower(followerOpts(ts.URL, folDir))
			if err != nil {
				t.Fatal(err)
			}
			// Phase 2: live tailing.
			for _, b := range batches[10:20] {
				if _, err := leader.Apply(cloneBatch(b)); err != nil {
					t.Fatal(err)
				}
			}
			waitApplied(t, fol, leader.AppliedSeq())
			compareIndexes(t, "live tail", fol.Index(), leader.Index())

			// Phase 3: follower restart — recover from the local log, then
			// re-tail what the leader wrote in the meantime.
			fol.Stop()
			if err := fol.Durable().Close(); err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[20:25] {
				if _, err := leader.Apply(cloneBatch(b)); err != nil {
					t.Fatal(err)
				}
			}
			fol, err = linkindex.OpenFollower(followerOpts(ts.URL, folDir))
			if err != nil {
				t.Fatal(err)
			}
			waitApplied(t, fol, leader.AppliedSeq())
			compareIndexes(t, "restarted follower", fol.Index(), leader.Index())

			// Phase 4: torn-tail handoff — crash the follower mid-record by
			// truncating its newest segment, leaving a torn tail its own
			// recovery must discard before re-tailing the lost suffix.
			fol.Stop()
			if err := fol.Durable().Close(); err != nil {
				t.Fatal(err)
			}
			tearNewestSegment(t, folDir)
			for _, b := range batches[25:] {
				if _, err := leader.Apply(cloneBatch(b)); err != nil {
					t.Fatal(err)
				}
			}
			fol, err = linkindex.OpenFollower(followerOpts(ts.URL, folDir))
			if err != nil {
				t.Fatal(err)
			}
			defer fol.Stop()
			waitApplied(t, fol, leader.AppliedSeq())
			compareIndexes(t, "torn-tail handoff", fol.Index(), leader.Index())
			if got, want := fol.Status().AppliedSeq, leader.AppliedSeq(); got != want {
				t.Fatalf("applied seq %d, leader seq %d", got, want)
			}
		})
	}
}

// TestFollowerKeepsLeaderShardCount pins follower ≡ leader for a
// corpus whose answers depend on the shard count: a follower
// bootstrapped at GOMAXPROCS 6, where a fresh index would take three
// shards, from a one-shard leader rebuilds one shard, and answers every
// stored ID's QueryID as the leader does, after the bootstrap, after a
// live tail and after a restart from its own directory.
func TestFollowerKeepsLeaderShardCount(t *testing.T) {
	leader, err := linkindex.NewDurable(t.TempDir(), shardSensitive(t), linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ts := leaderServer(t, leader)
	setProcs(t, 6)
	folDir := t.TempDir()
	check := func(label string) *linkindex.Follower {
		t.Helper()
		fol, err := linkindex.OpenFollower(followerOpts(ts.URL, folDir))
		if err != nil {
			t.Fatal(err)
		}
		waitApplied(t, fol, leader.AppliedSeq())
		if got := fol.Index().Shards(); got != 1 {
			t.Fatalf("%s: follower has %d shards, want the leader's 1", label, got)
		}
		compareIndexes(t, label, fol.Index(), leader.Index())
		return fol
	}
	fol := check("bootstrap")
	extra := datagen.ByName("Cora")(1).B.Entities[400:420]
	if _, err := leader.Apply(linkindex.Batch{Upserts: extra, Deletes: []string{extra[0].ID}}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fol, leader.AppliedSeq())
	compareIndexes(t, "live tail", fol.Index(), leader.Index())
	fol.Stop()
	if err := fol.Durable().Close(); err != nil {
		t.Fatal(err)
	}
	check("restart").Stop()
}

// TestFollowerRefusesRebootstrapIntoOtherShardCount pins the
// re-bootstrap side of the same contract: a follower diff-applies a
// leader snapshot into its live index, so when the leader's corpus was
// re-created with another shard count, the follower refuses the
// snapshot, names the counts in its status and keeps serving its own
// state rather than the leader's corpus under its old count.
func TestFollowerRefusesRebootstrapIntoOtherShardCount(t *testing.T) {
	batches := testBatches(30, 9)
	old, err := linkindex.NewDurable(t.TempDir(), linkindex.NewSharded(testRule(), 1, durableOpts()), linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:5] {
		if _, err := old.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	folDir := t.TempDir()
	fol, err := linkindex.OpenFollower(followerOpts(leaderServer(t, old).URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fol, old.AppliedSeq())
	fol.Stop()
	if err := fol.Durable().Close(); err != nil {
		t.Fatal(err)
	}
	old.Close()

	// The corpus re-created in three shards, its early log compacted
	// away, so the follower's next record is gone and it re-bootstraps.
	leader, err := linkindex.NewDurable(t.TempDir(), linkindex.NewSharded(testRule(), 3, durableOpts()), linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i, b := range batches {
		if _, err := leader.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
		if i == 19 || i == 29 {
			if err := leader.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fol, err = linkindex.OpenFollower(followerOpts(leaderServer(t, leader).URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	deadline := time.Now().Add(20 * time.Second)
	for !strings.Contains(fol.Status().LastError, "leader snapshot has 3 shards, this follower 1") {
		if time.Now().After(deadline) {
			t.Fatalf("follower status %+v, want the refused re-bootstrap", fol.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fol.Index().Shards() != 1 || fol.Status().AppliedSeq != 5 {
		t.Fatalf("follower moved: %d shards at applied seq %d, want 1 at 5", fol.Index().Shards(), fol.Status().AppliedSeq)
	}
	compareIndexes(t, "refused re-bootstrap", fol.Index(), referenceIndex(batches, 5, 1))
}

// tearNewestSegment chops bytes off the newest WAL segment holding data,
// simulating a crash mid-append.
func tearNewestSegment(t *testing.T, dir string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".seg" {
			segs = append(segs, filepath.Join(dir, de.Name()))
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments to tear")
	}
	sort.Strings(segs)
	for i := len(segs) - 1; i >= 0; i-- {
		st, err := os.Stat(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > 8+3 { // magic plus something to tear
			if err := os.Truncate(segs[i], st.Size()-3); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no segment large enough to tear")
}

// TestFollowerRebootstrapAfterCompaction pins the compaction-vs-tailing
// interaction: a follower that falls behind the leader's log retention
// gets 410 from the stream, re-bootstraps from the leader's newest
// snapshot (diff-applying it so the served index pointer survives), and
// converges to equal state.
func TestFollowerRebootstrapAfterCompaction(t *testing.T) {
	batches := testBatches(40, 7)
	leader, err := linkindex.NewDurable(t.TempDir(),
		linkindex.NewSharded(testRule(), 3, durableOpts()),
		linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ts := leaderServer(t, leader)

	for _, b := range batches[:10] {
		if _, err := leader.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	folDir := t.TempDir()
	fol, err := linkindex.OpenFollower(followerOpts(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fol, leader.AppliedSeq())
	fol.Stop()
	if err := fol.Durable().Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down: write, snapshot twice so compaction
	// evicts the genesis snapshot and deletes the segments holding the
	// follower's next records.
	for _, b := range batches[10:30] {
		if _, err := leader.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[30:] {
		if _, err := leader.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}

	fol, err = linkindex.OpenFollower(followerOpts(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Stop()
	waitApplied(t, fol, leader.AppliedSeq())
	// The snapshot's seq becomes the applied seq inside resetToSnapshot,
	// an instant before rebootstrap counts the bootstrap: wait for the
	// count rather than assuming the two are observed together.
	for deadline := time.Now().Add(5 * time.Second); fol.Status().Bootstraps < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower converged without a re-bootstrap: %+v (compaction should have forced one)", fol.Status())
		}
	}
	compareIndexes(t, "post-rebootstrap", fol.Index(), leader.Index())

	// The re-bootstrapped follower is itself crash-safe: recover its
	// directory cold and compare again.
	fol.Stop()
	if err := fol.Durable().Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := linkindex.Recover(folDir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	compareIndexes(t, "recovered after rebootstrap", recovered.Index(), leader.Index())
}

// TestPromoteThenWriteDiverges pins promote semantics: after Promote the
// old follower accepts writes into its own log (continuing the leader's
// seq numbering), no longer tails the old leader, and the two nodes
// diverge independently — with the promoted node's writes crash-safe.
func TestPromoteThenWriteDiverges(t *testing.T) {
	batches := testBatches(20, 11)
	leader, err := linkindex.NewDurable(t.TempDir(),
		linkindex.NewSharded(testRule(), 2, durableOpts()),
		linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ts := leaderServer(t, leader)
	for _, b := range batches[:10] {
		if _, err := leader.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	folDir := t.TempDir()
	fol, err := linkindex.OpenFollower(followerOpts(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fol, leader.AppliedSeq())
	promoteSeq := fol.Status().AppliedSeq

	if err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	if !fol.Promoted() || fol.Status().Role != "leader" {
		t.Fatalf("promoted follower reports %+v", fol.Status())
	}

	// Writes on the promoted node succeed and continue the seq numbering;
	// writes on the old leader no longer reach it.
	promoted := fol.Durable()
	if _, err := promoted.Apply(cloneBatch(batches[10])); err != nil {
		t.Fatalf("write on promoted node: %v", err)
	}
	if got := promoted.AppliedSeq(); got != promoteSeq+1 {
		t.Fatalf("promoted node's first own record got seq %d, want %d (seamless continuation)", got, promoteSeq+1)
	}
	for _, b := range batches[11:15] {
		if _, err := promoted.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches[15:] {
		if _, err := leader.Apply(cloneBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond) // would-be tail window: nothing must arrive
	if got := promoted.AppliedSeq(); got != promoteSeq+5 {
		t.Fatalf("promoted node at seq %d, want %d — did it keep tailing after promote?", got, promoteSeq+5)
	}

	// Divergence is real and the promoted node's state is exactly its own
	// history: bootstrap prefix + its own writes.
	want := referenceIndex(batches[:10], 10, 2)
	for _, b := range batches[10:15] {
		want.Apply(cloneBatch(b))
	}
	compareIndexes(t, "promoted state", promoted.Index(), want)

	// Crash-safety survives the role flip: recover the promoted node's
	// directory cold.
	if err := promoted.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := linkindex.Recover(folDir, linkindex.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	compareIndexes(t, "promoted state after crash recovery", recovered.Index(), want)
}
