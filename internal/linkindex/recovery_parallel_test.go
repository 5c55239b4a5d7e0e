package linkindex_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"genlink/internal/linkindex"
)

// TestParallelRecoveryEquivalence is the soundness pin for the
// shard-parallel replay pipeline: over shard counts {1, 2, 5}, clean and
// torn log tails, and random batch interleavings (upserts and deletes
// racing over a shared ID pool, with a mid-stream snapshot so replay
// starts from a non-zero base), recovery must land on exactly the state
// of the sequential reference — referenceIndex, plain in-order Apply of
// the covered batches on a fresh index: identical corpora, identical
// top-k answers.
func TestParallelRecoveryEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		for _, torn := range []bool{false, true} {
			for seedIdx, seed := range []int64{11, 12} {
				name := fmt.Sprintf("shards=%d/torn=%v/interleaving=%d", shards, torn, seedIdx)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed * 97))
					dir := t.TempDir()
					d, err := linkindex.NewDurable(dir, linkindex.NewSharded(testRule(), shards, durableOpts()),
						linkindex.DurableOptions{Fsync: linkindex.FsyncBatch, SnapshotEvery: -1, SegmentBytes: 1 << 10})
					if err != nil {
						t.Fatal(err)
					}
					batches := testBatches(40, seed)
					for i, b := range batches {
						if _, err := d.Apply(cloneBatch(b)); err != nil {
							t.Fatal(err)
						}
						if i == 15 {
							if err := d.Snapshot(); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					if torn {
						segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
						if err != nil || len(segs) == 0 {
							t.Fatalf("no wal segments: %v", err)
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
					}

					rec, stats, err := linkindex.Recover(dir, linkindex.DurableOptions{})
					if err != nil {
						t.Fatalf("recover: %v", err)
					}
					defer rec.Close()
					if torn != stats.Torn {
						t.Fatalf("torn=%v but recovery reported Torn=%v", torn, stats.Torn)
					}
					// A torn tail loses at most the final record; a clean
					// log loses nothing.
					covered := int(stats.SnapshotSeq) + stats.RecordsReplayed
					if lost := len(batches) - covered; lost < 0 || lost > 1 || (lost == 1 && !torn) {
						t.Fatalf("recovery covered %d of %d records (torn=%v): %+v", covered, len(batches), torn, stats)
					}
					compareIndexes(t, name+" vs ground truth", rec.Index(), referenceIndex(batches, covered, shards))
				})
			}
		}
	}
}
