package linkindex

import (
	"errors"
	"strings"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// TestCommitRefusals pins the refusals of the durable commit step. After
// Close every write path — logged, single-op, bulk, shipped and backfill
// — answers errWALClosed and changes neither the index, the log nor the
// backfill session's pending count, and CommitBackfill cannot close the
// session it can no longer snapshot. On an open index a shipped record
// that is not the log's next sequence number is refused before it is
// appended or applied.
func TestCommitRefusals(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		d, err := NewDurable(t.TempDir(), NewSharded(wireTestRule(), 2, matching.Options{Blocker: matching.MultiPass()}),
			DurableOptions{Fsync: FsyncIntervalPolicy, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Add(wireEnt("e0", "name 0")); err != nil {
			t.Fatal(err)
		}
		if _, pending, err := d.Backfill(Batch{Upserts: []*entity.Entity{wireEnt("b0", "name b0")}}); err != nil || pending != 1 {
			t.Fatalf("Backfill before Close = pending %d, %v; want 1", pending, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		lenBefore, seqBefore := d.Len(), d.AppliedSeq()
		payload := wireRecords(t, 3)[2]
		writes := []struct {
			name  string
			write func() error
		}{
			{"Apply", func() error {
				_, err := d.Apply(Batch{Upserts: []*entity.Entity{wireEnt("x", "x")}})
				return err
			}},
			{"Add", func() error { return d.Add(wireEnt("x", "x")) }},
			{"Remove", func() error {
				_, err := d.Remove("e0")
				return err
			}},
			{"BulkLoad", func() error {
				_, err := d.BulkLoad([]*entity.Entity{wireEnt("x", "x"), wireEnt("y", "y")})
				return err
			}},
			{"applyReplicated", func() error { return d.applyReplicated(seqBefore+1, payload) }},
			{"Backfill", func() error {
				_, pending, err := d.Backfill(Batch{Upserts: []*entity.Entity{wireEnt("x", "x")}, Deletes: []string{"e0"}})
				if pending != 1 {
					t.Errorf("refused Backfill moved the pending count 1 → %d", pending)
				}
				return err
			}},
		}
		for _, w := range writes {
			if err := w.write(); !errors.Is(err, errWALClosed) {
				t.Errorf("%s after Close: error %v, want errWALClosed", w.name, err)
			}
			if d.Len() != lenBefore || d.AppliedSeq() != seqBefore || d.Index().Get("x") != nil || d.Index().Get("e0") == nil {
				t.Fatalf("%s after Close changed state: Len %d → %d, AppliedSeq %d → %d",
					w.name, lenBefore, d.Len(), seqBefore, d.AppliedSeq())
			}
		}
		if committed, err := d.CommitBackfill(); !errors.Is(err, errWALClosed) || committed != 0 || !d.Backfilling() {
			t.Errorf("CommitBackfill after Close = %d, %v with Backfilling %v; want errWALClosed and the session still open",
				committed, err, d.Backfilling())
		}
	})

	t.Run("out of order", func(t *testing.T) {
		d, err := NewDurable(t.TempDir(), NewSharded(wireTestRule(), 2, matching.Options{Blocker: matching.MultiPass()}),
			DurableOptions{Fsync: FsyncIntervalPolicy, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		records := wireRecords(t, 4)
		for i, payload := range records[:2] {
			if err := d.applyReplicated(uint64(i+1), payload); err != nil {
				t.Fatal(err)
			}
		}
		// records[i] upserts e<i>; the log is at seq 2.
		for _, seq := range []uint64{1, 2, 4, 100} {
			err := d.applyReplicated(seq, records[3])
			if err == nil || !strings.Contains(err.Error(), "out-of-order record") {
				t.Fatalf("applyReplicated(%d) at seq 2: error %v, want out-of-order", seq, err)
			}
			if d.AppliedSeq() != 2 || d.Len() != 2 || d.Index().Get("e3") != nil {
				t.Fatalf("refused record %d changed state: AppliedSeq %d, Len %d", seq, d.AppliedSeq(), d.Len())
			}
		}
		if err := d.applyReplicated(3, records[2]); err != nil {
			t.Fatalf("the next record after refusals: %v", err)
		}
		if d.AppliedSeq() != 3 || d.Index().Get("e2") == nil {
			t.Fatalf("record 3 not logged and applied: AppliedSeq %d", d.AppliedSeq())
		}
	})
}
