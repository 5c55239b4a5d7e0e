package linkindex

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// checkCoverage asserts the derived-count contract on one observation:
// RecordsSinceSnapshot is exactly WALRecords − SnapshotSeq — never
// negative, never reset to 0 while uncovered records exist.
func checkCoverage(t *testing.T, label string, d *DurableIndex) DurableMetrics {
	t.Helper()
	m := d.Metrics()
	if m.SnapshotSeq > m.WALRecords || m.RecordsSinceSnapshot != int64(m.WALRecords-m.SnapshotSeq) {
		t.Errorf("%s: RecordsSinceSnapshot = %d with WALRecords %d and SnapshotSeq %d, want their difference",
			label, m.RecordsSinceSnapshot, m.WALRecords, m.SnapshotSeq)
	}
	return m
}

// TestDurableAutoSnapshotCoversRecordsLoggedDuringWrite is the
// regression test for the lost-trigger liveness bug: records logged
// while a snapshot file is being written must still count as uncovered
// once it lands, so a burst that quiesces mid-snapshot gets its covering
// snapshot without any further write. The snapshot write is held open
// with snapshotWriteHook to make the window deterministic.
func TestDurableAutoSnapshotCoversRecordsLoggedDuringWrite(t *testing.T) {
	opts := DurableOptions{Fsync: FsyncIntervalPolicy, SnapshotEvery: 5}
	dir := t.TempDir()
	d, err := NewDurable(dir, NewSharded(wireTestRule(), 2, matching.Options{Blocker: matching.MultiPass()}), opts)
	if err != nil {
		t.Fatal(err)
	}
	logRecords := func(d *DurableIndex, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := d.Apply(Batch{Upserts: []*entity.Entity{wireEnt(fmt.Sprintf("e%d", i), fmt.Sprintf("name %d", i))}}); err != nil {
				t.Fatal(err)
			}
			checkCoverage(t, fmt.Sprintf("after record %d", i+1), d)
		}
	}

	// Hold the first auto-snapshot's file write open (later ones pass).
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	snapshotWriteHook = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}
	t.Cleanup(func() { snapshotWriteHook = nil })

	logRecords(d, 0, 5) // record 5 crosses the threshold
	select {
	case <-entered: // the snapshot has captured seq 5 and is blocked writing
	case <-time.After(10 * time.Second):
		t.Fatalf("no auto-snapshot started after %d records: %+v", opts.SnapshotEvery, d.Metrics())
	}
	logRecords(d, 5, 12)
	if m := checkCoverage(t, "snapshot blocked", d); m.SnapshotSeq != 0 || m.WALRecords != 12 {
		t.Fatalf("while the snapshot write is blocked: %+v, want 12 records over the genesis snapshot", m)
	}
	close(release)

	// No further write: the 7 records logged during the blocked write are
	// past the threshold on their own and must get their own snapshot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := checkCoverage(t, "after release", d)
		if m.SnapshotSeq == m.WALRecords {
			break
		}
		if t.Failed() || time.Now().After(deadline) {
			t.Fatalf("records logged during the snapshot write were never covered: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Recover derives the same count from the replayed tail.
	logRecords(d, 12, 15) // below the threshold: stays uncovered
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, stats, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m := checkCoverage(t, "recovered", r); m.RecordsSinceSnapshot != 3 || stats.RecordsReplayed != 3 {
		t.Fatalf("recovered metrics %+v (stats %+v), want the 3-record tail uncovered", m, stats)
	}

	// A follower re-bootstrap moves the log position and the snapshot
	// position together; concurrent observers must never see them cross.
	var snap bytes.Buffer
	if err := r.Index().WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	stop, observed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(observed)
		for {
			select {
			case <-stop:
				return
			default:
				checkCoverage(t, "during re-bootstrap", r)
			}
		}
	}()
	if err := r.resetToSnapshot(snap.Bytes(), 40); err != nil {
		t.Fatal(err)
	}
	for i, payload := range wireRecords(t, 17)[15:] { // e15, e16: shipped, not yet local
		if err := r.applyReplicated(uint64(41+i), payload); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-observed
	if m := checkCoverage(t, "re-bootstrapped", r); m.SnapshotSeq != 40 || m.RecordsSinceSnapshot != 2 {
		t.Fatalf("after re-bootstrap at 40 plus 2 shipped records: %+v", m)
	}
}
