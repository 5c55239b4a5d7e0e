package linkindex

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// collectReplay replays dir from fromSeq and returns the payloads in
// order plus the scan summary.
func collectReplay(t testing.TB, dir string, fromSeq uint64) ([][]byte, walScan) {
	t.Helper()
	var payloads [][]byte
	scan, err := replayWAL(dir, fromSeq, func(seq uint64, payload []byte) error {
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replayWAL: %v", err)
	}
	return payloads, scan
}

func appendAll(t testing.TB, w *wal, payloads [][]byte) {
	t.Helper()
	for i, p := range payloads {
		seq, err := w.Append(p)
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append(%d) assigned seq %d, want %d", i, seq, i+1)
		}
	}
}

func testPayloads(n int) [][]byte {
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, `{"u":[{"id":"e%d"}]}`, i)
	}
	return payloads
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	payloads := testPayloads(10)
	appendAll(t, w, payloads)
	if got := w.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, scan := collectReplay(t, dir, 0)
	if scan.Torn {
		t.Fatalf("clean log scanned as torn: %+v", scan)
	}
	if scan.Records != 10 || scan.LastSeq != 10 {
		t.Fatalf("scan = %+v, want 10 records through seq 10", scan)
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}

	// Replaying from a mid-log sequence number skips the covered prefix.
	got, scan = collectReplay(t, dir, 7)
	if scan.Records != 3 || !bytes.Equal(got[0], payloads[7]) {
		t.Fatalf("replay from 7 = %d records starting %q, want 3 starting %q", scan.Records, got[0], payloads[7])
	}
}

func TestWALRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncBatch, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	payloads := testPayloads(5)
	appendAll(t, w, payloads)
	if segs := w.Segments(); segs < 5 {
		t.Fatalf("Segments = %d, want at least one per record", segs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, scan := collectReplay(t, dir, 0)
	if scan.Torn || scan.Records != 5 {
		t.Fatalf("multi-segment scan = %+v, want 5 clean records", scan)
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

// TestWALTornTail pins the crash contract: a log whose final record is
// truncated replays every record before it, reports Torn, and
// discardTornTail makes the next scan clean.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	payloads := testPayloads(6)
	appendAll(t, w, payloads)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("listSegments = %v, %v", segs, err)
	}
	info, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0].path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	got, scan := collectReplay(t, dir, 0)
	if !scan.Torn {
		t.Fatal("truncated log not reported as torn")
	}
	if scan.Records != 5 || len(got) != 5 {
		t.Fatalf("torn scan replayed %d records, want 5", scan.Records)
	}
	if err := scan.discardTornTail(); err != nil {
		t.Fatal(err)
	}
	_, scan = collectReplay(t, dir, 0)
	if scan.Torn || scan.Records != 5 {
		t.Fatalf("post-discard scan = %+v, want 5 clean records", scan)
	}
}

// TestWALCorruptRecordStopsReplay flips one byte in a mid-log record:
// replay must stop before it — a prefix, never a panic, never garbage.
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	payloads := testPayloads(6)
	appendAll(t, w, payloads)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte roughly in the middle of the file (inside record 3-ish).
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, scan := collectReplay(t, dir, 0)
	if !scan.Torn {
		t.Fatal("corrupt record not reported as torn")
	}
	if scan.Records >= 6 {
		t.Fatalf("replayed %d records through a corrupt byte", scan.Records)
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("replayed record %d = %q, not a prefix of the original log", i, got[i])
		}
	}
}

// TestWALSegmentGapStopsReplay removes a mid-log segment: the records
// after the gap cannot be trusted to follow log order, so replay stops.
func TestWALSegmentGapStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncBatch, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, testPayloads(5))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 4 {
		t.Fatalf("want ≥4 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[2].path); err != nil {
		t.Fatal(err)
	}
	_, scan := collectReplay(t, dir, 0)
	if !scan.Torn {
		t.Fatal("segment gap not reported as torn")
	}
	if scan.Records != 2 {
		t.Fatalf("replayed %d records across a segment gap, want the 2 before it", scan.Records)
	}
	if err := scan.discardTornTail(); err != nil {
		t.Fatal(err)
	}
	_, scan = collectReplay(t, dir, 0)
	if scan.Torn || scan.Records != 2 {
		t.Fatalf("post-discard scan = %+v, want 2 clean records", scan)
	}
}

// TestWALFsyncPolicies exercises both policies end to end: every
// acknowledged record must be replayable after a clean Close.
func TestWALFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncBatch, FsyncIntervalPolicy} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(dir, 0, walOptions{Fsync: p, Interval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, testPayloads(20))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, scan := collectReplay(t, dir, 0)
			if scan.Torn || scan.Records != 20 {
				t.Fatalf("%s: scan = %+v, want 20 clean records", p, scan)
			}
		})
	}
}

func TestFsyncPolicyByName(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncBatch, FsyncIntervalPolicy} {
		got, ok := FsyncPolicyByName(p.String())
		if !ok || got != p {
			t.Fatalf("FsyncPolicyByName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	for _, name := range []string{"always", "off"} {
		if _, ok := FsyncPolicyByName(name); ok {
			t.Fatalf("FsyncPolicyByName accepted the unknown name %q", name)
		}
	}
}

// FuzzWALReplay mutates and truncates a valid log: replay must never
// panic, and — because CRC-32C catches every single-byte flip — the
// replayed records must always be a byte-exact prefix of the original
// ones. With no mutation (xor 0, no truncation) the full log replays.
func FuzzWALReplay(f *testing.F) {
	// Build the baseline log once.
	base := f.TempDir()
	w, err := openWAL(base, 0, walOptions{Fsync: FsyncIntervalPolicy})
	if err != nil {
		f.Fatal(err)
	}
	payloads := testPayloads(8)
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(base)
	if err != nil || len(segs) != 1 {
		f.Fatalf("baseline segments = %v, %v", segs, err)
	}
	valid, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	segFile := filepath.Base(segs[0].path)

	f.Add(uint32(0), byte(0), uint32(len(valid)))     // untouched
	f.Add(uint32(9), byte(0x40), uint32(len(valid)))  // flip in first header
	f.Add(uint32(40), byte(0x01), uint32(len(valid))) // flip in a payload
	f.Add(uint32(0), byte(0xff), uint32(len(valid)))  // flip in the magic
	f.Add(uint32(0), byte(0), uint32(len(valid)-2))   // torn final record
	f.Add(uint32(0), byte(0), uint32(3))              // torn magic
	f.Fuzz(func(t *testing.T, mutPos uint32, mutXor byte, truncTo uint32) {
		data := append([]byte(nil), valid...)
		if n := int(truncTo); n < len(data) {
			data = data[:n]
		}
		if len(data) > 0 {
			data[int(mutPos)%len(data)] ^= mutXor
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFile), data, 0o644); err != nil {
			t.Fatal(err)
		}

		var got [][]byte
		scan, err := replayWAL(dir, 0, func(seq uint64, payload []byte) error {
			got = append(got, append([]byte(nil), payload...))
			return nil
		})
		if err != nil {
			t.Fatalf("replayWAL errored on mutated input: %v", err)
		}
		if len(got) > len(payloads) {
			t.Fatalf("replayed %d records from a log of %d", len(got), len(payloads))
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("record %d = %q, want prefix record %q", i, got[i], payloads[i])
			}
		}
		if mutXor == 0 && int(truncTo) >= len(valid) && (scan.Torn || len(got) != len(payloads)) {
			t.Fatalf("untouched log replayed %d/%d records (torn=%v)", len(got), len(payloads), scan.Torn)
		}
		// discarding the torn tail must always leave a cleanly replayable log
		if err := scan.discardTornTail(); err != nil {
			t.Fatalf("discardTornTail: %v", err)
		}
		rescan, err := replayWAL(dir, 0, func(uint64, []byte) error { return nil })
		if err != nil || rescan.Torn {
			t.Fatalf("post-discard scan = %+v, %v; want clean", rescan, err)
		}
		if rescan.Records != len(got) {
			t.Fatalf("post-discard scan replayed %d records, want %d", rescan.Records, len(got))
		}
	})
}

// flakySyncFile is a segment file whose Sync fails while armed — the
// stub behind the sticky-fsync-error regression tests.
type flakySyncFile struct {
	*os.File
	fail *atomic.Bool
}

func (f *flakySyncFile) Sync() error {
	if f.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

func flakyWALOptions(fail *atomic.Bool, o walOptions) walOptions {
	o.OpenFile = func(path string) (walFile, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		return &flakySyncFile{File: f, fail: fail}, nil
	}
	return o
}

func TestWALFsyncFailurePoisonsLog(t *testing.T) {
	var fail atomic.Bool
	w, err := openWAL(t.TempDir(), 0, flakyWALOptions(&fail, walOptions{Fsync: FsyncBatch}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte("a")); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	fail.Store(true)
	if _, err := w.Append([]byte("b")); err == nil {
		t.Fatal("append whose fsync failed must not acknowledge the write")
	}
	// The error must be sticky: even after the disk "recovers", the
	// on-disk suffix is unknown, so the log stays poisoned.
	fail.Store(false)
	if _, err := w.Append([]byte("c")); err == nil {
		t.Fatal("append after an fsync failure must keep failing")
	}
}

// TestWALIntervalFsyncFailurePoisonsLog is the regression test for the
// background group-committer dropping fsync errors on the floor: under
// FsyncIntervalPolicy nobody reads the flusher's return value, so a
// failure there MUST poison the log and surface on the next Append —
// otherwise the log keeps acknowledging writes a dead disk will never
// hold.
func TestWALIntervalFsyncFailurePoisonsLog(t *testing.T) {
	var fail atomic.Bool
	w, err := openWAL(t.TempDir(), 0, flakyWALOptions(&fail,
		walOptions{Fsync: FsyncIntervalPolicy, Interval: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte("a")); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	fail.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := w.Append([]byte("x"))
		if err != nil {
			if !strings.Contains(err.Error(), "injected fsync failure") {
				t.Fatalf("append failed with %v, want the injected fsync failure", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background fsync failure never poisoned the log")
		}
		time.Sleep(time.Millisecond)
	}
	fail.Store(false)
	if _, err := w.Append([]byte("y")); err == nil {
		t.Fatal("poisoned log must keep failing after the disk recovers")
	}
}

func TestWALCursorStreamsAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation roughly every append, so the cursor
	// must hop segment files mid-stream. Under the group-commit policy
	// nothing is fsynced yet, but every appended record has reached the
	// OS, which is all the cursor needs.
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncIntervalPolicy, SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payloads := testPayloads(9)
	appendAll(t, w, payloads)
	if w.Segments() < 3 {
		t.Fatalf("want ≥3 segments for a rotation-spanning read, got %d", w.Segments())
	}
	cur := newWALCursor(dir, 0)
	defer cur.Close()
	gate := w.LastSeq()
	for i, want := range payloads {
		seq, payload, ok, err := cur.next(gate)
		if err != nil || !ok {
			t.Fatalf("next(%d): ok=%v err=%v", i, ok, err)
		}
		if seq != uint64(i+1) || !bytes.Equal(payload, want) {
			t.Fatalf("record %d = (seq %d, %q), want (seq %d, %q)", i, seq, payload, i+1, want)
		}
	}
	if _, _, ok, err := cur.next(gate); ok || err != nil {
		t.Fatalf("drained cursor returned ok=%v err=%v", ok, err)
	}
	// The gate bounds the cursor: records appended later stay invisible
	// until the caller re-gates.
	if _, err := w.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := cur.next(gate); ok {
		t.Fatal("cursor read past its gate")
	}
	seq, payload, ok, err := cur.next(w.LastSeq())
	if err != nil || !ok || seq != gate+1 || string(payload) != "tail" {
		t.Fatalf("re-gated next = (%d, %q, %v, %v), want (%d, \"tail\", true, nil)", seq, payload, ok, err, gate+1)
	}
}

func TestWALCursorSkipsToFromSeq(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncIntervalPolicy})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payloads := testPayloads(8)
	appendAll(t, w, payloads)
	cur := newWALCursor(dir, 5)
	defer cur.Close()
	seq, payload, ok, err := cur.next(w.LastSeq())
	if err != nil || !ok || seq != 6 || !bytes.Equal(payload, payloads[5]) {
		t.Fatalf("next = (%d, %q, %v, %v), want record 6", seq, payload, ok, err)
	}
}

func TestWALCursorReportsCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncIntervalPolicy, SegmentBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, testPayloads(9))
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %d (%v)", len(segs), err)
	}
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	cur := newWALCursor(dir, 0)
	defer cur.Close()
	if _, _, _, err := cur.next(w.LastSeq()); !errors.Is(err, errWALCompacted) {
		t.Fatalf("cursor over a compacted-away position returned %v, want errWALCompacted", err)
	}
	if oldest := oldestWALSeq(dir, w.LastSeq()); oldest != segs[1].firstSeq {
		t.Fatalf("oldestWALSeq = %d, want %d", oldest, segs[1].firstSeq)
	}
}
