package linkindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The three frame readers — segment replay (recovery), walCursor (the
// leader's replication read path) and streamReader (the follower) — sit
// on one decoder, readFrame. These tests run the same damaged log
// through all three and pin that each still reaches its own verdict:
// every record before the damage is returned byte-exact, and then replay
// reports a torn tail, the cursor errors (or, for a header that simply
// stops, reports "nothing yet"), and the stream reader errors.

// frameLog is a valid single-segment log of n records: the segment file
// bytes plus the byte offset at which each record's frame starts.
type frameLog struct {
	name     string // segment file name
	data     []byte
	starts   []int // frame start offsets, one per record
	payloads [][]byte
}

func buildFrameLog(t testing.TB, n int) frameLog {
	t.Helper()
	dir := t.TempDir()
	w, err := openWAL(dir, 0, walOptions{Fsync: FsyncIntervalPolicy})
	if err != nil {
		t.Fatal(err)
	}
	payloads := testPayloads(n)
	appendAll(t, w, payloads)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("listSegments = %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	fl := frameLog{name: filepath.Base(segs[0].path), data: data, payloads: payloads}
	off := len(walMagic)
	for _, p := range payloads {
		fl.starts = append(fl.starts, off)
		off += walHeaderLen + len(p)
	}
	if off != len(data) {
		t.Fatalf("frame offsets end at %d, segment has %d bytes", off, len(data))
	}
	return fl
}

// frameVerdict is what one reader made of a log.
type frameVerdict struct {
	records [][]byte
	torn    bool  // segment replay only
	err     error // cursor and stream reader: why reading stopped (nil: "nothing more yet" / clean EOF)
}

func replayVerdict(t *testing.T, name string, data []byte) frameVerdict {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	payloads, scan := collectReplay(t, dir, 0)
	return frameVerdict{records: payloads, torn: scan.Torn}
}

func cursorVerdict(t *testing.T, name string, data []byte, gate uint64) frameVerdict {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	cur := newWALCursor(dir, 0)
	defer cur.Close()
	var v frameVerdict
	for {
		_, payload, ok, err := cur.next(gate)
		if err != nil || !ok {
			v.err = err
			return v
		}
		v.records = append(v.records, append([]byte(nil), payload...))
	}
}

// streamVerdict feeds the same frames to the follower's reader: a
// replication stream is the stream magic followed by frames laid out
// exactly like a segment's.
func streamVerdict(t *testing.T, data []byte) frameVerdict {
	t.Helper()
	stream := append([]byte(replStreamMagic), data[len(walMagic):]...)
	sr := newStreamReader(bytes.NewReader(stream))
	if err := sr.readMagic(); err != nil {
		t.Fatal(err)
	}
	var v frameVerdict
	for {
		_, payload, err := sr.next()
		if err != nil {
			if err != io.EOF {
				v.err = err
			}
			return v
		}
		v.records = append(v.records, append([]byte(nil), payload...))
	}
}

func checkPrefix(t *testing.T, reader string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s returned %d records, want the %d before the damage", reader, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s record %d = %q, want %q", reader, i, got[i], want[i])
		}
	}
}

// TestFrameReadersMutatedFrames damages one frame of a six-record log —
// the last one (the torn-tail position) and one in the middle — in each
// way a frame can be damaged, and checks all three readers.
func TestFrameReadersMutatedFrames(t *testing.T) {
	fl := buildFrameLog(t, 6)
	mutations := []struct {
		name string
		// mutate damages the frame starting at data[at] and returns the
		// (possibly shortened) log.
		mutate func(data []byte, at int) []byte
		// stopsShort: the log just ends inside the header, which the
		// cursor reads as "not written yet", not as corruption.
		stopsShort bool
	}{
		{name: "flipped payload byte", mutate: func(d []byte, at int) []byte { d[at+walHeaderLen+2] ^= 0x01; return d }},
		{name: "flipped CRC", mutate: func(d []byte, at int) []byte { d[at+5] ^= 0x80; return d }},
		{name: "flipped seq", mutate: func(d []byte, at int) []byte { d[at+8] ^= 0x02; return d }},
		{name: "truncated header", mutate: func(d []byte, at int) []byte { return d[:at+7] }, stopsShort: true},
		{name: "truncated payload", mutate: func(d []byte, at int) []byte { return d[:at+walHeaderLen+3] }},
	}
	for _, m := range mutations {
		for _, victim := range []int{5, 2} {
			t.Run(m.name+"/record="+string(rune('0'+victim)), func(t *testing.T) {
				data := m.mutate(append([]byte(nil), fl.data...), fl.starts[victim])
				want := fl.payloads[:victim]

				rv := replayVerdict(t, fl.name, data)
				checkPrefix(t, "segment replay", rv.records, want)
				if !rv.torn {
					t.Fatal("segment replay did not report the damage as a torn tail")
				}

				cv := cursorVerdict(t, fl.name, data, uint64(len(fl.payloads)))
				checkPrefix(t, "walCursor", cv.records, want)
				if m.stopsShort {
					if cv.err != nil {
						t.Fatalf("walCursor at a header that stops short returned %v, want \"nothing yet\"", cv.err)
					}
				} else if cv.err == nil || errors.Is(cv.err, errWALCompacted) {
					t.Fatalf("walCursor over a damaged frame returned %v, want a corruption error", cv.err)
				}

				sv := streamVerdict(t, data)
				checkPrefix(t, "streamReader", sv.records, want)
				if sv.err == nil {
					t.Fatal("streamReader ended a damaged stream with a clean io.EOF")
				}
			})
		}
	}
}

// TestFrameReadersCorruptLengthBoundedAlloc is the regression test for
// allocating from an unverified length: the last record's length field
// is overwritten with 1<<30 − 1 (inside the 1 GiB bound, so only the CRC
// can reject it). Each reader must return the five records before it
// and then its usual verdict — having allocated next to nothing. Before
// readFrame, segment replay and walCursor each did make([]byte, length):
// 1 GiB of TotalAlloc per recovery of a log with one flipped bit.
func TestFrameReadersCorruptLengthBoundedAlloc(t *testing.T) {
	fl := buildFrameLog(t, 6)
	data := append([]byte(nil), fl.data...)
	binary.LittleEndian.PutUint32(data[fl.starts[5]:], 1<<30-1)
	want := fl.payloads[:5]

	readers := []struct {
		name string
		run  func() frameVerdict
		// check judges the verdict beyond the record prefix.
		check func(v frameVerdict) bool
	}{
		{"segment replay", func() frameVerdict { return replayVerdict(t, fl.name, data) },
			func(v frameVerdict) bool { return v.torn }},
		{"walCursor", func() frameVerdict { return cursorVerdict(t, fl.name, data, 6) },
			func(v frameVerdict) bool { return v.err != nil }},
		{"streamReader", func() frameVerdict { return streamVerdict(t, data) },
			func(v frameVerdict) bool { return v.err != nil }},
	}
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v := rd.run()
			runtime.ReadMemStats(&after)
			checkPrefix(t, rd.name, v.records, want)
			if !rd.check(v) {
				t.Fatalf("%s did not reject the corrupt-length record: %+v", rd.name, v)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("%s allocated %d bytes on a record whose length the CRC never vouched for, want < 1 MiB",
					rd.name, alloc)
			}
		})
	}
}
