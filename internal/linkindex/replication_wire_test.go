package linkindex

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"genlink/internal/entity"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// wireTestRule mirrors the external test helper (internal test files
// cannot share package linkindex_test helpers): max of a levenshtein
// comparison on lowercased names and a jaccard comparison on titles.
func wireTestRule() *rule.Rule {
	name := rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("name")),
		similarity.Levenshtein(), 2)
	title := rule.NewComparison(
		rule.NewProperty("title"), rule.NewProperty("title"),
		similarity.Jaccard(), 0.8)
	return rule.New(rule.NewAggregation(rule.Max(), name, title))
}

func wireEnt(id, name string) *entity.Entity {
	e := entity.New(id)
	e.Add("name", name)
	return e
}

// wireRecords builds n walBatch payloads, each upserting one entity.
func wireRecords(t testing.TB, n int) [][]byte {
	t.Helper()
	records := make([][]byte, n)
	for i := range records {
		payload, err := json.Marshal(walBatch{Upserts: []*entity.Entity{
			wireEnt(fmt.Sprintf("e%d", i), fmt.Sprintf("name %d", i)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		records[i] = payload
	}
	return records
}

// buildStream encodes a heartbeat plus data frames 1..len(records), the
// exact byte sequence ServeWALStream would emit.
func buildStream(records [][]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(replStreamMagic)
	hb := make([]byte, replHeartbeatLen)
	binary.LittleEndian.PutUint64(hb[0:8], uint64(len(records)))
	_ = appendFrame(&buf, replHeartbeatSeq, hb)
	for i, p := range records {
		_ = appendFrame(&buf, uint64(i+1), p)
	}
	return buf.Bytes()
}

func TestStreamReaderRoundTrip(t *testing.T) {
	records := wireRecords(t, 5)
	sr := newStreamReader(bytes.NewReader(buildStream(records)))
	if err := sr.readMagic(); err != nil {
		t.Fatal(err)
	}
	seq, hb, err := sr.next()
	if err != nil || seq != replHeartbeatSeq || len(hb) != replHeartbeatLen {
		t.Fatalf("first frame = (%d, %d bytes, %v), want a heartbeat", seq, len(hb), err)
	}
	for i, want := range records {
		seq, payload, err := sr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if seq != uint64(i+1) || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d = (seq %d, %q), want (seq %d, %q)", i, seq, payload, i+1, want)
		}
	}
	if _, _, err := sr.next(); err != io.EOF {
		t.Fatalf("end of stream returned %v, want io.EOF", err)
	}
}

// applyStream drives the follower's apply loop over raw stream bytes
// against a real durable index, stopping at the first decode or apply
// error — exactly what tailOnce does with a network body.
func applyStream(d *DurableIndex, data []byte) (applied int) {
	sr := newStreamReader(bytes.NewReader(data))
	if err := sr.readMagic(); err != nil {
		return 0
	}
	for {
		seq, payload, err := sr.next()
		if err != nil {
			return applied
		}
		if seq == replHeartbeatSeq {
			if len(payload) != replHeartbeatLen {
				return applied
			}
			continue
		}
		if err := d.applyReplicated(seq, payload); err != nil {
			return applied
		}
		applied++
	}
}

// TestMutatedStreamAppliesPrefixOnly pins the replica safety contract:
// whatever a corrupt wire does, the follower applies a clean prefix of
// the leader's records — never a record out of order, never garbage —
// and its state equals the reference state of exactly that prefix.
func TestMutatedStreamAppliesPrefixOnly(t *testing.T) {
	records := wireRecords(t, 6)
	valid := buildStream(records)
	opts := matching.Options{Blocker: matching.MultiPass()}
	for pos := 0; pos < len(valid); pos += 7 {
		mutated := append([]byte(nil), valid...)
		mutated[pos] ^= 0x5a
		d, err := NewDurable(t.TempDir(), NewSharded(wireTestRule(), 2, opts),
			DurableOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		applied := applyStream(d, mutated)
		if got := d.AppliedSeq(); got != uint64(applied) {
			t.Fatalf("pos %d: applied seq %d but loop applied %d records", pos, got, applied)
		}
		want := NewSharded(wireTestRule(), 2, opts)
		for _, p := range records[:applied] {
			var b walBatch
			if err := json.Unmarshal(p, &b); err != nil {
				t.Fatal(err)
			}
			want.Apply(Batch{Upserts: b.Upserts, Deletes: b.Deletes})
		}
		if gl, wl := d.Index().Len(), want.Len(); gl != wl {
			t.Fatalf("pos %d: follower holds %d entities, prefix reference holds %d", pos, gl, wl)
		}
		for _, e := range want.Entities() {
			if d.Index().Get(e.ID) == nil {
				t.Fatalf("pos %d: entity %s missing from follower", pos, e.ID)
			}
		}
		d.Close()
	}
}

// TestWALStreamPoisonedLog pins the leader's stream on a poisoned log.
// The append whose fsync fails has already reached the segment file and
// counts in LastSeq, but it was never acknowledged: an open
// /wal/stream must drop without shipping it, and a new one answers 500.
func TestWALStreamPoisonedLog(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDurable(dir, NewSharded(wireTestRule(), 2, matching.Options{Blocker: matching.MultiPass()}),
		DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Reopen the empty log through the failing-Sync hook.
	var fail atomic.Bool
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if d.wal, err = openWAL(dir, 0, flakyWALOptions(&fail, walOptions{Fsync: FsyncBatch})); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e0", "e1"} {
		if err := d.Add(wireEnt(id, "name "+id)); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(http.HandlerFunc(d.ServeWALStream))
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "?from_seq=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy stream answered %s", resp.Status)
	}
	sr := newStreamReader(resp.Body)
	if err := sr.readMagic(); err != nil {
		t.Fatal(err)
	}
	// Records 1 and 2, then the heartbeat that reports the stream caught up.
	for shipped := uint64(0); ; {
		seq, _, err := sr.next()
		if err != nil {
			t.Fatalf("healthy stream after record %d: %v", shipped, err)
		}
		if seq != replHeartbeatSeq {
			shipped = seq
		} else if shipped == 2 {
			break
		}
	}

	fail.Store(true)
	if err := d.Add(wireEnt("e2", "name e2")); err == nil {
		t.Fatal("an append whose fsync failed was acknowledged")
	}
	for {
		seq, _, err := sr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("open stream on a poisoned log ended with %v, want a clean drop", err)
		}
		if seq != replHeartbeatSeq {
			t.Fatalf("poisoned leader shipped unacknowledged record %d", seq)
		}
	}

	resp2, err := client.Get(ts.URL + "?from_seq=2")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("new stream on a poisoned log answered %s, want 500", resp2.Status)
	}
}

// FuzzWALStream pins that arbitrary stream bytes never panic the
// follower's decode+apply path and only ever apply a contiguous prefix.
func FuzzWALStream(f *testing.F) {
	records := wireRecords(f, 3)
	valid := buildStream(records)
	f.Add(valid, 0, byte(0))
	f.Add(valid, 7, byte(0xff))
	f.Add(valid[:len(valid)-3], 20, byte(0x01))
	f.Add([]byte(replStreamMagic), 0, byte(0))
	f.Add([]byte{}, 0, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, pos int, xor byte) {
		if pos >= 0 && pos < len(data) {
			data = append([]byte(nil), data...)
			data[pos] ^= xor
		}
		sr := newStreamReader(bytes.NewReader(data))
		if err := sr.readMagic(); err != nil {
			return
		}
		next := uint64(1)
		for {
			seq, payload, err := sr.next()
			if err != nil {
				return
			}
			if seq == replHeartbeatSeq {
				if len(payload) != replHeartbeatLen {
					return
				}
				continue
			}
			// The follower's contiguity check: a CRC-valid frame with the
			// wrong seq stops the stream instead of applying out of order.
			if seq != next {
				return
			}
			next++
		}
	})
}
