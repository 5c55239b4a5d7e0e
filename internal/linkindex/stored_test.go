package linkindex

import (
	"bytes"
	"encoding/json"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// TestDurableLogEqualsJSONMarshal holds every log record DurableIndex.Apply
// writes to json.Marshal's bytes of the batch it logs: for in-process
// upserts, whose records are assembled from entity.Encode's bytes, and
// for upserts decoded with their canonical bytes from a body in and out
// of json.Marshal's form, whose records are assembled from the stored
// spans; with deletes that need escaping beside them and alone. The one
// batch whose record differs from json.Marshal's bytes of the batch as
// given is an in-process upsert with invalid UTF-8: it is stored as the
// entity its bytes decode to (entity.Encode), U+FFFD in place of each bad
// byte, and its record is json.Marshal's bytes of that entity.
func TestDurableLogEqualsJSONMarshal(t *testing.T) {
	d, err := NewDurable(t.TempDir(), NewSharded(wireTestRule(), 2, matching.Options{Blocker: matching.MultiPass()}),
		DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	inProcess := []*entity.Entity{
		wireEnt("a<&>", "x \u2028 \"y\" \\ é"),
		{ID: "b", Properties: map[string][]string{"name": {"z"}, "title": {}}},
		{ID: "c"},
	}
	body := []byte(` [ {"properties":{"title":["t"],"name":["\u00e9\/"]},"id":"d"}, {"id":"e","properties":{"name":["<ok>"]}} ] `)
	decoded, err := entity.DecodeEncodedList(body)
	if err != nil {
		t.Fatal(err)
	}
	var plain []*entity.Entity
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	invalid := &entity.Entity{ID: "f\xff", Properties: map[string][]string{"name": {"a\xffb", "\xed\xa0\x80"}}}
	stored := &entity.Entity{ID: "f\ufffd", Properties: map[string][]string{"name": {"a\ufffdb", "\ufffd\ufffd\ufffd"}}}
	var want [][]byte
	for _, c := range []struct {
		b    Batch
		want walBatch
	}{
		{Batch{Upserts: inProcess, Deletes: []string{"q\n<"}}, walBatch{Upserts: inProcess, Deletes: []string{"q\n<"}}},
		{Batch{Encoded: decoded}, walBatch{Upserts: plain}},
		{Batch{Upserts: inProcess[:1], Encoded: decoded[1:]}, walBatch{Upserts: append(inProcess[:1:1], plain[1:]...)}},
		{Batch{Deletes: []string{"a<&>", "d"}}, walBatch{Deletes: []string{"a<&>", "d"}}},
		{Batch{Upserts: []*entity.Entity{invalid}}, walBatch{Upserts: []*entity.Entity{stored}}},
	} {
		if _, err := d.Apply(c.b); err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
	}
	var got [][]byte
	if _, err := replayWAL(d.Dir(), 0, func(_ uint64, payload []byte) error {
		got = append(got, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d log records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	w, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	if js, _ := d.Index().JSON(stored.ID); js != string(w) {
		t.Fatalf("stored %s, want %s", js, w)
	}
}
