package entity

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// codecSeeds are inputs outside, at and around the decoder's canonical
// shape: escapes of every kind, the HTML-sensitive bytes, control
// characters, U+2028/2029, invalid UTF-8, lone and paired surrogate
// escapes, nil against empty slices and maps, case-variant, duplicate
// and unknown keys, nulls, non-string values and trailing bytes.
var codecSeeds = []string{
	`{"id":"a","properties":{"title":["x","y"],"date":["2001"]}}`,
	`[{"id":"a"},{"id":"b","properties":{}}]`,
	`{"entities":[{"id":"a","properties":{"p":[]}}]}`,
	`{"entities":[]}`,
	`{"entities":null}`,
	`{}`,
	`[]`,
	`null`,
	`{"u":[{"id":"a","properties":{"p":["v"]}}],"d":["b","c"]}`,
	`{"d":[],"u":[]}`,
	`{"d":["x"]}`,
	`{"u":null}`,
	` { "id" : "a" , "properties" : { "p" : [ "v" , "w" ] } } `,
	`{"properties":{"p":["v"]},"id":"a"}`,
	`{"id":"<a&b>","properties":{"t":["\u003c\u003e\u0026"]}}`,
	`{"id":"\b\f\n\r\t\"\\\/","properties":{"\u0001":["\u001f\u007f"]}}`,
	`{"id":"\u2028\u2029 x"}`,
	"{\"id\":\"\xff\xfe\",\"properties\":{\"\xc3\":[\"\xe2\x80\"]}}",
	"{\"id\":\"\xe2\x80\xa8\"}",
	`{"id":"\ud83d\ude00"}`,
	`{"id":"\ud83d"}`,
	`{"id":"\ude00\ud83d"}`,
	`{"id":"\ud83d\u0041"}`,
	`{"id":"\ud83dx"}`,
	`{"id":"\uD83D\uDE00"}`,
	`{"id":"é\u00e9"}`,
	`{"ID":"a"}`,
	`{"Id":"a","id":"b"}`,
	`{"id":"a","id":"b"}`,
	`{"id":"a","properties":{"p":["v"]},"properties":{"q":["w"]}}`,
	`{"id":"a","properties":{"p":["v"],"p":["w"]}}`,
	`{"id":"a","extra":1}`,
	`{"id":null}`,
	`{"id":"a","properties":null}`,
	`{"id":"a","properties":{"p":null}}`,
	`{"id":"a","properties":{"p":[null]}}`,
	`{"id":1}`,
	`{"id":"a","properties":{"p":[1]}}`,
	`[{"id":"a"},null]`,
	`{"id":"a"} x`,
	`{"id":"a"}{}`,
	`{"id":"a",}`,
	`{"id":"a"`,
	`{"id":"\x"}`,
	`{"id":"\u12"}`,
	"{\"id\":\"a\tb\"}",
	`{"entities":[{"id":"a"}],"extra":[]}`,
	`{"u":[],"u":[]}`,
	`{"\u0069d":"a"}`,
	`{"id":"a","properties":{}}`,
	`{"id":"a","properties":{"a":["1"],"b":["2",""]}}`,
	`{"id":"a","properties":{"b":["1"],"a":["2"]}}`,
	`{"id":"a","properties":{"p":["\u003c\u003e\u0026\"\\\n\u001f\u2028\u2029"]}}`,
	`{"id":"\u00e9\/\u007f"}`,
	`{"id":"\ufffd"}`,
	"{\"id\":\"\xef\xbf\xbd\x7f\"}",
	`{"properties":{"p":["v"]}}`,
	`[{"id":"a","properties":{"p":["v"]}}, {"id":"b"} ,{"id":"c","properties":{"p":["v"],"p":["w"]}}]`,
}

// checkDecode holds every decoder to json.Unmarshal into the same type
// on data: equal values, and an error exactly when it errs.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	same := func(what string, got, want any, gerr, werr error) {
		t.Helper()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s of %q: error %v, json.Unmarshal's %v", what, data, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s of %q:\n got %#v\nwant %#v", what, data, got, want)
		}
	}
	var e Entity
	werr := json.Unmarshal(data, &e)
	got, gerr := DecodeJSON(data)
	same("DecodeJSON", got, &e, gerr, werr)

	var es []*Entity
	werr = json.Unmarshal(data, &es)
	gotList, gerr := DecodeJSONList(data)
	same("DecodeJSONList", gotList, es, gerr, werr)

	var sec, gotSec Section
	werr = json.Unmarshal(data, &sec)
	gerr = gotSec.DecodeJSON(data)
	same("Section.DecodeJSON", gotSec, sec, gerr, werr)

	checkEncoded(t, data)
	checkFastPathKeys(t, data)
}

// checkEncoded holds the Encoded decoders to json.Unmarshal on data: an
// error exactly when it errs, and otherwise, for each entity, canonical
// bytes that are json.Marshal's bytes of the entity json.Unmarshal
// decodes, with an entity that marshals to them too. Where the decoder
// calls an entity's span canonical and keeps it, the span is json.Marshal's
// bytes of the entity decoded from it.
func checkEncoded(t *testing.T, data []byte) {
	t.Helper()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	same := func(what string, got []Encoded, want []*Entity, gerr, werr error) {
		t.Helper()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s of %q: error %v, json.Unmarshal's %v", what, data, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("%s of %q: %d entities (nil %v), json.Unmarshal's %d (nil %v)", what, data, len(got), got == nil, len(want), want == nil)
		}
		for i, w := range want {
			if js := marshal(w); got[i].JSON != js {
				t.Fatalf("%s of %q: entity %d stored as\n%s\njson.Marshal writes\n%s", what, data, i, got[i].JSON, js)
			}
			e := got[i].Entity()
			if (w == nil) != (e == nil) || marshal(e) != got[i].JSON {
				t.Fatalf("%s of %q: entity %d %#v does not marshal to its bytes %s", what, data, i, e, got[i].JSON)
			}
			if e == nil {
				continue
			}
			if got[i].ID() != e.ID || got[i].Values("\x00absent") != nil {
				t.Fatalf("%s of %q: entity %d reads ID %q, or values of an absent property", what, data, i, got[i].ID())
			}
			for p, vs := range e.Properties {
				if !slices.Equal(got[i].Values(p), vs) {
					t.Fatalf("%s of %q: entity %d reads %q as %q, its entity holds %q", what, data, i, p, got[i].Values(p), vs)
				}
			}
		}
	}
	var e *Entity
	werr := json.Unmarshal(data, &e)
	got, gerr := DecodeEncoded(data)
	if e == nil && werr == nil {
		e = &Entity{} // null decodes into a zero Entity
	}
	same("DecodeEncoded", []Encoded{got}, []*Entity{e}, gerr, werr)

	var es []*Entity
	werr = json.Unmarshal(data, &es)
	gotList, gerr := DecodeEncodedList(data)
	same("DecodeEncodedList", gotList, es, gerr, werr)

	var sec Section
	werr = json.Unmarshal(data, &sec)
	gotSec, gerr := DecodeEncodedSection(data)
	same("DecodeEncodedSection", gotSec, sec.Entities, gerr, werr)

	var b Batch
	werr = json.Unmarshal(data, &b)
	gotUps, gotDels, gerr := DecodeEncodedBatch(data)
	same("DecodeEncodedBatch", gotUps, b.Upserts, gerr, werr)
	if gerr == nil && !reflect.DeepEqual(gotDels, b.Deletes) {
		t.Fatalf("DecodeEncodedBatch of %q: deletes %#v, json.Unmarshal's %#v", data, gotDels, b.Deletes)
	}

	d := decoder{data: data, keep: true}
	if start, ok := d.object(); ok && d.canon {
		span := string(data[start:d.pos])
		if e, ok := d.build(span, start); ok && marshal(e) != span {
			t.Fatalf("the decoder calls %q canonical; json.Marshal writes %s", span, marshal(e))
		}
	}
}

// checkFastPathKeys holds the fast path to the shape it claims, which the
// differential alone cannot see where json.Unmarshal folds case: where a
// decoder takes data without json.Unmarshal, every key of data's
// entities and wrapper is one of that shape's names, exactly.
func checkFastPathKeys(t *testing.T, data []byte) {
	t.Helper()
	var v any
	if json.Unmarshal(data, &v) != nil {
		return // the differential has already failed a fast path that took it
	}
	keysIn := func(v any, names ...string) bool {
		m, ok := v.(map[string]any)
		for k := range m {
			ok = ok && slices.Contains(names, k)
		}
		return ok
	}
	list := func(v any) bool {
		a, ok := v.([]any)
		for _, e := range a {
			ok = ok && keysIn(e, "id", "properties")
		}
		return ok
	}
	m, _ := v.(map[string]any)
	d := decoder{data: data}
	if _, ok := d.entity(); ok && d.end() && !keysIn(v, "id", "properties") {
		t.Fatalf("the entity fast path took %q", data)
	}
	d = decoder{data: data}
	if _, ok := d.list(); ok && d.end() && !list(v) {
		t.Fatalf("the list fast path took %q", data)
	}
	d = decoder{data: data}
	if _, ok := d.section(); ok && !(keysIn(v, "entities") && (m["entities"] == nil || list(m["entities"]))) {
		t.Fatalf("the section fast path took %q", data)
	}
	d = decoder{data: data}
	if _, _, ok := d.batch(); ok && !(keysIn(v, "u", "d") && (m["u"] == nil || list(m["u"]))) {
		t.Fatalf("the batch fast path took %q", data)
	}
}

// checkMarshaled runs checkDecode on json.Marshal's bytes of es as a
// list, a Section and a Batch: the writers' output. A section holding no
// null (no nil entity or value list) must be taken by the fast path, and
// json.Marshal's bytes of an entity whose strings are valid UTF-8 must be
// kept as they are, and are what AppendSection and AppendBatch write.
func checkMarshaled(t *testing.T, es []*Entity, deletes []string) {
	t.Helper()
	var spans []Encoded
	for _, e := range es {
		if e == nil {
			continue
		}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		d := decoder{data: data, keep: true}
		if _, ok := d.object(); ok && !d.canon && !bytes.Contains(data, []byte(`\ufffd`)) {
			t.Fatalf("the decoder calls json.Marshal's %s not canonical", data)
		}
		enc := Encode(e)
		if enc.JSON != string(data) && !bytes.Contains(data, []byte(`\ufffd`)) {
			t.Fatalf("Encode stores %s as %s", data, enc.JSON)
		}
		spans = append(spans, enc)
	}
	stored, jsons := []*Entity{}, []string{}
	for _, e := range spans {
		stored, jsons = append(stored, e.Entity()), append(jsons, e.JSON)
	}
	for _, w := range []struct {
		got []byte
		v   any
	}{
		{AppendSection(nil, jsons), &Section{Entities: stored}},
		{AppendBatch(nil, spans, deletes), &Batch{Upserts: stored, Deletes: deletes}},
	} {
		want, err := json.Marshal(w.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.got, want) {
			t.Fatalf("the writer wrote\n%s\njson.Marshal writes\n%s", w.got, want)
		}
	}
	for _, v := range []any{es, &Section{Entities: es}, &Batch{Upserts: es, Deletes: deletes}} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		checkDecode(t, data)
		d := decoder{data: data}
		if _, isSec := v.(*Section); isSec && !bytes.Contains(data, []byte("null")) {
			if _, ok := d.section(); !ok {
				t.Fatalf("the section fast path refused json.Marshal's %q", data)
			}
		}
	}
}

// fuzzEntities builds entities from the fuzzer's strings; the bits of
// shape pick nil against empty value slices and property maps, a nil
// entity, a second property and a multi-valued one.
func fuzzEntities(id, name, value string, shape uint8) []*Entity {
	e := &Entity{ID: id}
	switch shape & 3 {
	case 1:
		e.Properties = map[string][]string{}
	case 2:
		e.Properties = map[string][]string{name: {value}}
	case 3:
		e.Properties = map[string][]string{name: {value, id}, value: nil, id + name: {}}
	}
	es := []*Entity{e}
	if shape&4 != 0 {
		es = append(es, nil)
	}
	if shape&8 != 0 {
		es = append(es, &Entity{ID: value, Properties: map[string][]string{name: {id}, "": {""}}})
	}
	if shape&16 != 0 {
		es = es[:0]
	}
	if shape&32 != 0 {
		es = nil
	}
	return es
}

// FuzzEntityJSON is the decoder's differential: on arbitrary bytes, and
// on json.Marshal's bytes of arbitrary entities, every decoder equals
// json.Unmarshal (value and error-or-not).
func FuzzEntityJSON(f *testing.F) {
	for i, s := range codecSeeds {
		f.Add([]byte(s), "a<b>&c", "p\u2028", "v\x00\xff\u2029", uint8(i))
	}
	f.Add([]byte(`{"id":"x"}`), "\xed\xa0\x80", "", "é\t\"\\", uint8(0xff))
	f.Fuzz(func(t *testing.T, data []byte, id, name, value string, shape uint8) {
		checkDecode(t, data)
		var deletes []string
		if shape&64 != 0 {
			deletes = []string{name, value}
		}
		checkMarshaled(t, fuzzEntities(id, name, value, shape), deletes)
	})
}

// TestCodecEqualsEncodingJSON runs the fuzz target's checks on its seeds,
// on every single-byte mutation of the first seeds, and on json.Marshal's
// bytes of entities holding every byte value and the escapes it writes.
func TestCodecEqualsEncodingJSON(t *testing.T) {
	for _, s := range codecSeeds {
		checkDecode(t, []byte(s))
	}
	for _, s := range codecSeeds[:4] {
		for i := range len(s) {
			for _, c := range []byte("{}[]\",:\\ux0 ") {
				m := []byte(s)
				m[i] = c
				checkDecode(t, m)
			}
		}
	}
	var all strings.Builder
	for c := range 256 {
		all.WriteByte(byte(c))
	}
	for _, v := range []string{all.String(), "\u2028\u2029\ufffd é 😀", "\xed\xa0\x80", ""} {
		for shape := range uint8(128) {
			checkMarshaled(t, fuzzEntities(v, v+"n", "w"+v, shape), []string{v})
		}
	}
}

// TestCodecFastPathDecodesOnce checks the fast path is what decodes
// json.Marshal's output, so the differential above is not met by the
// fallback alone: the canonical shape is accepted without json.Unmarshal,
// and decoded strings do not alias the input.
func TestCodecFastPathDecodesOnce(t *testing.T) {
	es := []*Entity{
		{ID: "a<&>", Properties: map[string][]string{"title": {"x\u2028\"y\"", "é"}, "date": {}}},
		{ID: "b"},
	}
	in := Batch{Upserts: es, Deletes: []string{"c\n"}}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	d := decoder{data: data}
	ups, dels, ok := d.batch()
	if out := (Batch{Upserts: entities(ups), Deletes: dels}); !ok || !reflect.DeepEqual(out, in) {
		t.Fatalf("fast path refused or misread %s: %#v", data, out)
	}
	sec := Section{Entities: es}
	if data, err = json.Marshal(&sec); err != nil {
		t.Fatal(err)
	}
	d = decoder{data: data}
	got, ok := d.section()
	if gotSec := (Section{Entities: entities(got)}); !ok || !reflect.DeepEqual(gotSec, sec) {
		t.Fatalf("fast path refused or misread the section: %#v", gotSec)
	}
	raw := []byte(`{"id":"abc","properties":{"p":["def"]}}`)
	e, err := DecodeJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, bytes.Repeat([]byte{'#'}, len(raw)))
	if e.ID != "abc" || e.Properties["p"][0] != "def" {
		t.Fatalf("decoded strings alias the input: %#v", e)
	}
}
