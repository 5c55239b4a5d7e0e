package entity

import (
	"bytes"
	"encoding/json"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The entity JSON codec: the one reader of entities, entity lists and
// the two wrappers the service persists (Section, Batch), and the one
// writer of the service's stored bytes. The decoder returns what
// json.Unmarshal returns, and an error exactly when it does, for every
// input; the writers emit exactly what json.Marshal emits. Entity has no
// MarshalJSON or UnmarshalJSON method, so encoding/json stays an
// independent implementation the tests hold the codec to.
//
// The decoder makes one pass over the canonical shape json.Marshal
// emits — an object with at most one "id" string and at most one
// "properties" object of string arrays, with distinct property names,
// and wrappers holding only their own keys — decoding string escapes
// itself. Anything else (an unknown, case-variant or duplicate key, a
// null, a non-string value, a syntax error, trailing bytes) is handed,
// as it is, to json.Unmarshal, whose result and error are returned.
// Each decoded entity's strings that need no unescaping are substrings
// of one string of its own, a copy of the entity's span of the input;
// an unescaped string is a string of its own. Nothing aliases the input
// buffer, and no entity's strings keep another entity's bytes alive.
//
// The Encoded decoders also give each entity its canonical bytes: what
// json.Marshal emits for it. In the same pass the decoder tells whether
// an entity's span is byte for byte that encoding — compact, "id" first
// and "properties" second, property names in increasing byte order,
// every string escaped as encoding/json escapes it (appendString), and
// an empty properties object omitted — and keeps such a span as the
// canonical bytes. Any other entity is marshaled once and decoded afresh
// from json.Marshal's bytes, so an Encoded entity's strings are always
// substrings of its JSON. AppendSection and AppendBatch concatenate
// canonical bytes into json.Marshal's bytes of the wrappers, so the
// write-ahead log, snapshots and entity bodies are written without
// marshaling anything.

// Section is the JSON shape of one snapshot section: a run of one
// shard's entities.
type Section struct {
	Entities []*Entity `json:"entities"`
}

// Batch is the JSON shape of one write-ahead-log record: the entities
// upserted and the IDs deleted.
type Batch struct {
	Upserts []*Entity `json:"u,omitempty"`
	Deletes []string  `json:"d,omitempty"`
}

// Encoded is an entity version with its canonical bytes: JSON is
// exactly what json.Marshal emits for the entity. A decoded one holds
// the entity's properties as decoded, substrings of JSON where they
// needed no unescaping, and builds no property map unless Entity is
// called: a store that keeps the bytes reads the values it derives from
// (Values) without one. The zero Encoded, and a null list element's, has
// JSON "" or "null" and no entity.
type Encoded struct {
	JSON   string
	id     string
	entity *Entity // set by Encode, and by the plain decoders
	props  []prop  // a decoded entity's properties; nil without a "properties" member
}

// prop is one decoded property: its name and values.
type prop struct {
	name   string
	values []string
}

// ID returns the entity's ID.
func (e *Encoded) ID() string { return e.id }

// Values returns the values of property p, as Entity.Values does.
func (e *Encoded) Values(p string) []string {
	if e.entity != nil {
		return e.entity.Values(p)
	}
	for i := range e.props {
		if e.props[i].name == p {
			return e.props[i].values
		}
	}
	return nil
}

// Entity returns the entity: the one Encode was given, or one built from
// the decoded properties, its strings shared with them. It is nil for a
// null list element.
func (e *Encoded) Entity() *Entity {
	if e.entity != nil || e.JSON == "null" || e.JSON == "" {
		return e.entity
	}
	out := &Entity{ID: e.id}
	if e.props != nil {
		out.Properties = make(map[string][]string, len(e.props))
		for _, p := range e.props {
			out.Properties[p.name] = p.values
		}
	}
	return out
}

// Pending returns e as an Encoded whose canonical bytes are still to be
// made: its JSON is empty until Encode of its Entity.
func Pending(e *Entity) Encoded { return Encoded{id: e.ID, entity: e} }

// Encode returns e with its canonical bytes, json.Marshal's bytes of
// it; e's strings stay its own. A string that is not valid UTF-8 is
// written as \ufffd escapes, which decode as U+FFFD, so such an entity is
// replaced by the one its bytes decode to, whose canonical bytes are
// then json.Marshal's of it, U+FFFD unescaped: every version is stored
// as bytes that decode back to it, and is written and served as what a
// recovery would read back. Only such an entity's bytes differ from
// json.Marshal's bytes of e.
func Encode(e *Entity) Encoded {
	data, _ := json.Marshal(e) // strings and a map of string slices always marshal
	if bytes.Contains(data, []byte(`\ufffd`)) {
		e, _ = DecodeJSON(data)
		data, _ = json.Marshal(e)
	}
	return Encoded{JSON: string(data), id: e.ID, entity: e}
}

// recode returns e's canonical bytes (Encode) decoded afresh, so that
// the decoded strings are substrings of them.
func recode(e *Entity) Encoded {
	if e == nil {
		return Encoded{JSON: "null"}
	}
	js := Encode(e).JSON
	d := decoder{data: []byte(js), keep: true}
	if _, ok := d.object(); ok && d.end() && d.canon {
		return d.encoded(js, 0)
	}
	// An entity with a nil value list: json.Marshal writes it as null,
	// which the decoder leaves to json.Unmarshal.
	return Encoded{JSON: js, id: e.ID, entity: e}
}

// DecodeJSON returns the entity json.Unmarshal decodes from data into a
// zero Entity, and its error.
func DecodeJSON(data []byte) (*Entity, error) {
	d := decoder{data: data}
	if e, ok := d.entity(); ok && d.end() {
		return e.entity, nil
	}
	var e Entity
	err := json.Unmarshal(data, &e)
	return &e, err
}

// DecodeJSONString is DecodeJSON of s, whose strings that need no
// unescaping are substrings of s: the stored form of an entity decodes
// without copying it.
func DecodeJSONString(s string) (*Entity, error) {
	d := decoder{data: []byte(s)}
	if _, ok := d.object(); ok && d.end() {
		if e, ok := d.build(s, 0); ok {
			return e, nil
		}
	}
	var e Entity
	err := json.Unmarshal(d.data, &e)
	return &e, err
}

// DecodeJSONList returns the list json.Unmarshal decodes from data into
// a nil []*Entity, and its error.
func DecodeJSONList(data []byte) ([]*Entity, error) {
	d := decoder{data: data}
	if es, ok := d.list(); ok && d.end() {
		return entities(es), nil
	}
	var es []*Entity
	err := json.Unmarshal(data, &es)
	return es, err
}

// DecodeJSON sets s to what json.Unmarshal decodes from data into a zero
// Section and returns its error.
func (s *Section) DecodeJSON(data []byte) error {
	d := decoder{data: data}
	if es, ok := d.section(); ok {
		*s = Section{Entities: entities(es)}
		return nil
	}
	*s = Section{}
	return json.Unmarshal(data, s)
}

// DecodeEncoded is DecodeJSON with the entity's canonical bytes. On an
// error it returns no entity.
func DecodeEncoded(data []byte) (Encoded, error) {
	d := decoder{data: data, keep: true}
	if e, ok := d.entity(); ok && d.end() {
		return e, nil
	}
	var e Entity
	if err := json.Unmarshal(data, &e); err != nil {
		return Encoded{}, err
	}
	return recode(&e), nil
}

// DecodeEncodedList is DecodeJSONList with each entity's canonical
// bytes; a null element is a nil Entity with JSON "null".
func DecodeEncodedList(data []byte) ([]Encoded, error) {
	d := decoder{data: data, keep: true}
	if es, ok := d.list(); ok && d.end() {
		return es, nil
	}
	var es []*Entity
	if err := json.Unmarshal(data, &es); err != nil {
		return nil, err
	}
	return recoded(es), nil
}

// DecodeEncodedSection is Section.DecodeJSON giving the section's
// entities with their canonical bytes.
func DecodeEncodedSection(data []byte) ([]Encoded, error) {
	d := decoder{data: data, keep: true}
	if es, ok := d.section(); ok {
		return es, nil
	}
	var s Section
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return recoded(s.Entities), nil
}

// DecodeEncodedBatch returns the upserts, with their canonical bytes, and
// the deletes json.Unmarshal decodes from data into a zero Batch, and its
// error.
func DecodeEncodedBatch(data []byte) (upserts []Encoded, deletes []string, err error) {
	d := decoder{data: data, keep: true}
	if ups, dels, ok := d.batch(); ok {
		return ups, dels, nil
	}
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, err
	}
	return recoded(b.Upserts), b.Deletes, nil
}

// entities returns the entities of es, nil for nil.
func entities(es []Encoded) []*Entity {
	if es == nil {
		return nil
	}
	out := make([]*Entity, len(es))
	for i := range es {
		out[i] = es[i].Entity()
	}
	return out
}

// recoded returns recode of each of es, nil for nil.
func recoded(es []*Entity) []Encoded {
	if es == nil {
		return nil
	}
	out := make([]Encoded, len(es))
	for i, e := range es {
		out[i] = recode(e)
	}
	return out
}

// AppendSection appends json.Marshal's bytes of a Section whose
// entities, a non-nil list, have the canonical bytes es.
func AppendSection(dst []byte, es []string) []byte {
	dst = append(dst, `{"entities":[`...)
	for i, e := range es {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, e...)
	}
	return append(dst, "]}"...)
}

// AppendBatch appends json.Marshal's bytes of a Batch of the upserts,
// by their canonical bytes, and the deletes.
func AppendBatch(dst []byte, upserts []Encoded, deletes []string) []byte {
	dst = append(dst, '{')
	if len(upserts) > 0 {
		dst = append(dst, `"u":[`...)
		for i, e := range upserts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, e.JSON...)
		}
		dst = append(dst, ']')
	}
	if len(deletes) > 0 {
		if len(upserts) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"d":[`...)
		for i, id := range deletes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, id)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// plain marks the ASCII bytes json.Marshal writes in a string as they
// are: every printable one but the quote, the backslash and the three
// it escapes for HTML.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as json.Marshal writes a string: quoted, with
// the quote, the backslash and the control characters escaped (\b, \f,
// \n, \r and \t by letter, the rest as \u00XX), <, >, &, U+2028 and
// U+2029 as \u escapes, and each byte of invalid UTF-8 as \ufffd.
func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decoder is one pass of the canonical-shape decoder over data. Every
// method reports false where the input leaves that shape; the caller
// then hands the whole input to json.Unmarshal.
type decoder struct {
	data []byte
	pos  int
	// keep asks for canonical bytes (the Encoded decoders).
	keep bool
	// The entity object being read: its ID, whether it has an "id" and a
	// "properties" member, and in pieces each property's name, at the
	// position names records, followed by its values. canon reports
	// whether its bytes so far are json.Marshal's. Strings that need
	// unescaping are decoded into arena; enc is the scratch of checking
	// their escapes.
	id              piece
	hasID, hasProps bool
	canon           bool
	pieces          []piece
	names           []int
	arena           []byte
	enc             []byte
}

// piece is one decoded string: data[lo:hi], or arena[lo:hi] when it
// needed unescaping.
type piece struct {
	lo, hi  int
	escaped bool
}

// bytes returns p's decoded bytes, valid until the next entity.
func (d *decoder) bytes(p piece) []byte {
	if p.escaped {
		return d.arena[p.lo:p.hi]
	}
	return d.data[p.lo:p.hi]
}

// skip advances past JSON whitespace, which json.Marshal never writes.
func (d *decoder) skip() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
			d.canon = false
		default:
			return
		}
	}
}

// next consumes c, after whitespace, if it comes next.
func (d *decoder) next(c byte) bool {
	d.skip()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.skip()
	return d.pos == len(d.data)
}

// str reads a string. One that needs no unescaping is a piece of data;
// one json.Marshal would write otherwise clears canon.
func (d *decoder) str() (piece, bool) {
	d.skip()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return piece{}, false
	}
	start := d.pos + 1
	for i := start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c < utf8.RuneSelf && plain[c]:
			i++
		case c == '"':
			d.pos = i + 1
			return piece{lo: start, hi: i}, true
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		case c < utf8.RuneSelf: // <, > or &
			d.canon = false
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			if r == '\u2028' || r == '\u2029' {
				d.canon = false
			}
			i += size
		}
	}
	return piece{}, false
}

// unescape decodes the string starting at start, whose bytes before i
// need no unescaping, into arena as json.Unmarshal does: the escapes
// JSON defines, a surrogate pair of six-byte escapes as one rune and any
// other surrogate as U+FFFD, and each byte of invalid UTF-8 as U+FFFD. A
// control character, an unknown escape or a missing closing quote is a
// syntax error, left to json.Unmarshal. When canonical bytes are asked
// for, the string's bytes are held to json.Marshal's of its value.
func (d *decoder) unescape(start, i int) (piece, bool) {
	lo := len(d.arena)
	b := append(d.arena, d.data[start:i]...)
	data := d.data
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos, d.arena = i+1, b
			p := piece{lo: lo, hi: len(b), escaped: true}
			if d.keep && d.canon {
				d.enc = appendString(d.enc[:0], b[lo:])
				d.canon = bytes.Equal(d.enc, data[start-1:i+1])
			}
			return p, true
		case c == '\\':
			if i+1 >= len(data) {
				return piece{}, false
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := escaped(data[i:])
				if r < 0 {
					return piece{}, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, escaped(data[i:])); pair != unicode.ReplacementChar {
						b = utf8.AppendRune(b, pair)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return piece{}, false
			}
			i += 2
		case c < ' ':
			return piece{}, false
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return piece{}, false
}

// escaped decodes the six-byte escape (backslash, 'u', four hex digits)
// at the start of s, or returns -1.
func escaped(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// key reads an object key followed by its colon.
func (d *decoder) key() (piece, bool) {
	k, ok := d.str()
	return k, ok && d.next(':')
}

// more consumes the separator after an object member or array element:
// true after a comma, false with ok after the closing c.
func (d *decoder) more(c byte) (more, ok bool) {
	if d.next(',') {
		return true, true
	}
	return false, d.next(c)
}

// strings reads an array of strings, empty but not nil for [], each a
// copy.
func (d *decoder) strings() ([]string, bool) {
	if !d.next('[') {
		return nil, false
	}
	out := []string{}
	if d.next(']') {
		return out, true
	}
	for {
		p, ok := d.str()
		if !ok {
			return nil, false
		}
		out = append(out, string(d.bytes(p)))
		more, ok := d.more(']')
		if !ok {
			return nil, false
		}
		if !more {
			return out, true
		}
	}
}

// values reads a property's array of strings into pieces.
func (d *decoder) values() bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		p, ok := d.str()
		if !ok {
			return false
		}
		d.pieces = append(d.pieces, p)
		more, ok := d.more(']')
		if !ok {
			return false
		}
		if !more {
			return true
		}
	}
}

// properties reads a properties object, each property an array of
// strings, into names and pieces. A repeated name is refused by build.
func (d *decoder) properties() bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		d.canon = false // json.Marshal omits an empty map
		return true
	}
	for {
		name, ok := d.key()
		if !ok {
			return false
		}
		if n := len(d.names); n > 0 && bytes.Compare(d.bytes(d.pieces[d.names[n-1]]), d.bytes(name)) >= 0 {
			d.canon = false // json.Marshal sorts the names
		}
		d.names = append(d.names, len(d.pieces))
		d.pieces = append(d.pieces, name)
		if !d.values() {
			return false
		}
		more, ok := d.more('}')
		if !ok {
			return false
		}
		if !more {
			return true
		}
	}
}

// object reads an entity object with at most one "id" and one
// "properties" member, and returns the position of its '{'; build makes
// the entity of it, and canon then tells whether its span is
// json.Marshal's bytes of that entity.
func (d *decoder) object() (int, bool) {
	if !d.next('{') {
		return 0, false
	}
	start := d.pos - 1
	d.canon, d.hasID, d.hasProps = true, false, false
	d.pieces, d.names, d.arena = d.pieces[:0], d.names[:0], d.arena[:0]
	if d.next('}') {
		d.canon = false // json.Marshal writes the "id"
		return start, true
	}
	for members := 0; ; members++ {
		k, ok := d.key()
		if !ok {
			return 0, false
		}
		switch string(d.bytes(k)) {
		case "id":
			if d.hasID {
				return 0, false
			}
			d.hasID = true
			if members != 0 {
				d.canon = false // json.Marshal writes the "id" first
			}
			if d.id, ok = d.str(); !ok {
				return 0, false
			}
		case "properties":
			if d.hasProps {
				return 0, false
			}
			d.hasProps = true
			if members != 1 {
				d.canon = false // and "properties" right after it
			}
			if !d.properties() {
				return 0, false
			}
		default:
			return 0, false
		}
		more, ok := d.more('}')
		if !ok {
			return 0, false
		}
		if !more {
			if !d.hasID {
				d.canon = false
			}
			return start, true
		}
	}
}

// build returns the entity object just read, whose strings that need no
// unescaping are substrings of base, which holds data from offset off
// on. It refuses a property named twice, which the map would collapse.
func (d *decoder) build(base string, off int) (*Entity, bool) {
	enc := d.encoded(base, off)
	e := enc.Entity()
	return e, len(e.Properties) == len(enc.props)
}

// entity reads an entity object. Unless keep asks for canonical bytes,
// it returns the entity, its strings substrings of a copy of its span;
// otherwise the decoded entity with its canonical bytes: that copy when
// canon, else recode's.
func (d *decoder) entity() (Encoded, bool) {
	start, ok := d.object()
	if !ok {
		return Encoded{}, false
	}
	span := string(d.data[start:d.pos])
	if d.keep && d.canon {
		return d.encoded(span, start), true
	}
	e, ok := d.build(span, start)
	switch {
	case !ok:
		return Encoded{}, false
	case !d.keep:
		return Encoded{id: e.ID, entity: e}, true
	}
	return recode(e), true
}

// encoded returns the entity object just read as its bytes js, which
// hold data from offset off on, with its properties decoded into no map:
// its strings that need no unescaping are substrings of js, and every
// value shares one array, each property holding a capacity-capped run
// of it. Names repeat only in a span that is not canonical.
func (d *decoder) encoded(js string, off int) Encoded {
	at := func(p piece) string {
		if p.escaped {
			return string(d.arena[p.lo:p.hi])
		}
		return js[p.lo-off : p.hi-off]
	}
	e := Encoded{JSON: js}
	if d.hasID {
		e.id = at(d.id)
	}
	if !d.hasProps {
		return e
	}
	e.props = make([]prop, len(d.names))
	vals := make([]string, 0, len(d.pieces)-len(d.names))
	for i, n := range d.names {
		end := len(d.pieces)
		if i+1 < len(d.names) {
			end = d.names[i+1]
		}
		lo := len(vals)
		for _, p := range d.pieces[n+1 : end] {
			vals = append(vals, at(p))
		}
		e.props[i] = prop{name: at(d.pieces[n]), values: vals[lo:len(vals):len(vals)]}
	}
	return e
}

// list reads an array of entity objects, empty but not nil for [].
func (d *decoder) list() ([]Encoded, bool) {
	if !d.next('[') {
		return nil, false
	}
	// Every object json.Marshal writes for an entity starts {"id":, which
	// no string holds unescaped, so counting it sizes the list of a
	// writer's output exactly, and of any other input as a hint.
	es := make([]Encoded, 0, bytes.Count(d.data[d.pos:], []byte(`{"id":`)))
	if d.next(']') {
		return es, true
	}
	for {
		e, ok := d.entity()
		if !ok {
			return nil, false
		}
		es = append(es, e)
		more, ok := d.more(']')
		if !ok {
			return nil, false
		}
		if !more {
			return es, true
		}
	}
}

// section reads a whole Section, an object whose one member, if any, is
// "entities", and returns its entities (nil without the member).
func (d *decoder) section() ([]Encoded, bool) {
	var es []Encoded
	if !d.next('{') {
		return nil, false
	}
	if !d.next('}') {
		k, ok := d.key()
		if !ok || string(d.bytes(k)) != "entities" {
			return nil, false
		}
		if es, ok = d.list(); !ok || !d.next('}') {
			return nil, false
		}
	}
	return es, d.end()
}

// batch reads a whole Batch: an object with at most one "u" member and
// one "d" member.
func (d *decoder) batch() (upserts []Encoded, deletes []string, ok bool) {
	if !d.next('{') {
		return nil, nil, false
	}
	if !d.next('}') {
		var u, del bool
		for more := true; more; {
			k, ok := d.key()
			if !ok {
				return nil, nil, false
			}
			switch string(d.bytes(k)) {
			case "u":
				if u {
					return nil, nil, false
				}
				u = true
				upserts, ok = d.list()
			case "d":
				if del {
					return nil, nil, false
				}
				del = true
				deletes, ok = d.strings()
			default:
				return nil, nil, false
			}
			if !ok {
				return nil, nil, false
			}
			if more, ok = d.more('}'); !ok {
				return nil, nil, false
			}
		}
	}
	if !d.end() {
		return nil, nil, false
	}
	return upserts, deletes, true
}
