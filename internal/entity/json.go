package entity

import (
	"encoding/json"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The entity JSON decoder: the one reader of entities, entity lists and
// the two wrappers the service persists (Section, Batch), all of which
// are written by json.Marshal. It returns what json.Unmarshal returns,
// and an error exactly when it does, for every input. Entity has no
// MarshalJSON or UnmarshalJSON method, so encoding/json stays an
// independent implementation the tests hold the decoder to.
//
// The decoder makes one pass over the canonical shape json.Marshal
// emits — an object with at most one "id" string and at most one
// "properties" object of string arrays, with distinct property names,
// and wrappers holding only their own keys — decoding string escapes
// itself. Anything else (an unknown, case-variant or duplicate key, a
// null, a non-string value, a syntax error, trailing bytes) is handed,
// as it is, to json.Unmarshal, whose result and error are returned.
// Decoded strings are copies: nothing aliases the input buffer.

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

// DecodeJSON returns the entity json.Unmarshal decodes from data into a
// zero Entity, and its error.
func DecodeJSON(data []byte) (*Entity, error) {
	d := decoder{data: data}
	if e, ok := d.entity(); ok && d.end() {
		return e, nil
	}
	var e Entity
	err := json.Unmarshal(data, &e)
	return &e, err
}

// DecodeJSONList returns the list json.Unmarshal decodes from data into
// a nil []*Entity, and its error.
func DecodeJSONList(data []byte) ([]*Entity, error) {
	d := decoder{data: data}
	if es, ok := d.list(); ok && d.end() {
		return es, nil
	}
	var es []*Entity
	err := json.Unmarshal(data, &es)
	return es, err
}

// DecodeJSON sets s to what json.Unmarshal decodes from data into a zero
// Section and returns its error.
func (s *Section) DecodeJSON(data []byte) error {
	d := decoder{data: data}
	if d.section(s) {
		return nil
	}
	*s = Section{}
	return json.Unmarshal(data, s)
}

// DecodeJSON sets b to what json.Unmarshal decodes from data into a zero
// Batch and returns its error.
func (b *Batch) DecodeJSON(data []byte) error {
	d := decoder{data: data}
	if d.batch(b) {
		return nil
	}
	*b = Batch{}
	return json.Unmarshal(data, b)
}

// decoder is one pass of the canonical-shape decoder over data. Every
// method reports false where the input leaves that shape; the caller
// then hands the whole input to json.Unmarshal.
type decoder struct {
	data []byte
	pos  int
	// buf holds a string being unescaped; vals collects a value array
	// before it is copied out at its exact length.
	buf  []byte
	vals []string
	// names interns property names: a corpus repeats a few.
	names map[string]string
}

// skip advances past JSON whitespace.
func (d *decoder) skip() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
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

// rawString reads a string and returns its unescaped bytes, which stay
// valid until the next call: a sub-slice of data when the string needs
// no unescaping, else buf.
func (d *decoder) rawString() ([]byte, bool) {
	d.skip()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	for i := start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], true
		case c == '\\' || c < ' ':
			return d.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start, i)
			}
			i += size
		}
	}
	return nil, false
}

// unescape decodes the string starting at start, whose bytes before i
// need no unescaping, as json.Unmarshal does: the escapes JSON defines,
// a surrogate pair of six-byte escapes as one rune and any other
// surrogate as U+FFFD, and each byte of invalid UTF-8 as U+FFFD. A
// control character, an unknown escape or a missing closing quote is a
// syntax error, left to json.Unmarshal.
func (d *decoder) unescape(start, i int) ([]byte, bool) {
	b := append(d.buf[:0], d.data[start:i]...)
	data := d.data
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos, d.buf = i+1, b
			return b, true
		case c == '\\':
			if i+1 >= len(data) {
				return nil, false
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
					return nil, false
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
				return nil, false
			}
			i += 2
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return nil, false
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

// str reads a string value as a fresh copy.
func (d *decoder) str() (string, bool) {
	b, ok := d.rawString()
	return string(b), ok
}

// key reads an object key followed by its colon.
func (d *decoder) key() ([]byte, bool) {
	k, ok := d.rawString()
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

// strings reads an array of strings, empty but not nil for [].
func (d *decoder) strings() ([]string, bool) {
	if !d.next('[') {
		return nil, false
	}
	d.vals = d.vals[:0]
	if !d.next(']') {
		for {
			v, ok := d.str()
			if !ok {
				return nil, false
			}
			d.vals = append(d.vals, v)
			more, ok := d.more(']')
			if !ok {
				return nil, false
			}
			if !more {
				break
			}
		}
	}
	return append(make([]string, 0, len(d.vals)), d.vals...), true
}

// properties reads a properties object: distinct names, each holding
// an array of strings.
func (d *decoder) properties() (map[string][]string, bool) {
	if !d.next('{') {
		return nil, false
	}
	props := make(map[string][]string)
	if d.next('}') {
		return props, true
	}
	if d.names == nil {
		d.names = make(map[string]string)
	}
	for {
		raw, ok := d.key()
		if !ok {
			return nil, false
		}
		name, interned := d.names[string(raw)]
		if !interned {
			name = string(raw)
			d.names[name] = name
		}
		if _, dup := props[name]; dup {
			return nil, false
		}
		if props[name], ok = d.strings(); !ok {
			return nil, false
		}
		more, ok := d.more('}')
		if !ok {
			return nil, false
		}
		if !more {
			return props, true
		}
	}
}

// entity reads an entity object with at most one "id" and one
// "properties" member.
func (d *decoder) entity() (*Entity, bool) {
	if !d.next('{') {
		return nil, false
	}
	e := &Entity{}
	if d.next('}') {
		return e, true
	}
	var id, props bool
	for {
		k, ok := d.key()
		if !ok {
			return nil, false
		}
		switch string(k) {
		case "id":
			if id {
				return nil, false
			}
			id = true
			if e.ID, ok = d.str(); !ok {
				return nil, false
			}
		case "properties":
			if props {
				return nil, false
			}
			props = true
			if e.Properties, ok = d.properties(); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
		more, ok := d.more('}')
		if !ok {
			return nil, false
		}
		if !more {
			return e, true
		}
	}
}

// list reads an array of entity objects, empty but not nil for [].
func (d *decoder) list() ([]*Entity, bool) {
	if !d.next('[') {
		return nil, false
	}
	es := []*Entity{}
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

// section reads a whole Section: an object whose one member, if any, is
// "entities".
func (d *decoder) section(s *Section) bool {
	var out Section
	if !d.next('{') {
		return false
	}
	if !d.next('}') {
		k, ok := d.key()
		if !ok || string(k) != "entities" {
			return false
		}
		if out.Entities, ok = d.list(); !ok || !d.next('}') {
			return false
		}
	}
	if !d.end() {
		return false
	}
	*s = out
	return true
}

// batch reads a whole Batch: an object with at most one "u" member and
// one "d" member.
func (d *decoder) batch(b *Batch) bool {
	var out Batch
	if !d.next('{') {
		return false
	}
	if !d.next('}') {
		var u, del bool
		for more := true; more; {
			k, ok := d.key()
			if !ok {
				return false
			}
			switch string(k) {
			case "u":
				if u {
					return false
				}
				u = true
				out.Upserts, ok = d.list()
			case "d":
				if del {
					return false
				}
				del = true
				out.Deletes, ok = d.strings()
			default:
				return false
			}
			if !ok {
				return false
			}
			if more, ok = d.more('}'); !ok {
				return false
			}
		}
	}
	if !d.end() {
		return false
	}
	*b = out
	return true
}
