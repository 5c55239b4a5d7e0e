package rule

import (
	"encoding/json"
	"encoding/xml"
	"fmt"

	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// node is the serialization schema shared by the JSON and XML encodings:
// a discriminated union over the four operator kinds.
type node struct {
	XMLName   xml.Name `json:"-"          xml:"Operator"`
	Kind      string   `json:"kind"       xml:"kind,attr"`
	Property  string   `json:"property,omitempty"  xml:"property,attr,omitempty"`
	Function  string   `json:"function,omitempty"  xml:"function,attr,omitempty"`
	Threshold float64  `json:"threshold,omitempty" xml:"threshold,attr,omitempty"`
	Weight    int      `json:"weight,omitempty"    xml:"weight,attr,omitempty"`
	Children  []*node  `json:"children,omitempty"  xml:"Operator"`
}

const (
	kindProperty    = "property"
	kindTransform   = "transform"
	kindComparison  = "comparison"
	kindAggregation = "aggregation"
)

func encodeSim(op SimilarityOp) *node {
	switch o := op.(type) {
	case *ComparisonOp:
		return &node{
			Kind:      kindComparison,
			Function:  o.Measure.Name(),
			Threshold: o.Threshold,
			Weight:    o.W,
			Children:  []*node{encodeValue(o.InputA), encodeValue(o.InputB)},
		}
	case *AggregationOp:
		n := &node{Kind: kindAggregation, Function: o.Function.Name(), Weight: o.W}
		for _, child := range o.Operands {
			n.Children = append(n.Children, encodeSim(child))
		}
		return n
	default:
		return nil
	}
}

func encodeValue(op ValueOp) *node {
	switch o := op.(type) {
	case *PropertyOp:
		return &node{Kind: kindProperty, Property: o.Property}
	case *TransformOp:
		n := &node{Kind: kindTransform, Function: o.Function.Name()}
		for _, child := range o.Inputs {
			n.Children = append(n.Children, encodeValue(child))
		}
		return n
	default:
		return nil
	}
}

// decodeSim and decodeValue map a null child to a nil operator, which
// Validate rejects.
func decodeSim(n *node) (SimilarityOp, error) {
	if n == nil {
		return nil, nil
	}
	switch n.Kind {
	case kindComparison:
		if len(n.Children) != 2 {
			return nil, fmt.Errorf("rule: comparison needs 2 children, has %d", len(n.Children))
		}
		m := similarity.ByName(n.Function)
		if m == nil {
			return nil, fmt.Errorf("rule: unknown distance measure %q", n.Function)
		}
		a, err := decodeValue(n.Children[0])
		if err != nil {
			return nil, err
		}
		b, err := decodeValue(n.Children[1])
		if err != nil {
			return nil, err
		}
		w := n.Weight
		if w == 0 {
			w = 1
		}
		return &ComparisonOp{InputA: a, InputB: b, Measure: m, Threshold: n.Threshold, W: w}, nil
	case kindAggregation:
		fn := AggregatorByName(n.Function)
		if fn == nil {
			return nil, fmt.Errorf("rule: unknown aggregator %q", n.Function)
		}
		agg := &AggregationOp{Function: fn, W: n.Weight}
		if agg.W == 0 {
			agg.W = 1
		}
		for _, child := range n.Children {
			op, err := decodeSim(child)
			if err != nil {
				return nil, err
			}
			agg.Operands = append(agg.Operands, op)
		}
		return agg, nil
	default:
		return nil, fmt.Errorf("rule: expected similarity operator, got kind %q", n.Kind)
	}
}

func decodeValue(n *node) (ValueOp, error) {
	if n == nil {
		return nil, nil
	}
	switch n.Kind {
	case kindProperty:
		return &PropertyOp{Property: n.Property}, nil
	case kindTransform:
		fn := transform.ByName(n.Function)
		if fn == nil {
			return nil, fmt.Errorf("rule: unknown transformation %q", n.Function)
		}
		tr := &TransformOp{Function: fn}
		for _, child := range n.Children {
			op, err := decodeValue(child)
			if err != nil {
				return nil, err
			}
			tr.Inputs = append(tr.Inputs, op)
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("rule: expected value operator, got kind %q", n.Kind)
	}
}

// MarshalJSON implements json.Marshaler.
func (r *Rule) MarshalJSON() ([]byte, error) {
	if r == nil || r.Root == nil {
		return []byte("null"), nil
	}
	return json.Marshal(encodeSim(r.Root))
}

// UnmarshalJSON implements json.Unmarshaler. It refuses null and every
// rule Validate rejects, leaving r unchanged.
func (r *Rule) UnmarshalJSON(data []byte) error {
	var n *node
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	return r.decode(n)
}

// decode builds the rule encoded by n (nil for an empty encoding) and
// stores it in r if it passes Validate. Every decoding path ends here, so
// Validate is the one check of rule shape a decoded rule gets.
func (r *Rule) decode(n *node) error {
	var d Rule
	if n != nil {
		root, err := decodeSim(n)
		if err != nil {
			return err
		}
		d.Root = root
	}
	if err := d.Validate(); err != nil {
		return err
	}
	*r = d
	return nil
}

// MarshalXML encodes the rule as a <LinkageRule> element, loosely following
// the Silk Link Specification Language style.
func (r *Rule) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	start.Name.Local = "LinkageRule"
	if err := e.EncodeToken(start); err != nil {
		return err
	}
	if r != nil && r.Root != nil {
		if err := e.Encode(encodeSim(r.Root)); err != nil {
			return err
		}
	}
	return e.EncodeToken(start.End())
}

// UnmarshalXML decodes a <LinkageRule> element. Like UnmarshalJSON it
// refuses an empty element and every rule Validate rejects.
func (r *Rule) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	var wrapper struct {
		Root *node `xml:"Operator"`
	}
	if err := d.DecodeElement(&wrapper, &start); err != nil {
		return err
	}
	return r.decode(wrapper.Root)
}

// ParseJSON decodes a rule from its JSON encoding and validates it.
func ParseJSON(data []byte) (*Rule, error) {
	var r Rule
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// ParseXML decodes a rule from its XML encoding and validates it.
func ParseXML(data []byte) (*Rule, error) {
	var r Rule
	if err := xml.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
