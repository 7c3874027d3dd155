// Package pattern implements the pattern algebra used to describe
// demographic (sub)groups over a set of low-cardinality categorical
// attributes of interest, together with the pattern graph and the
// maximal-uncovered-pattern (MUP) machinery from Asudeh et al.
// (ICDE 2019) that the paper builds on.
//
// A pattern is a vector with one slot per attribute; each slot holds
// either a concrete value index or the wildcard X ("unspecified").
// Pattern X1 over binary attributes {gender, race} matches every object
// whose second attribute equals value 1, regardless of the first.
//
// The pattern graph orders patterns by generality: P is a parent of P'
// when the two agree everywhere except on exactly one attribute that P
// leaves unspecified. A pattern is a maximal uncovered pattern (MUP)
// when fewer than tau objects match it while every parent is covered.
package pattern

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Attribute is one categorical attribute of interest, e.g. gender or race.
// Its cardinality is len(Values); value indices used in patterns and
// object labels refer to positions in Values.
type Attribute struct {
	Name   string
	Values []string
}

// Cardinality returns the number of distinct values of the attribute.
func (a Attribute) Cardinality() int { return len(a.Values) }

// Schema describes the ordered list of attributes of interest.
// The zero value is an empty schema with no attributes.
type Schema struct {
	attrs []Attribute
}

// NewSchema builds a schema from the given attributes. It returns an
// error if there are no attributes, if an attribute has fewer than two
// values, if attribute or value names repeat, or if the pattern
// universe, the product of (cardinality+1) over all attributes, does
// not fit in an int. NumSubgroups and NumPatterns are therefore exact
// for every schema.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, errors.New("pattern: schema needs at least one attribute")
	}
	seen := make(map[string]bool, len(attrs))
	patterns := 1
	for _, a := range attrs {
		if a.Name == "" {
			return nil, errors.New("pattern: attribute with empty name")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("pattern: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) < 2 {
			return nil, fmt.Errorf("pattern: attribute %q needs at least two values", a.Name)
		}
		vseen := make(map[string]bool, len(a.Values))
		for _, v := range a.Values {
			if v == "" {
				return nil, fmt.Errorf("pattern: attribute %q has an empty value name", a.Name)
			}
			if vseen[v] {
				return nil, fmt.Errorf("pattern: attribute %q repeats value %q", a.Name, v)
			}
			vseen[v] = true
		}
		if patterns > math.MaxInt/(a.Cardinality()+1) {
			return nil, fmt.Errorf("pattern: %d attributes make more patterns than an int counts", len(attrs))
		}
		patterns *= a.Cardinality() + 1
	}
	s := &Schema{attrs: make([]Attribute, len(attrs))}
	copy(s.attrs, attrs)
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for
// package-level schema literals in tests and examples.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Binary returns a schema with a single binary attribute, the "single
// binary sensitive attribute" case of the paper (e.g. gender with
// values male and female).
func Binary(name, v0, v1 string) *Schema {
	return MustSchema(Attribute{Name: name, Values: []string{v0, v1}})
}

// NumAttrs returns the number of attributes in the schema.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// ValueIndex returns the index of value v within attribute attr, or an
// error if either name is unknown.
func (s *Schema) ValueIndex(attr, v string) (attrIdx, valIdx int, err error) {
	attrIdx = s.AttrIndex(attr)
	if attrIdx < 0 {
		return -1, -1, fmt.Errorf("pattern: unknown attribute %q", attr)
	}
	for j, name := range s.attrs[attrIdx].Values {
		if name == v {
			return attrIdx, j, nil
		}
	}
	return attrIdx, -1, fmt.Errorf("pattern: attribute %q has no value %q", attr, v)
}

// Cardinalities returns the per-attribute cardinalities.
func (s *Schema) Cardinalities() []int {
	out := make([]int, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Cardinality()
	}
	return out
}

// NumSubgroups returns the number of fully-specified subgroups, the
// product of all attribute cardinalities (m = c1 x c2 x ... x cd).
func (s *Schema) NumSubgroups() int {
	m := 1
	for _, a := range s.attrs {
		m *= a.Cardinality()
	}
	return m
}

// NumPatterns returns the size of the full pattern universe, the
// product of (cardinality+1) over all attributes.
func (s *Schema) NumPatterns() int {
	m := 1
	for _, a := range s.attrs {
		m *= a.Cardinality() + 1
	}
	return m
}

// ValidLabels reports whether the label vector is well formed for the
// schema: one value index per attribute, each within range.
func (s *Schema) ValidLabels(labels []int) bool {
	if len(labels) != len(s.attrs) {
		return false
	}
	for i, v := range labels {
		if v < 0 || v >= s.attrs[i].Cardinality() {
			return false
		}
	}
	return true
}

// String renders the schema as attr1{v,...} attr2{v,...}.
func (s *Schema) String() string {
	var b strings.Builder
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Name)
		b.WriteByte('{')
		b.WriteString(strings.Join(a.Values, ","))
		b.WriteByte('}')
	}
	return b.String()
}
