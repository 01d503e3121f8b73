// Package dataset provides the relational substrate used by the repair
// library: typed schemas, tuples, relations with active-domain and numeric
// range computation, cell addressing, and database diffing.
//
// Cells are stored as strings; the schema records which attributes are
// numeric so that distance functions can parse and normalize them. This
// mirrors the paper's setting where a table mixes string attributes (City,
// Street, ...) and numeric ones (Level).
package dataset

import (
	"fmt"
	"sort"
	"strings"
)

// Type is the domain type of an attribute.
type Type uint8

const (
	// String attributes compare with normalized edit distance.
	String Type = iota
	// Numeric attributes compare with normalized Euclidean distance.
	Numeric
)

// String returns a human-readable name for the type.
func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Attribute is a named, typed column.
type Attribute struct {
	Name string
	Type Type
}

// Schema is an ordered list of attributes with fast name lookup.
// The zero value is an empty schema; use NewSchema to construct one.
type Schema struct {
	attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs: append([]Attribute(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute %q", a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests,
// examples and generators with statically known attribute lists.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Strings builds a schema of all-string attributes from names.
func Strings(names ...string) *Schema {
	attrs := make([]Attribute, len(names))
	for i, n := range names {
		attrs[i] = Attribute{Name: n, Type: String}
	}
	return MustSchema(attrs...)
}

// Len reports the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named attribute and panics if the
// attribute does not exist. Use when the name is statically known.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	return i
}

// Indices maps attribute names to positions, failing on the first unknown
// name.
func (s *Schema) Indices(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("dataset: unknown attribute %q", n)
		}
		out[i] = idx
	}
	return out, nil
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// Tuple is a row: one string cell per schema attribute.
type Tuple []string

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// keySep separates cell values inside projection keys. Values containing
// NUL or the escape byte are escaped so keys stay injective even on
// adversarial data.
const (
	keySep    = "\x00"
	keyEscape = "\x01"
)

// escapeKeyPart makes a cell value safe inside a key. The fast path (no
// NUL, no escape byte) returns the value unchanged.
func escapeKeyPart(v string) string {
	if !strings.ContainsAny(v, keySep+keyEscape) {
		return v
	}
	v = strings.ReplaceAll(v, keyEscape, keyEscape+"\x02")
	return strings.ReplaceAll(v, keySep, keyEscape+"\x03")
}

// Key builds a canonical key for the projection of t onto cols. Two tuples
// have equal keys iff they agree on every projected cell.
func (t Tuple) Key(cols []int) string {
	switch len(cols) {
	case 0:
		return ""
	case 1:
		return escapeKeyPart(t[cols[0]])
	}
	var b strings.Builder
	n := len(cols) - 1
	for _, c := range cols {
		n += len(t[c])
	}
	b.Grow(n)
	for i, c := range cols {
		if i > 0 {
			b.WriteString(keySep)
		}
		b.WriteString(escapeKeyPart(t[c]))
	}
	return b.String()
}

// Project copies the projected cells of t onto cols.
func (t Tuple) Project(cols []int) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Cell addresses one value in a relation.
type Cell struct {
	Row int // tuple index
	Col int // attribute index
}

// Relation is an instance of a schema: an ordered bag of tuples.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation builds an empty relation over the schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// FromRows builds a relation from raw rows, validating arity and numeric
// cells.
func FromRows(s *Schema, rows [][]string) (*Relation, error) {
	r := NewRelation(s)
	for i, row := range rows {
		if err := r.Append(Tuple(row)); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return r, nil
}

// Append validates t against the schema and adds it to the relation.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("dataset: tuple has %d cells, schema has %d attributes", len(t), r.Schema.Len())
	}
	for i, v := range t {
		if r.Schema.Attr(i).Type == Numeric && v != "" {
			// Empty cells are nulls and allowed in numeric columns; the
			// distance layer compares them as strings.
			if _, err := ParseFloat(v); err != nil {
				return fmt.Errorf("dataset: attribute %q: %q is not numeric", r.Schema.Attr(i).Name, v)
			}
		}
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// Len reports the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone deep-copies the relation (the schema is shared; schemas are
// immutable after construction).
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema, Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// Get returns the value at the cell.
func (r *Relation) Get(c Cell) string { return r.Tuples[c.Row][c.Col] }

// Set overwrites the value at the cell.
func (r *Relation) Set(c Cell, v string) { r.Tuples[c.Row][c.Col] = v }

// ActiveDomain returns the distinct values of the attribute in sorted order.
// The closed-world repair model restricts repaired values to this set.
func (r *Relation) ActiveDomain(col int) []string {
	seen := make(map[string]struct{})
	for _, t := range r.Tuples {
		seen[t[col]] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// NumericRange returns the min and max of a numeric attribute's values
// that ParseFloat accepts, for normalizing Euclidean distances into [0,1];
// nulls and other cells it refuses do not count. It returns ok=false when
// the attribute is not numeric or no cell parses.
func (r *Relation) NumericRange(col int) (min, max float64, ok bool) {
	if r.Schema.Attr(col).Type != Numeric {
		return 0, 0, false
	}
	for _, t := range r.Tuples {
		v, err := ParseFloat(t[col])
		if err != nil {
			continue
		}
		if !ok || v < min {
			min = v
		}
		if !ok || v > max {
			max = v
		}
		ok = true
	}
	return min, max, ok
}

// Diff returns the cells at which a and b differ, in row-major order. The
// relations must have the same schema and cardinality; repairs never insert
// or delete tuples.
func Diff(a, b *Relation) ([]Cell, error) {
	if a.Schema != b.Schema && !sameSchema(a.Schema, b.Schema) {
		return nil, fmt.Errorf("dataset: diff across different schemas")
	}
	if len(a.Tuples) != len(b.Tuples) {
		return nil, fmt.Errorf("dataset: diff across different cardinalities (%d vs %d)", len(a.Tuples), len(b.Tuples))
	}
	var cells []Cell
	for i := range a.Tuples {
		for j := range a.Tuples[i] {
			if a.Tuples[i][j] != b.Tuples[i][j] {
				cells = append(cells, Cell{Row: i, Col: j})
			}
		}
	}
	return cells, nil
}

func sameSchema(a, b *Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Attr(i) != b.Attr(i) {
			return false
		}
	}
	return true
}
