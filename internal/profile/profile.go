// Package profile computes lightweight column statistics over a relation:
// inferred domain types (so CSV loading doesn't need a hand-written type
// spec), distinct counts, value-length statistics, and candidate keys. The
// repair pipeline uses it to configure distances, and the CLI to infer
// column types.
package profile

import (
	"sort"

	"ftrepair/internal/dataset"
)

// Column is one attribute's profile.
type Column struct {
	Name string
	// Inferred is the domain type inference: Numeric when at least
	// NumericThreshold of the non-empty values parse as numbers and the
	// column is not identifier-shaped (see identifierShaped).
	Inferred dataset.Type
	// Distinct counts distinct values; Nulls counts empty cells.
	Distinct int
	Nulls    int
	// MinLen/MaxLen/AvgLen are value-length statistics in runes (over
	// non-empty values).
	MinLen, MaxLen int
	AvgLen         float64
	// MaxMult is the largest value multiplicity.
	MaxMult int
	// IsKey reports whether every non-empty value is unique.
	IsKey bool
}

// NumericThreshold is the fraction of parseable values required to infer a
// numeric column.
const NumericThreshold = 0.95

// Columns profiles every attribute of rel.
func Columns(rel *dataset.Relation) []Column {
	n := rel.Schema.Len()
	out := make([]Column, n)
	for c := 0; c < n; c++ {
		out[c] = profileColumn(rel, c)
	}
	return out
}

func profileColumn(rel *dataset.Relation, col int) Column {
	p := Column{Name: rel.Schema.Attr(col).Name, MinLen: -1}
	counts := make(map[string]int)
	numeric := 0
	nonEmpty := 0
	totalLen := 0
	for _, t := range rel.Tuples {
		v := t[col]
		if v == "" {
			p.Nulls++
			continue
		}
		nonEmpty++
		counts[v]++
		l := len([]rune(v))
		totalLen += l
		if p.MinLen < 0 || l < p.MinLen {
			p.MinLen = l
		}
		if l > p.MaxLen {
			p.MaxLen = l
		}
		if _, err := dataset.ParseFloat(v); err == nil {
			numeric++
		}
	}
	p.Distinct = len(counts)
	for _, c := range counts {
		if c > p.MaxMult {
			p.MaxMult = c
		}
	}
	if p.MinLen < 0 {
		p.MinLen = 0
	}
	if nonEmpty > 0 {
		p.AvgLen = float64(totalLen) / float64(nonEmpty)
		if float64(numeric)/float64(nonEmpty) >= NumericThreshold && !identifierShaped(counts, nonEmpty) {
			p.Inferred = dataset.Numeric
		}
		p.IsKey = p.MaxMult == 1
	}
	return p
}

// identifierShaped reports whether the values look like fixed-width digit
// identifiers (zip codes, provider numbers, phones, area codes): digit
// strings of one width of at least 3 fill at least NumericThreshold of the
// nonEmpty cells that counts tallies. Such columns parse as numbers but
// compare meaningfully as strings — Euclidean distance between zip codes
// is noise. The few off-width cells are typos in an identifier, not
// evidence of a numeric domain: read as numbers, one inserted digit would
// stretch the column's range until distinct identifiers fall within τ.
func identifierShaped(counts map[string]int, nonEmpty int) bool {
	byWidth := make(map[int]int)
	for v, n := range counts {
		if len(v) >= 3 && allDigits(v) {
			byWidth[len(v)] += n
		}
	}
	for _, n := range byWidth {
		if float64(n)/float64(nonEmpty) >= NumericThreshold {
			return true
		}
	}
	return false
}

// allDigits reports whether v is made of ASCII digits only.
func allDigits(v string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return false
		}
	}
	return true
}

// InferTypes returns the inferred type per attribute, suitable for
// re-reading a CSV with typed columns.
func InferTypes(rel *dataset.Relation) []dataset.Type {
	cols := Columns(rel)
	out := make([]dataset.Type, len(cols))
	for i, c := range cols {
		out[i] = c.Inferred
	}
	return out
}

// Retype returns a copy of rel whose schema carries the inferred types.
// Cells of a column inferred numeric that do not parse keep their string
// value; the distance layer compares them as strings.
func Retype(rel *dataset.Relation) *dataset.Relation {
	types := InferTypes(rel)
	attrs := make([]dataset.Attribute, rel.Schema.Len())
	changed := false
	for i := range attrs {
		attrs[i] = dataset.Attribute{Name: rel.Schema.Attr(i).Name, Type: types[i]}
		if types[i] != rel.Schema.Attr(i).Type {
			changed = true
		}
	}
	if !changed {
		return rel
	}
	schema := dataset.MustSchema(attrs...)
	out := dataset.NewRelation(schema)
	out.Tuples = make([]dataset.Tuple, len(rel.Tuples))
	for i, t := range rel.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// CandidateKeys lists single attributes and attribute pairs whose values
// uniquely identify tuples (no duplicates among non-empty projections),
// smallest first. Pairs are only reported when neither member is a key by
// itself.
func CandidateKeys(rel *dataset.Relation) [][]int {
	n := rel.Schema.Len()
	var keys [][]int
	single := make([]bool, n)
	for c := 0; c < n; c++ {
		if uniqueOn(rel, []int{c}) {
			keys = append(keys, []int{c})
			single[c] = true
		}
	}
	for a := 0; a < n; a++ {
		if single[a] {
			continue
		}
		for b := a + 1; b < n; b++ {
			if single[b] {
				continue
			}
			if uniqueOn(rel, []int{a, b}) {
				keys = append(keys, []int{a, b})
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		for k := range keys[i] {
			if keys[i][k] != keys[j][k] {
				return keys[i][k] < keys[j][k]
			}
		}
		return false
	})
	return keys
}

func uniqueOn(rel *dataset.Relation, cols []int) bool {
	if rel.Len() == 0 {
		return false
	}
	seen := make(map[string]bool, rel.Len())
	for _, t := range rel.Tuples {
		k := t.Key(cols)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}
