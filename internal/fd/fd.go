// Package fd implements the constraint layer: functional dependencies and
// their conditional extension, the paper's distance function over constraint
// projections (Eq. 1-2), the classic equality-based violation semantics, and
// the fault-tolerant (FT-) violation semantics with automatic threshold
// selection.
package fd

import (
	"fmt"
	"slices"
	"strings"

	"ftrepair/internal/dataset"
)

// FD is a functional dependency X -> Y over a schema, with attributes
// referenced by position.
type FD struct {
	Name   string // optional label, e.g. "phi2"
	Schema *dataset.Schema
	LHS    []int // X
	RHS    []int // Y
	attrs  []int // X followed by Y, cached
}

// New builds an FD from attribute names. LHS and RHS must be non-empty and
// disjoint.
func New(schema *dataset.Schema, name string, lhs, rhs []string) (*FD, error) {
	if len(lhs) == 0 || len(rhs) == 0 {
		return nil, fmt.Errorf("fd: %s: LHS and RHS must be non-empty", name)
	}
	l, err := schema.Indices(lhs...)
	if err != nil {
		return nil, fmt.Errorf("fd: %s: %w", name, err)
	}
	r, err := schema.Indices(rhs...)
	if err != nil {
		return nil, fmt.Errorf("fd: %s: %w", name, err)
	}
	seen := make(map[int]bool)
	for _, c := range l {
		if seen[c] {
			return nil, fmt.Errorf("fd: %s: duplicate attribute in LHS", name)
		}
		seen[c] = true
	}
	for _, c := range r {
		if seen[c] {
			return nil, fmt.Errorf("fd: %s: attribute appears twice (LHS/RHS must be disjoint)", name)
		}
		seen[c] = true
	}
	f := &FD{Name: name, Schema: schema, LHS: l, RHS: r}
	f.attrs = append(append([]int{}, l...), r...)
	return f, nil
}

// Parse builds an FD from a spec of the form "City,Street->District". An
// optional "name:" prefix labels the FD.
func Parse(schema *dataset.Schema, spec string) (*FD, error) {
	name := ""
	body := spec
	if i := strings.Index(spec, ":"); i >= 0 && !strings.Contains(spec[:i], "->") {
		name = strings.TrimSpace(spec[:i])
		body = spec[i+1:]
	}
	parts := strings.SplitN(body, "->", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("fd: spec %q missing \"->\"", spec)
	}
	lhs := splitAttrs(parts[0])
	rhs := splitAttrs(parts[1])
	if name == "" {
		name = strings.TrimSpace(body)
	}
	return New(schema, name, lhs, rhs)
}

// MustParse is Parse that panics on error, for statically known specs.
func MustParse(schema *dataset.Schema, spec string) *FD {
	f, err := Parse(schema, spec)
	if err != nil {
		panic(err)
	}
	return f
}

func splitAttrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Attrs returns the attribute positions of X followed by Y. Callers must not
// modify the returned slice.
func (f *FD) Attrs() []int { return f.attrs }

// UnionAttrs returns the distinct attributes of the FDs, ascending.
func UnionAttrs(fds []*FD) []int {
	var out []int
	for _, f := range fds {
		out = append(out, f.attrs...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// String renders the FD as "Name: [A,B] -> [C]".
func (f *FD) String() string {
	names := func(cols []int) string {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = f.Schema.Attr(c).Name
		}
		return strings.Join(parts, ",")
	}
	s := fmt.Sprintf("[%s] -> [%s]", names(f.LHS), names(f.RHS))
	if f.Name != "" && f.Name != s {
		return f.Name + ": " + s
	}
	return s
}

// SharesAttrs reports whether two FDs have a common attribute (over X ∪ Y),
// the condition under which they must be repaired jointly (§4.1).
func (f *FD) SharesAttrs(g *FD) bool {
	set := make(map[int]bool, len(f.attrs))
	for _, c := range f.attrs {
		set[c] = true
	}
	for _, c := range g.attrs {
		if set[c] {
			return true
		}
	}
	return false
}

// Violates reports the classic FD violation: equal on X, different on Y.
func (f *FD) Violates(t1, t2 dataset.Tuple) bool {
	for _, c := range f.LHS {
		if t1[c] != t2[c] {
			return false
		}
	}
	for _, c := range f.RHS {
		if t1[c] != t2[c] {
			return true
		}
	}
	return false
}

// ProjEqual reports whether the two tuples agree on every attribute of the
// FD (t1^phi == t2^phi).
func (f *FD) ProjEqual(t1, t2 dataset.Tuple) bool {
	for _, c := range f.attrs {
		if t1[c] != t2[c] {
			return false
		}
	}
	return true
}
