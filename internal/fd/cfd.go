package fd

import (
	"fmt"
	"strings"

	"ftrepair/internal/dataset"
)

// Wildcard is the unconstrained pattern symbol in a CFD tableau.
const Wildcard = "_"

// PatternRow is one row of a CFD pattern tableau: a pattern value (constant
// or Wildcard) per LHS attribute followed by one per RHS attribute.
type PatternRow struct {
	LHS []string
	RHS []string
}

// CFD is a conditional functional dependency: an embedded FD plus a pattern
// tableau restricting which tuples it constrains (Fan et al., TODS 2008; the
// paper states its model and algorithms extend to CFDs, which is realized
// here by restricting the relation to pattern-matching tuples and repairing
// the embedded FD on the restriction).
type CFD struct {
	Embedded *FD
	Tableau  []PatternRow
}

// NewCFD validates tableau arity against the embedded FD.
func NewCFD(f *FD, tableau []PatternRow) (*CFD, error) {
	if len(tableau) == 0 {
		return nil, fmt.Errorf("fd: CFD %s has empty tableau", f)
	}
	for i, row := range tableau {
		if len(row.LHS) != len(f.LHS) || len(row.RHS) != len(f.RHS) {
			return nil, fmt.Errorf("fd: CFD %s tableau row %d has arity %d/%d, want %d/%d",
				f, i, len(row.LHS), len(row.RHS), len(f.LHS), len(f.RHS))
		}
	}
	return &CFD{Embedded: f, Tableau: tableau}, nil
}

// ParseCFD parses "City->State | NYC,_" style specs: an FD spec, a '|', and
// one or more ';'-separated tableau rows, each a comma-separated list of LHS
// patterns followed by RHS patterns.
func ParseCFD(schema *dataset.Schema, spec string) (*CFD, error) {
	parts := strings.SplitN(spec, "|", 2)
	f, err := Parse(schema, strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		// No tableau: a plain FD is a CFD with an all-wildcard row.
		row := PatternRow{LHS: make([]string, len(f.LHS)), RHS: make([]string, len(f.RHS))}
		for i := range row.LHS {
			row.LHS[i] = Wildcard
		}
		for i := range row.RHS {
			row.RHS[i] = Wildcard
		}
		return NewCFD(f, []PatternRow{row})
	}
	var tableau []PatternRow
	for _, rowSpec := range strings.Split(parts[1], ";") {
		vals := strings.Split(rowSpec, ",")
		if len(vals) != len(f.LHS)+len(f.RHS) {
			return nil, fmt.Errorf("fd: CFD row %q has %d patterns, want %d", rowSpec, len(vals), len(f.LHS)+len(f.RHS))
		}
		for i := range vals {
			vals[i] = strings.TrimSpace(vals[i])
		}
		tableau = append(tableau, PatternRow{
			LHS: vals[:len(f.LHS)],
			RHS: vals[len(f.LHS):],
		})
	}
	return NewCFD(f, tableau)
}

// matchesLHS reports whether t matches the constants of the row's LHS
// pattern.
func (c *CFD) matchesLHS(row PatternRow, t dataset.Tuple) bool {
	for i, col := range c.Embedded.LHS {
		if row.LHS[i] != Wildcard && t[col] != row.LHS[i] {
			return false
		}
	}
	return true
}

// MatchRow returns the index of the first tableau row whose LHS constants
// match t, or -1 when t is unconstrained by this CFD.
func (c *CFD) MatchRow(t dataset.Tuple) int {
	for i, row := range c.Tableau {
		if c.matchesLHS(row, t) {
			return i
		}
	}
	return -1
}

// SingleViolates reports whether t alone violates a tableau row with RHS
// constants (t matches the LHS pattern but disagrees with an RHS constant).
func (c *CFD) SingleViolates(t dataset.Tuple) bool {
	for _, row := range c.Tableau {
		if !c.matchesLHS(row, t) {
			continue
		}
		for i, col := range c.Embedded.RHS {
			if row.RHS[i] != Wildcard && t[col] != row.RHS[i] {
				return true
			}
		}
	}
	return false
}

// Violates reports the classic pairwise CFD violation: both tuples match
// the same row's LHS pattern, agree on X, and differ on Y.
func (c *CFD) Violates(t1, t2 dataset.Tuple) bool {
	for _, row := range c.Tableau {
		if c.matchesLHS(row, t1) && c.matchesLHS(row, t2) && c.Embedded.Violates(t1, t2) {
			return true
		}
	}
	return false
}

// Restrict returns the sub-relation of tuples constrained by the CFD along
// with their original row indices, so a repair of the restriction can be
// written back. The sub-relation's rows are rel's own row slices, not
// copies: treat them as read-only (the repair algorithms never modify
// their input), and Clone the sub-relation before mutating it.
func (c *CFD) Restrict(rel *dataset.Relation) (*dataset.Relation, []int) {
	sub := dataset.NewRelation(rel.Schema)
	var rows []int
	for i, t := range rel.Tuples {
		if c.MatchRow(t) >= 0 {
			sub.Tuples = append(sub.Tuples, t)
			rows = append(rows, i)
		}
	}
	return sub, rows
}
