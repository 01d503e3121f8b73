package fd_test

import (
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

func TestParseCFD(t *testing.T) {
	schema := dataset.Strings("City", "AC", "State")
	c, err := fd.ParseCFD(schema, "City -> State | NYC, NY; _, _")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tableau) != 2 {
		t.Fatalf("tableau rows = %d", len(c.Tableau))
	}
	if c.Tableau[0].LHS[0] != "NYC" || c.Tableau[0].RHS[0] != "NY" {
		t.Fatalf("row 0 = %+v", c.Tableau[0])
	}
	// Plain FD spec becomes an all-wildcard CFD.
	c2, err := fd.ParseCFD(schema, "City -> State")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Tableau[0].LHS[0] != fd.Wildcard || c2.Tableau[0].RHS[0] != fd.Wildcard {
		t.Fatalf("wildcard row = %+v", c2.Tableau[0])
	}
}

func TestParseCFDErrors(t *testing.T) {
	schema := dataset.Strings("City", "State")
	if _, err := fd.ParseCFD(schema, "City -> State | NYC"); err == nil {
		t.Fatal("short tableau row accepted")
	}
	if _, err := fd.ParseCFD(schema, "Bogus -> State | _, _"); err == nil {
		t.Fatal("bad embedded FD accepted")
	}
}

func TestNewCFDValidation(t *testing.T) {
	schema := dataset.Strings("City", "State")
	f := fd.MustParse(schema, "City->State")
	if _, err := fd.NewCFD(f, nil); err == nil {
		t.Fatal("empty tableau accepted")
	}
	if _, err := fd.NewCFD(f, []fd.PatternRow{{LHS: []string{"a", "b"}, RHS: []string{"c"}}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestCFDSemantics(t *testing.T) {
	schema := dataset.Strings("City", "State")
	rel, _ := dataset.FromRows(schema, [][]string{
		{"NYC", "NY"},
		{"NYC", "CA"},    // pairwise violation with row 0, and single violation of the constant row
		{"Boston", "MA"}, // unconstrained by the constant row
	})
	c, err := fd.ParseCFD(schema, "City -> State | NYC, NY")
	if err != nil {
		t.Fatal(err)
	}
	if c.MatchRow(rel.Tuples[0]) != 0 {
		t.Fatal("t0 should match")
	}
	if c.MatchRow(rel.Tuples[2]) != -1 {
		t.Fatal("Boston should not match the NYC row")
	}
	if c.SingleViolates(rel.Tuples[0]) {
		t.Fatal("(NYC,NY) should satisfy the constant row")
	}
	if !c.SingleViolates(rel.Tuples[1]) {
		t.Fatal("(NYC,CA) should violate the constant row")
	}
	if !c.Violates(rel.Tuples[0], rel.Tuples[1]) {
		t.Fatal("pairwise violation missed")
	}
	if c.Violates(rel.Tuples[0], rel.Tuples[2]) {
		t.Fatal("unconstrained pair flagged")
	}
	sub, rows := c.Restrict(rel)
	if sub.Len() != 2 || rows[0] != 0 || rows[1] != 1 {
		t.Fatalf("Restrict = %d rows, idx %v", sub.Len(), rows)
	}
	// The restriction shares rel's rows instead of copying them.
	for i, r := range rows {
		if &sub.Tuples[i][0] != &rel.Tuples[r][0] {
			t.Fatalf("Restrict row %d is a copy of rel row %d, want the same slice", i, r)
		}
	}
}
