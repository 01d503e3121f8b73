package discover_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/discover"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/repair"
)

func TestDiscoverCFDs(t *testing.T) {
	// City -> State fails globally ("Albany" exists in NY and GA here),
	// but NYC -> NY holds with full confidence.
	schema := dataset.Strings("City", "State")
	rel := dataset.NewRelation(schema)
	add := func(city, state string, times int) {
		for i := 0; i < times; i++ {
			if err := rel.Append(dataset.Tuple{city, state}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("NYC", "NY", 10)
	add("Albany", "NY", 6)
	add("Albany", "GA", 6) // makes City -> State globally false
	add("Tiny", "TX", 2)   // below support

	results := discover.CFDs(rel, discover.CFDOptions{MinSupport: 5, MinConfidence: 0.9})
	var cityState *discover.CFDResult
	for i := range results {
		f := results[i].CFD.Embedded
		if len(f.LHS) == 1 && f.Schema.Attr(f.LHS[0]).Name == "City" && f.Schema.Attr(f.RHS[0]).Name == "State" {
			cityState = &results[i]
		}
	}
	if cityState == nil {
		t.Fatalf("City->State CFD not discovered: %d results", len(results))
	}
	// The tableau has the NYC row; Albany is ambiguous (50/50 split per
	// value? no — each (Albany,NY)/(Albany,GA) is its own City group
	// "Albany" with two states, confidence 0.5 < 0.9, so excluded).
	foundNYC := false
	for _, row := range cityState.CFD.Tableau {
		if row.LHS[0] == "NYC" {
			foundNYC = true
			if row.RHS[0] != "NY" {
				t.Fatalf("NYC row RHS = %q", row.RHS[0])
			}
		}
		if row.LHS[0] == "Albany" {
			t.Fatal("ambiguous Albany pattern in tableau")
		}
		if row.LHS[0] == "Tiny" {
			t.Fatal("under-supported pattern in tableau")
		}
	}
	if !foundNYC {
		t.Fatalf("NYC pattern missing: %+v", cityState.CFD.Tableau)
	}
	if cityState.Support < 10 || cityState.Confidence < 0.9 {
		t.Fatalf("support/confidence = %d/%.2f", cityState.Support, cityState.Confidence)
	}
}

func TestDiscoverCFDsSkipsCleanFDs(t *testing.T) {
	schema := dataset.Strings("A", "B")
	rel, err := dataset.FromRows(schema, [][]string{
		{"x", "1"}, {"x", "1"}, {"x", "1"}, {"x", "1"}, {"x", "1"},
		{"y", "2"}, {"y", "2"}, {"y", "2"}, {"y", "2"}, {"y", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A -> B holds globally: it is a plain FD, not a CFD.
	for _, r := range discover.CFDs(rel, discover.CFDOptions{}) {
		f := r.CFD.Embedded
		if f.Schema.Attr(f.LHS[0]).Name == "A" && f.Schema.Attr(f.RHS[0]).Name == "B" {
			t.Fatal("globally clean FD reported as CFD")
		}
	}
}

func TestDiscoverCFDsEmptyInput(t *testing.T) {
	rel := dataset.NewRelation(dataset.Strings("A", "B"))
	if got := discover.CFDs(rel, discover.CFDOptions{}); got != nil {
		t.Fatalf("empty relation produced %v", got)
	}
}

func TestDiscoveredCFDRepairs(t *testing.T) {
	// The discovered CFD plugs into RepairCFDSet and enforces its
	// constant rows.
	schema := dataset.Strings("City", "State")
	rel := dataset.NewRelation(schema)
	for i := 0; i < 12; i++ {
		state := "NY"
		if i == 0 {
			state = "CA" // the error
		}
		if err := rel.Append(dataset.Tuple{"NYC", state}); err != nil {
			t.Fatal(err)
		}
	}
	// Make the global FD fail so the pair is CFD territory.
	for i := 0; i < 6; i++ {
		st := "NY"
		if i%2 == 0 {
			st = "GA"
		}
		if err := rel.Append(dataset.Tuple{"Albany", st}); err != nil {
			t.Fatal(err)
		}
	}
	results := discover.CFDs(rel, discover.CFDOptions{MinSupport: 5, MinConfidence: 0.9})
	if len(results) == 0 {
		t.Fatal("nothing discovered")
	}
	var c *fd.CFD
	for _, r := range results {
		f := r.CFD.Embedded
		if f.Schema.Attr(f.LHS[0]).Name == "City" {
			c = r.CFD
		}
	}
	if c == nil {
		t.Fatal("City CFD missing")
	}
	s, err := repair.NewCFDSet([]*fd.CFD{c}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repair.RepairCFDSet(rel, s, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired.Tuples[0][1] != "NY" {
		t.Fatalf("NYC error unrepaired: %v", res.Repaired.Tuples[0])
	}
}

// TestCFDsDeterministic: tableau rows tied on support and RHS value, and
// with MaxTableau the rows kept, must not follow map iteration order, so
// repeated calls over one relation return identical results.
func TestCFDsDeterministic(t *testing.T) {
	rel := gen.HOSP{Seed: 3}.Generate(2000)
	opts := discover.CFDOptions{MinSupport: 5, MaxTableau: 4}
	summary := func() string {
		var b strings.Builder
		for _, r := range discover.CFDs(rel, opts) {
			fmt.Fprintf(&b, "%s %v support=%d conf=%x\n", r.CFD.Embedded, r.CFD.Tableau, r.Support, math.Float64bits(r.Confidence))
		}
		return b.String()
	}
	want := summary()
	if want == "" {
		t.Fatal("no CFDs discovered")
	}
	for i := 1; i < 20; i++ {
		if got := summary(); got != want {
			t.Fatalf("call %d differs from the first:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}
