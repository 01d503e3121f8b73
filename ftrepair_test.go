package ftrepair_test

import (
	"errors"
	"strings"
	"testing"

	"ftrepair"
	"ftrepair/internal/gen"
)

func TestRepairDispatch(t *testing.T) {
	dirty, clean := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	set, err := ftrepair.NewSet(fds, 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftrepair.DefaultDistConfig(dirty)
	for _, algo := range []ftrepair.Algorithm{ftrepair.ExactM, ftrepair.ApproM, ftrepair.GreedyM} {
		res, err := ftrepair.Repair(dirty, set, cfg, algo, ftrepair.Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := ftrepair.VerifyFTConsistent(res.Repaired, set, cfg); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := ftrepair.VerifyValid(dirty, res.Repaired, set); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	// The exact multi-FD repair recovers the ground truth end to end.
	res, err := ftrepair.Repair(dirty, set, cfg, ftrepair.ExactM, ftrepair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ftrepair.Diff(res.Repaired, clean)
	if err != nil || len(cells) != 0 {
		t.Fatalf("ExactM missed ground truth: %v %v", cells, err)
	}
}

func TestRepairSingleFDDispatch(t *testing.T) {
	dirty, _ := gen.Citizens()
	phi1 := gen.CitizensFDs(dirty.Schema)[0]
	set, err := ftrepair.NewSet([]*ftrepair.FD{phi1}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftrepair.DefaultDistConfig(dirty)
	for _, algo := range []ftrepair.Algorithm{ftrepair.ExactS, ftrepair.GreedyS} {
		if _, err := ftrepair.Repair(dirty, set, cfg, algo, ftrepair.Options{}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	// Single-FD algorithms reject multi-FD sets.
	multi, err := ftrepair.NewSet(gen.CitizensFDs(dirty.Schema), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftrepair.Repair(dirty, multi, cfg, ftrepair.ExactS, ftrepair.Options{}); err == nil {
		t.Fatal("ExactS accepted a multi-FD set")
	}
	if _, err := ftrepair.Repair(dirty, set, cfg, "Bogus", ftrepair.Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmsList(t *testing.T) {
	if got := ftrepair.Algorithms(); len(got) != 5 || got[0] != ftrepair.ExactS {
		t.Fatalf("Algorithms = %v", got)
	}
}

func TestRepairCFD(t *testing.T) {
	// A CFD constraining only NYC rows: errors in other cities survive.
	schema := ftrepair.Strings("City", "State")
	rel, err := ftrepair.FromRows(schema, [][]string{
		{"NYC", "NY"}, {"NYC", "NY"}, {"NYC", "NJ"}, // NJ conflicts within the pattern
		{"Boston", "MA"}, {"Boston", "RI"}, // unconstrained conflict
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ftrepair.ParseCFD(schema, "City -> State | NYC, _")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ftrepair.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ftrepair.RepairCFD(rel, c, cfg, 0.3, ftrepair.ExactS, ftrepair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired.Tuples[2][1] != "NY" {
		t.Fatalf("NYC conflict unrepaired: %v", res.Repaired.Tuples[2])
	}
	if res.Repaired.Tuples[4][1] != "RI" {
		t.Fatalf("unconstrained tuple modified: %v", res.Repaired.Tuples[4])
	}
	if !strings.HasSuffix(res.Algorithm, "+CFD") {
		t.Fatalf("algorithm tag = %q", res.Algorithm)
	}
	if len(res.Changed) != 1 {
		t.Fatalf("changed = %v", res.Changed)
	}
	// Stats is never nil, so a caller may write to it.
	if res.Stats == nil {
		t.Fatal("RepairCFD returned nil Stats")
	}
	res.Stats["probe"] = 1
	// GreedyS path and validation.
	gres, err := ftrepair.RepairCFD(rel, c, cfg, 0.3, ftrepair.GreedyS, ftrepair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gres.Stats == nil {
		t.Fatal("RepairCFD(GreedyS) returned nil Stats")
	}
	if _, err := ftrepair.RepairCFD(rel, c, cfg, 0.3, ftrepair.ExactM, ftrepair.Options{}); err == nil {
		t.Fatal("RepairCFD accepted a multi-FD algorithm")
	}
	if _, err := ftrepair.RepairCFD(rel, c, cfg, 0.3, "Bogus", ftrepair.Options{}); err == nil {
		t.Fatal("RepairCFD accepted an unknown algorithm")
	}
}

func TestRepairCanceledThroughFacade(t *testing.T) {
	dirty, _ := gen.Citizens()
	set, err := ftrepair.NewSet(gen.CitizensFDs(dirty.Schema), 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftrepair.DefaultDistConfig(dirty)
	cancel := make(chan struct{})
	close(cancel)
	res, err := ftrepair.Repair(dirty, set, cfg, ftrepair.GreedyM, ftrepair.Options{Cancel: cancel})
	if !errors.Is(err, ftrepair.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("canceled repair returned no partial result")
	}
	if len(res.Changed) != 0 {
		t.Fatalf("pre-canceled repair changed %d cells", len(res.Changed))
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	in := "City,State\nBoston,MA\nBoston,NY\n"
	rel, err := ftrepair.ReadCSVFile(strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	set, err := ftrepair.NewSet([]*ftrepair.FD{ftrepair.MustParseFD(rel.Schema, "City->State")}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ftrepair.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ftrepair.Repair(rel, set, cfg, ftrepair.ExactS, ftrepair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := ftrepair.WriteCSV(&out, res.Repaired); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Boston") {
		t.Fatalf("output CSV:\n%s", out.String())
	}
}

func TestRepairWithMaster(t *testing.T) {
	engine, set, dirty := masterInput(t)
	cfg, err := ftrepair.NewDistConfig(dirty, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ftrepair.RepairWithMaster(dirty, engine, set, cfg, ftrepair.GreedyM, ftrepair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired.Tuples[2][1] != "Boston" {
		t.Fatalf("rule fix missing: %v", res.Repaired.Tuples[2])
	}
	if res.Repaired.Tuples[4][2] != "TX" {
		t.Fatalf("FT fix missing: %v", res.Repaired.Tuples[4])
	}
	if res.Stats["certainFixes"] != 1 {
		t.Fatalf("certainFixes = %d", res.Stats["certainFixes"])
	}
	// Changed cells measured against the ORIGINAL input (both stages).
	if len(res.Changed) != 2 {
		t.Fatalf("changed = %v", res.Changed)
	}
}

// masterInput is a Zip/City/State relation with one master-data-backed
// typo and one FT violation, a zip2city rule engine over a one-row master
// relation, and the Zip -> State FD at τ = 0.3.
func masterInput(t *testing.T) (*ftrepair.RuleEngine, *ftrepair.Set, *ftrepair.Relation) {
	t.Helper()
	schema := ftrepair.Strings("Zip", "City", "State")
	dirty, err := ftrepair.FromRows(schema, [][]string{
		{"02134", "Boston", "MA"},
		{"02134", "Boston", "MA"},
		{"02134", "Bostn", "MA"}, // typo: rules fix it via master
		{"77701", "Beaumont", "TX"},
		{"77701", "Beaumont", "KS"}, // no master coverage; FT repair fixes it
		{"77701", "Beaumont", "TX"},
		{"77701", "Beaumont", "TX"},
	})
	if err != nil {
		t.Fatal(err)
	}
	master, err := ftrepair.FromRows(ftrepair.Strings("Zip", "City"), [][]string{
		{"02134", "Boston"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rule, err := ftrepair.NewEditingRule(schema, "zip2city", []string{"Zip"}, []string{"City"})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := ftrepair.NewRuleEngine(master, schema, []*ftrepair.EditingRule{rule})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ftrepair.NewSet([]*ftrepair.FD{ftrepair.MustParseFD(schema, "Zip -> State")}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return engine, set, dirty
}
