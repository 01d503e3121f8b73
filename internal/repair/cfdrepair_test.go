package repair_test

import (
	"math"
	"reflect"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/repair"
)

func TestNewCFDSetValidation(t *testing.T) {
	schema := dataset.Strings("A", "B")
	c, err := fd.ParseCFD(schema, "A->B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repair.NewCFDSet(nil, 0.3); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := repair.NewCFDSet([]*fd.CFD{c}, 0.1, 0.2); err == nil {
		t.Fatal("mismatched thresholds accepted")
	}
	s, err := repair.NewCFDSet([]*fd.CFD{c, c}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tau) != 2 || s.Tau[1] != 0.3 {
		t.Fatalf("broadcast taus = %v", s.Tau)
	}
}

func TestRepairCFDSetMixed(t *testing.T) {
	schema := dataset.Strings("City", "AC", "State")
	// The (Boston,617,MA) pattern needs enough witnesses that absorbing it
	// into the typo spelling is more expensive than repairing the RI
	// conflict — the cost model trades the two by multiplicity.
	rel, err := dataset.FromRows(schema, [][]string{
		{"NYC", "212", "NY"},
		{"NYC", "212", "NY"},
		{"NYC", "212", "CA"}, // violates the constant row NYC -> NY
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "RI"}, // plain-FD violation: same city+AC, diff state
		{"Bostom", "617", "MA"}, // typo caught by the FT semantics
	})
	if err != nil {
		t.Fatal(err)
	}
	constant, err := fd.ParseCFD(schema, "City -> State | NYC, NY")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fd.ParseCFD(schema, "City, AC -> State")
	if err != nil {
		t.Fatal(err)
	}
	s, err := repair.NewCFDSet([]*fd.CFD{constant, plain}, 0.3)
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
	if res.Repaired.Tuples[2][2] != "NY" {
		t.Errorf("constant row not enforced: %v", res.Repaired.Tuples[2])
	}
	if res.Repaired.Tuples[10][2] != "MA" {
		t.Errorf("plain-FD violation unrepaired: %v", res.Repaired.Tuples[10])
	}
	if res.Repaired.Tuples[11][0] != "Boston" {
		t.Errorf("typo unrepaired: %v", res.Repaired.Tuples[11])
	}
	if err := repair.VerifyCFDs(res.Repaired, s.CFDs); err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "CFDSet" || len(res.Changed) == 0 {
		t.Fatalf("result metadata: %+v", res.Algorithm)
	}
	// Input untouched.
	if rel.Tuples[2][2] != "CA" {
		t.Fatal("input mutated")
	}
}

func TestRepairCFDSetConditionalOnly(t *testing.T) {
	schema := dataset.Strings("Plan", "Tier")
	rel, err := dataset.FromRows(schema, [][]string{
		{"gold", "3"}, {"gold", "3"}, {"gold", "2"},
		{"free", "0"}, {"free", "9"}, // unconstrained by the gold-only CFD
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fd.ParseCFD(schema, "Plan -> Tier | gold, _")
	if err != nil {
		t.Fatal(err)
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
	if res.Repaired.Tuples[2][1] != "3" {
		t.Errorf("gold conflict unrepaired: %v", res.Repaired.Tuples[2])
	}
	if res.Repaired.Tuples[4][1] != "9" {
		t.Errorf("free tuple modified: %v", res.Repaired.Tuples[4])
	}
	if err := repair.VerifyCFDs(res.Repaired, s.CFDs); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCFDsDetects(t *testing.T) {
	schema := dataset.Strings("A", "B")
	rel, _ := dataset.FromRows(schema, [][]string{{"x", "1"}, {"x", "2"}})
	c, err := fd.ParseCFD(schema, "A->B")
	if err != nil {
		t.Fatal(err)
	}
	if err := repair.VerifyCFDs(rel, []*fd.CFD{c}); err == nil {
		t.Fatal("pairwise violation missed")
	}
	cc, err := fd.ParseCFD(schema, "A -> B | x, 9")
	if err != nil {
		t.Fatal(err)
	}
	if err := repair.VerifyCFDs(rel, []*fd.CFD{cc}); err == nil {
		t.Fatal("single-tuple violation missed")
	}
	ok, _ := dataset.FromRows(schema, [][]string{{"x", "1"}, {"x", "1"}})
	if err := repair.VerifyCFDs(ok, []*fd.CFD{c}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectCFDs(t *testing.T) {
	schema := dataset.Strings("City", "State")
	rel, err := dataset.FromRows(schema, [][]string{
		{"NYC", "NY"},
		{"NYC", "CA"}, // constant-row violation AND pairwise with row 0
		{"Boston", "MA"},
		{"Boston", "RI"}, // pairwise only (wildcard CFD)
	})
	if err != nil {
		t.Fatal(err)
	}
	constant, err := fd.ParseCFD(schema, "City -> State | NYC, NY")
	if err != nil {
		t.Fatal(err)
	}
	wildcard, err := fd.ParseCFD(schema, "City -> State")
	if err != nil {
		t.Fatal(err)
	}
	got := repair.DetectCFDs(rel, []*fd.CFD{constant, wildcard})
	singles, pairs := 0, 0
	for _, v := range got {
		switch len(v.Rows) {
		case 1:
			singles++
			if v.Rows[0] != 1 {
				t.Fatalf("constant violation at row %d", v.Rows[0])
			}
		case 2:
			pairs++
		}
	}
	// One constant violation (row 1); pairwise: constant CFD (0,1) and
	// wildcard CFD (0,1) + (2,3).
	if singles != 1 || pairs != 3 {
		t.Fatalf("singles=%d pairs=%d: %+v", singles, pairs, got)
	}
	// Sorted: singles first.
	if len(got[0].Rows) != 1 {
		t.Fatalf("ordering: %+v", got)
	}
	// Clean relation: nothing.
	ok, _ := dataset.FromRows(schema, [][]string{{"NYC", "NY"}, {"Boston", "MA"}})
	if vs := repair.DetectCFDs(ok, []*fd.CFD{constant, wildcard}); len(vs) != 0 {
		t.Fatalf("clean relation produced %v", vs)
	}
}

// singleAlgo is ExactS or GreedyS.
type singleAlgo func(*dataset.Relation, *fd.FD, *fd.DistConfig, float64, repair.Options) (*repair.Result, error)

// restrictedRef repairs a deep copy of c's restriction of out with run and
// writes the changed cells into out, returning how many cells changed.
func restrictedRef(t *testing.T, out *dataset.Relation, c *fd.CFD, cfg *fd.DistConfig, tau float64, run singleAlgo) int {
	t.Helper()
	sub, rows := c.Restrict(out)
	res, err := run(sub.Clone(), c.Embedded, cfg, tau, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, cell := range res.Changed {
		if v := res.Repaired.Get(cell); out.Tuples[rows[cell.Row]][cell.Col] != v {
			out.Tuples[rows[cell.Row]][cell.Col] = v
			n++
		}
	}
	return n
}

// cfdSetRef is RepairCFDSet's algorithm over a deep copy of rel, with every
// restriction deep-copied before its GreedyS run.
func cfdSetRef(t *testing.T, rel *dataset.Relation, s *repair.CFDSet, cfg *fd.DistConfig) *dataset.Relation {
	t.Helper()
	out := rel.Clone()
	var plain []*fd.FD
	var plainTaus []float64
	var conds []int
	for i, c := range s.CFDs {
		if isPlain(c) {
			plain = append(plain, c.Embedded)
			plainTaus = append(plainTaus, s.Tau[i])
		} else {
			conds = append(conds, i)
		}
	}
	if len(plain) > 0 {
		set, err := fd.NewSet(plain, plainTaus...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := repair.GreedyM(rel, set, cfg, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range res.Changed {
			out.Tuples[cell.Row][cell.Col] = res.Repaired.Get(cell)
		}
	}
	for round := 0; round < 4 && len(conds) > 0; round++ {
		changed := 0
		for _, i := range conds {
			c := s.CFDs[i]
			for _, tup := range out.Tuples {
				row := c.MatchRow(tup)
				if row < 0 {
					continue
				}
				for j, col := range c.Embedded.RHS {
					if v := c.Tableau[row].RHS[j]; v != fd.Wildcard && tup[col] != v {
						tup[col] = v
						changed++
					}
				}
			}
		}
		for _, i := range conds {
			if sub, _ := s.CFDs[i].Restrict(out); sub.Len() >= 2 {
				changed += restrictedRef(t, out, s.CFDs[i], cfg, s.Tau[i], repair.GreedyS)
			}
		}
		if changed == 0 {
			break
		}
	}
	return out
}

// isPlain reports whether every tableau row of c is all wildcards.
func isPlain(c *fd.CFD) bool {
	for _, row := range c.Tableau {
		for _, v := range row.LHS {
			if v != fd.Wildcard {
				return false
			}
		}
		for _, v := range row.RHS {
			if v != fd.Wildcard {
				return false
			}
		}
	}
	return true
}

// TestCFDOutputContract holds RepairCFD and RepairCFDSet to the output
// contract of the five core algorithms (TestOutputContract): the input is
// left as it was, and Changed and the Cost bits equal dataset.Diff and
// DatabaseCost. Their restrictions share the input's rows, so each output
// must also equal a reference run that repairs a deep copy of every
// restriction. Inputs: the relations above and a HOSP draw with a CFD
// conditioned on Region.
func TestCFDOutputContract(t *testing.T) {
	type cfdCase struct {
		name string
		rel  *dataset.Relation
		cfg  *fd.DistConfig
		run  func() (*repair.Result, error)
		ref  func() *dataset.Relation
	}
	var cases []cfdCase
	addCFD := func(name string, rel *dataset.Relation, c *fd.CFD, cfg *fd.DistConfig, algo singleAlgo, run repair.Algorithm) {
		cases = append(cases, cfdCase{name, rel, cfg,
			func() (*repair.Result, error) { return repair.RepairCFD(rel, c, cfg, 0.3, run, repair.Options{}) },
			func() *dataset.Relation { out := rel.Clone(); restrictedRef(t, out, c, cfg, 0.3, algo); return out }})
	}
	addSet := func(name string, rel *dataset.Relation, s *repair.CFDSet, cfg *fd.DistConfig) {
		cases = append(cases, cfdCase{name, rel, cfg,
			func() (*repair.Result, error) { return repair.RepairCFDSet(rel, s, cfg, repair.Options{}) },
			func() *dataset.Relation { return cfdSetRef(t, rel, s, cfg) }})
	}
	parse := func(schema *dataset.Schema, specs ...string) []*fd.CFD {
		var out []*fd.CFD
		for _, spec := range specs {
			c, err := fd.ParseCFD(schema, spec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
		return out
	}
	newSet := func(cfds []*fd.CFD) *repair.CFDSet {
		s, err := repair.NewCFDSet(cfds, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newCfg := func(rel *dataset.Relation) *fd.DistConfig {
		cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	mixed, err := dataset.FromRows(dataset.Strings("City", "AC", "State"), [][]string{
		{"NYC", "212", "NY"}, {"NYC", "212", "NY"}, {"NYC", "212", "CA"},
		{"Boston", "617", "MA"}, {"Boston", "617", "MA"}, {"Boston", "617", "MA"},
		{"Boston", "617", "MA"}, {"Boston", "617", "MA"}, {"Boston", "617", "MA"},
		{"Boston", "617", "MA"}, {"Boston", "617", "RI"}, {"Bostom", "617", "MA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	addSet("mixed/CFDSet", mixed, newSet(parse(mixed.Schema, "City -> State | NYC, NY", "City, AC -> State")), newCfg(mixed))
	gold, err := dataset.FromRows(dataset.Strings("Plan", "Tier"), [][]string{
		{"gold", "3"}, {"gold", "3"}, {"gold", "2"}, {"free", "0"}, {"free", "9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	goldCFD := parse(gold.Schema, "Plan -> Tier | gold, _")
	addSet("gold/CFDSet", gold, newSet(goldCFD), newCfg(gold))
	addCFD("gold/ExactS+CFD", gold, goldCFD[0], newCfg(gold), repair.ExactS, repair.AlgoExactS)
	addCFD("gold/GreedyS+CFD", gold, goldCFD[0], newCfg(gold), repair.GreedyS, repair.AlgoGreedyS)

	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 300, ErrorRate: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hosp := parse(inst.Dirty.Schema, "Region, Zip -> City | South, _, _", "Provider -> HospitalName")
	addCFD("hosp/GreedyS+CFD", inst.Dirty, hosp[0], inst.Cfg, repair.GreedyS, repair.AlgoGreedyS)
	addSet("hosp/CFDSet", inst.Dirty, newSet(hosp), inst.Cfg)

	for _, c := range cases {
		before := c.rel.Clone()
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cells, err := dataset.Diff(before, c.rel); err != nil || len(cells) != 0 {
			t.Fatalf("%s: the input changed at %v (%v)", c.name, cells, err)
		}
		want, err := dataset.Diff(c.rel, res.Repaired)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: nothing repaired; the case shows nothing", c.name)
		}
		if !reflect.DeepEqual(res.Changed, want) {
			t.Fatalf("%s: Changed %v, Diff %v", c.name, res.Changed, want)
		}
		if got, want := math.Float64bits(res.Cost), math.Float64bits(c.cfg.DatabaseCost(c.rel, res.Repaired)); got != want {
			t.Fatalf("%s: Cost bits %x, DatabaseCost bits %x", c.name, got, want)
		}
		if ref := c.ref(); !reflect.DeepEqual(res.Repaired.Tuples, ref.Tuples) {
			diff, _ := dataset.Diff(ref, res.Repaired)
			t.Fatalf("%s: output differs from the deep-copy reference at %v", c.name, diff)
		}
	}
}
