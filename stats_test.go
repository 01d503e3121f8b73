package ftrepair_test

import (
	"errors"
	"slices"
	"testing"

	"ftrepair"
	"ftrepair/internal/gen"
	"ftrepair/internal/obs"
)

// TestStatsMatchRegistry holds every entry point to the one-flush contract
// of Result.Stats: the map is never nil, and for every key that
// obs.FlushRunStats adds to a registry counter, the run moved that counter
// by exactly the Result's value. An entry point that flushes a nested
// run's counters a second time, or reports a counter it never flushed,
// fails here.
func TestStatsMatchRegistry(t *testing.T) {
	counters := obs.RunStatCounters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	check := func(name string, run func() (*ftrepair.Result, error)) {
		t.Helper()
		before := make(map[string]uint64, len(keys))
		for _, k := range keys {
			before[k] = counters[k].Value()
		}
		res, err := run()
		if err != nil && !errors.Is(err, ftrepair.ErrCanceled) {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats == nil {
			t.Fatalf("%s: nil Stats", name)
		}
		for _, k := range keys {
			if got, want := counters[k].Value()-before[k], res.Stats[k]; got != uint64(want) {
				t.Errorf("%s: registry %s moved by %d, Stats[%q] = %d", name, k, got, k, want)
			}
		}
	}

	dirty, _ := gen.Citizens()
	set, err := ftrepair.NewSet(gen.CitizensFDs(dirty.Schema), 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	one, err := ftrepair.NewSet(set.FDs[:1], set.Tau[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range ftrepair.Algorithms() {
		s := set
		if algo == ftrepair.ExactS || algo == ftrepair.GreedyS {
			s = one
		}
		check(string(algo), func() (*ftrepair.Result, error) {
			return ftrepair.Repair(dirty, s, ftrepair.DefaultDistConfig(dirty), algo, ftrepair.Options{})
		})
	}

	cfdRel, cfds, cfdCfg := cfdSetInput(t)
	check("RepairCFD", func() (*ftrepair.Result, error) {
		return ftrepair.RepairCFD(cfdRel, cfds.CFDs[0], cfdCfg, 0.3, ftrepair.GreedyS, ftrepair.Options{})
	})
	check("RepairCFDSet", func() (*ftrepair.Result, error) {
		return ftrepair.RepairCFDSet(cfdRel, cfds, cfdCfg, ftrepair.Options{})
	})
	canceled := make(chan struct{})
	close(canceled)
	check("RepairCFDSet canceled", func() (*ftrepair.Result, error) {
		return ftrepair.RepairCFDSet(cfdRel, cfds, cfdCfg, ftrepair.Options{Cancel: canceled})
	})

	engine, masterSet, masterRel := masterInput(t)
	check("RepairWithMaster", func() (*ftrepair.Result, error) {
		return ftrepair.RepairWithMaster(masterRel, engine, masterSet, ftrepair.DefaultDistConfig(masterRel), ftrepair.GreedyM, ftrepair.Options{})
	})
}

// cfdSetInput is internal/repair's TestRepairCFDSetMixed input: a
// constant-RHS CFD and a plain FD with τ = 0.3 over a 0.7/0.3 config.
func cfdSetInput(t *testing.T) (*ftrepair.Relation, *ftrepair.CFDSet, *ftrepair.DistConfig) {
	t.Helper()
	schema := ftrepair.Strings("City", "AC", "State")
	rel, err := ftrepair.FromRows(schema, [][]string{
		{"NYC", "212", "NY"}, {"NYC", "212", "NY"}, {"NYC", "212", "CA"},
		{"Boston", "617", "MA"}, {"Boston", "617", "MA"}, {"Boston", "617", "MA"},
		{"Boston", "617", "MA"}, {"Boston", "617", "MA"}, {"Boston", "617", "MA"},
		{"Boston", "617", "MA"}, {"Boston", "617", "RI"}, {"Bostom", "617", "MA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	constant, err := ftrepair.ParseCFD(schema, "City -> State | NYC, NY")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ftrepair.ParseCFD(schema, "City, AC -> State")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ftrepair.NewCFDSet([]*ftrepair.CFD{constant, plain}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ftrepair.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return rel, s, cfg
}
