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
// fails here. The distance counters are flushed where the cache counts a
// lookup, not by FlushRunStats: they must move by exactly the cache's own
// delta over the call, which also covers lookups outside the run (the
// Result's Cost), so each Stats distance entry stays at most that delta.
func TestStatsMatchRegistry(t *testing.T) {
	counters := obs.RunStatCounters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	distKeys := []string{"distCacheHits", "distCacheMisses", "distPlaneHits", "distPlaneMisses"}
	distCounters := []*obs.Counter{obs.Pipeline.DistCacheHits, obs.Pipeline.DistCacheMisses, obs.Pipeline.DistPlaneHits, obs.Pipeline.DistPlaneMisses}
	cacheCounts := func(cfg *ftrepair.DistConfig) [4]uint64 {
		var c [4]uint64
		c[0], c[1] = cfg.Cache.Counters()
		c[2], c[3] = cfg.Cache.PlaneCounters()
		return c
	}
	check := func(name string, cfg *ftrepair.DistConfig, run func() (*ftrepair.Result, error)) {
		t.Helper()
		before := make(map[string]uint64, len(keys))
		for _, k := range keys {
			before[k] = counters[k].Value()
		}
		var distBefore [4]uint64
		for i, c := range distCounters {
			distBefore[i] = c.Value()
		}
		cacheBefore := cacheCounts(cfg)
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
		cacheAfter := cacheCounts(cfg)
		for i, c := range distCounters {
			got, want := c.Value()-distBefore[i], cacheAfter[i]-cacheBefore[i]
			if got != want {
				t.Errorf("%s: registry %s moved by %d, the cache by %d", name, distKeys[i], got, want)
			}
			if st := res.Stats[distKeys[i]]; st < 0 || uint64(st) > want {
				t.Errorf("%s: Stats[%q] = %d, outside the cache's delta %d", name, distKeys[i], st, want)
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
		cfg := ftrepair.DefaultDistConfig(dirty)
		check(string(algo), cfg, func() (*ftrepair.Result, error) {
			return ftrepair.Repair(dirty, s, cfg, algo, ftrepair.Options{})
		})
	}

	cfdRel, cfds, cfdCfg := cfdSetInput(t)
	check("RepairCFD", cfdCfg, func() (*ftrepair.Result, error) {
		return ftrepair.RepairCFD(cfdRel, cfds.CFDs[0], cfdCfg, 0.3, ftrepair.GreedyS, ftrepair.Options{})
	})
	check("RepairCFDSet", cfdCfg, func() (*ftrepair.Result, error) {
		return ftrepair.RepairCFDSet(cfdRel, cfds, cfdCfg, ftrepair.Options{})
	})
	canceled := make(chan struct{})
	close(canceled)
	check("RepairCFDSet canceled", cfdCfg, func() (*ftrepair.Result, error) {
		return ftrepair.RepairCFDSet(cfdRel, cfds, cfdCfg, ftrepair.Options{Cancel: canceled})
	})

	engine, masterSet, masterRel := masterInput(t)
	masterCfg := ftrepair.DefaultDistConfig(masterRel)
	check("RepairWithMaster", masterCfg, func() (*ftrepair.Result, error) {
		return ftrepair.RepairWithMaster(masterRel, engine, masterSet, masterCfg, ftrepair.GreedyM, ftrepair.Options{})
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
