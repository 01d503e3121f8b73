package incr_test

import (
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/incr"
	"ftrepair/internal/obs"
)

// TestEngineDistCountersMatchRegistry holds the distance counters' one
// write path: over NewEngine and a run of appends, the registry's four
// distance counters move by exactly the engine cache's Counters and
// PlaneCounters deltas, at any worker count. Graph-state appends look
// distances up outside any repair run, and concurrent shard runs share
// the cache, so a flush of each run's cache delta would miss the first
// and count the second once per overlapping run.
func TestEngineDistCountersMatchRegistry(t *testing.T) {
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 1200, FDs: 3, ErrorRate: 0.04, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	const base, chunk = 800, 20
	rows := rowsOf(inst.Dirty)
	counters := []*obs.Counter{obs.Pipeline.DistCacheHits, obs.Pipeline.DistCacheMisses, obs.Pipeline.DistPlaneHits, obs.Pipeline.DistPlaneMisses}
	read := func(cache *fd.DistCache) (reg, own [4]uint64) {
		for i, c := range counters {
			reg[i] = c.Value()
		}
		own[0], own[1] = cache.Counters()
		own[2], own[3] = cache.PlaneCounters()
		return reg, own
	}
	for _, workers := range []int{1, 2, 4} {
		cfg, err := fd.NewDistConfig(inst.Dirty, 0.7, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		reg0, own0 := read(cfg.Cache)
		baseRel := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:base]}
		eng, _, err := incr.NewEngine(baseRel, inst.Set, cfg, incr.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for off := base; off < len(rows); off += chunk {
			if _, err := eng.Append(rows[off:min(off+chunk, len(rows))], "manual", nil); err != nil {
				t.Fatal(err)
			}
		}
		reg1, own1 := read(cfg.Cache)
		if own1[0]+own1[1] == own0[0]+own0[1] {
			t.Fatalf("Workers=%d: the cache saw no lookups", workers)
		}
		for i, name := range []string{"cache hits", "cache misses", "plane hits", "plane misses"} {
			if got, want := reg1[i]-reg0[i], own1[i]-own0[i]; got != want {
				t.Errorf("Workers=%d: registry %s moved by %d, the cache by %d", workers, name, got, want)
			}
		}
	}
}
