package eval

import (
	"fmt"

	"ftrepair/internal/fd"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

// GraphBench times violation-graph construction (all-pairs and indexed, with
// the distance cache on/off and the worker pool at 1 and GOMAXPROCS) plus
// end-to-end multi-FD detection on a generated instance; ns/op is per build.
// Each entry uses a fresh cache that persists across its iterations — the
// pipeline reality, where the cache built during graph construction keeps
// serving repair-cost and target-search queries.
func GraphBench(c BenchConfig) (*BenchDoc, error) {
	r := newBenchRun("vgraph", c)
	single, err := Prepare(Setup{Workload: c.Workload, N: c.N, FDs: 1, ErrorRate: 0.04, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	full, err := Prepare(Setup{Workload: c.Workload, N: c.N, ErrorRate: 0.04, Seed: c.Seed})
	if err != nil {
		return nil, err
	}

	f, tau := single.Set.FDs[0], single.Set.Tau[0]
	procs := r.doc.GOMAXPROCS
	for _, mode := range []string{"allpairs", "indexed"} {
		if r.canceled() {
			return nil, repair.ErrCanceled
		}
		for _, v := range []struct {
			workers int
			cache   bool
		}{
			{1, false},
			{1, true},
			{procs, true},
		} {
			cfg := *single.Cfg // shallow copy: only the cache differs per entry
			cfg.Cache = nil
			tag := "nocache"
			if v.cache {
				cfg.Cache = fd.NewDistCache()
				cfg.AttachPlanes()
				tag = "cache"
			}
			opts := vgraph.Options{DisableIndex: mode == "allpairs", Workers: v.workers, Cancel: c.Cancel}
			var g *vgraph.Graph
			e, err := r.time(fmt.Sprintf("%s/w%d/%s", mode, v.workers, tag), 0, 1, func(int) error {
				g = vgraph.Build(single.Dirty, f, &cfg, tau, opts)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if e == nil {
				continue
			}
			e.Counters = map[string]float64{
				"vertices":    float64(len(g.Vertices)),
				"edges":       float64(g.NumEdges()),
				"edgesPerSec": e.perSec(g.NumEdges()),
			}
			if v.cache {
				e.Counters["cacheHitRate"] = hitRate(cfg.Cache)
			}
		}
		parallel := fmt.Sprintf("%s/w%d/cache", mode, procs)
		r.ratio(mode+"-cache", mode+"/w1/nocache", mode+"/w1/cache")
		r.ratio(mode+"-workers", mode+"/w1/cache", parallel)
		r.ratio(mode+"-combined", mode+"/w1/nocache", parallel)
	}

	// End-to-end detection over the full FD set: concurrent per-FD builds +
	// warm cache + Edge.D reuse.
	cfg := *full.Cfg
	cfg.Cache = fd.NewDistCache()
	cfg.AttachPlanes()
	var viols []repair.Violation
	e, err := r.time(fmt.Sprintf("detect/%dfds/cache", len(full.Set.FDs)), 0, 1, func(int) error {
		viols = repair.Detect(full.Dirty, full.Set, &cfg, repair.Options{Cancel: c.Cancel})
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.Counters = map[string]float64{
		"edges":        float64(len(viols)),
		"cacheHitRate": hitRate(cfg.Cache),
	}
	return r.doc, nil
}

// hitRate is the cache's hit share over its lifetime.
func hitRate(c *fd.DistCache) float64 {
	hits, misses := c.Counters()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
