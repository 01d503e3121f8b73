package eval

import (
	"fmt"

	"ftrepair/internal/fd"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

// GraphBench times violation-graph construction (all-pairs and indexed, with
// the distance cache on/off and the worker pool at 1 and GOMAXPROCS), the
// full FD set's graphs in one BuildSet call, and end-to-end multi-FD
// detection on a generated instance; ns/op is per build. The entries whose
// names carry no worker count (buildset, detect) build on one worker, so
// they read the same at any GOMAXPROCS.
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

	// Every graph of the full FD set in one BuildSet call, which encodes
	// each FD column once and self-joins each probe column once for all the
	// FDs probing it. joins counts those joins, read off a traced build
	// (HOSP's 9 FDs probe 4 columns).
	cfg := *full.Cfg
	cfg.Cache = fd.NewDistCache()
	cfg.AttachPlanes()
	nfds := len(full.Set.FDs)
	var graphs []*vgraph.Graph
	e, err := r.time(fmt.Sprintf("buildset/%dfds/cache", nfds), 0, 1, func(int) error {
		graphs = vgraph.BuildSet(full.Dirty, full.Set.FDs, &cfg, full.Set.Tau, vgraph.Options{Workers: 1, Cancel: c.Cancel})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e != nil {
		tr := obs.NewTrace("buildset")
		vgraph.BuildSet(full.Dirty, full.Set.FDs, &cfg, full.Set.Tau, vgraph.Options{Workers: 1, Trace: tr})
		var joins, vertices, edges int
		for _, s := range tr.Summaries() {
			for _, a := range s.Attrs {
				if a.Key == "joins" {
					joins += int(a.Value)
				}
			}
		}
		for _, g := range graphs {
			vertices += len(g.Vertices)
			edges += g.NumEdges()
		}
		e.Counters = map[string]float64{
			"joins":        float64(joins),
			"vertices":     float64(vertices),
			"edges":        float64(edges),
			"cacheHitRate": hitRate(cfg.Cache),
		}
	}

	// End-to-end detection over the full FD set: one BuildSet call + warm
	// cache + Edge.D reuse, on one worker.
	cfg = *full.Cfg
	cfg.Cache = fd.NewDistCache()
	cfg.AttachPlanes()
	var viols []repair.Violation
	e, err = r.time(fmt.Sprintf("detect/%dfds/cache", len(full.Set.FDs)), 0, 1, func(int) error {
		viols = repair.Detect(full.Dirty, full.Set, &cfg, repair.Options{Graph: vgraph.Options{Workers: 1}, Cancel: c.Cancel})
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
