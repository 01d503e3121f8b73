// Benchmarks regenerating the paper's evaluation (§6): one benchmark family
// per figure/table, plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Sizes are scaled down from the paper's testbed so the whole suite
// finishes in minutes; cmd/repairbench produces the full sweep tables. Each
// benchmark reports quality metrics (precision/recall ×1000) alongside
// time, so effectiveness figures are regenerated by the same run.
package ftrepair_test

import (
	"fmt"
	"sync"
	"testing"

	"ftrepair/internal/baselines"
	"ftrepair/internal/dataset"
	"ftrepair/internal/discover"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/mis"
	"ftrepair/internal/repair"
	"ftrepair/internal/strsim"
	"ftrepair/internal/targettree"
	"ftrepair/internal/vgraph"
)

// instances caches prepared workloads across benchmarks.
var (
	instMu    sync.Mutex
	instCache = map[string]*eval.Instance{}
)

func instance(b *testing.B, s eval.Setup) *eval.Instance {
	b.Helper()
	key := fmt.Sprintf("%s-%d-%d-%g-%d", s.Workload, s.N, s.FDs, s.ErrorRate, s.Seed)
	instMu.Lock()
	defer instMu.Unlock()
	if inst, ok := instCache[key]; ok {
		return inst
	}
	inst, err := eval.Prepare(s)
	if err != nil {
		b.Fatal(err)
	}
	instCache[key] = inst
	return inst
}

// benchRepair times a repair and reports its quality as custom metrics.
func benchRepair(b *testing.B, inst *eval.Instance, spec eval.AlgoSpec) {
	b.Helper()
	var last *dataset.Relation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := spec.Run(inst)
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	b.StopTimer()
	opts := eval.Options{}
	if spec.Partial {
		opts.PartialMarker = baselines.VariableMarker
	}
	q, err := eval.Evaluate(inst.Clean, inst.Dirty, last, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(q.Precision*1000, "precision(x1000)")
	b.ReportMetric(q.Recall*1000, "recall(x1000)")
}

func greedyM(opts repair.Options) eval.AlgoSpec { return eval.OurAlgos(false, opts)[0] }
func approM(opts repair.Options) eval.AlgoSpec  { return eval.OurAlgos(false, opts)[1] }
func greedyS() eval.AlgoSpec                    { return eval.SingleAlgos(false, repair.Options{})[0] }
func exactS(opts repair.Options) eval.AlgoSpec  { return eval.SingleAlgos(true, opts)[0] }
func baselineSpec(name string) (s eval.AlgoSpec) {
	for _, a := range eval.BaselineAlgos() {
		if a.Name == name {
			return a
		}
	}
	panic("unknown baseline " + name)
}

// --- Fig. 5: effectiveness varying #-tuples ------------------------------

func BenchmarkFig5HOSP(b *testing.B) {
	for _, n := range []int{800, 1600, 3200} {
		for _, algo := range []eval.AlgoSpec{greedyM(repair.Options{}), approM(repair.Options{})} {
			b.Run(fmt.Sprintf("%s/N=%d", algo.Name, n), func(b *testing.B) {
				benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: n, ErrorRate: 0.04, Seed: 7}), algo)
			})
		}
	}
}

func BenchmarkFig5Tax(b *testing.B) {
	for _, n := range []int{600, 1200, 2400} {
		for _, algo := range []eval.AlgoSpec{greedyM(repair.Options{}), approM(repair.Options{})} {
			b.Run(fmt.Sprintf("%s/N=%d", algo.Name, n), func(b *testing.B) {
				benchRepair(b, instance(b, eval.Setup{Workload: "tax", N: n, ErrorRate: 0.04, Seed: 7}), algo)
			})
		}
	}
}

// BenchmarkFig5SingleFD covers the single-constraint panel (ExactS vs
// GreedyS on one FD).
func BenchmarkFig5SingleFD(b *testing.B) {
	for _, algo := range []eval.AlgoSpec{exactS(repair.Options{}), greedyS()} {
		b.Run(algo.Name, func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: 1600, FDs: 1, ErrorRate: 0.04, Seed: 7}), algo)
		})
	}
}

// --- Fig. 6: effectiveness varying #-FDs ---------------------------------

func BenchmarkFig6HOSP(b *testing.B) {
	for _, fds := range []int{1, 5, 9} {
		b.Run(fmt.Sprintf("GreedyM/FDs=%d", fds), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: 1600, FDs: fds, ErrorRate: 0.04, Seed: 7}), greedyM(repair.Options{}))
		})
	}
}

func BenchmarkFig6Tax(b *testing.B) {
	for _, fds := range []int{1, 5, 9} {
		b.Run(fmt.Sprintf("ApproM/FDs=%d", fds), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "tax", N: 1200, FDs: fds, ErrorRate: 0.04, Seed: 7}), approM(repair.Options{}))
		})
	}
}

// --- Fig. 7: effectiveness varying error rate ----------------------------

func BenchmarkFig7HOSP(b *testing.B) {
	for _, e := range []float64{0.02, 0.06, 0.10} {
		b.Run(fmt.Sprintf("GreedyM/e=%g", e), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: 1600, ErrorRate: e, Seed: 7}), greedyM(repair.Options{}))
		})
	}
}

func BenchmarkFig7Tax(b *testing.B) {
	for _, e := range []float64{0.02, 0.06, 0.10} {
		b.Run(fmt.Sprintf("ApproM/e=%g", e), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "tax", N: 1200, ErrorRate: e, Seed: 7}), approM(repair.Options{}))
		})
	}
}

// --- Fig. 8-10: efficiency, target tree vs naive join --------------------

func BenchmarkFig8TreeVsScan(b *testing.B) {
	for _, n := range []int{800, 1600, 3200} {
		b.Run(fmt.Sprintf("ApproM-Tree/N=%d", n), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: n, ErrorRate: 0.04, Seed: 7}), approM(repair.Options{}))
		})
		b.Run(fmt.Sprintf("ApproM-Scan/N=%d", n), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: n, ErrorRate: 0.04, Seed: 7}), approM(repair.Options{DisableTargetTree: true}))
		})
	}
}

func BenchmarkFig9TreeVsScanFDs(b *testing.B) {
	for _, fds := range []int{5, 9} {
		b.Run(fmt.Sprintf("ApproM-Tree/FDs=%d", fds), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: 1600, FDs: fds, ErrorRate: 0.04, Seed: 7}), approM(repair.Options{}))
		})
		b.Run(fmt.Sprintf("ApproM-Scan/FDs=%d", fds), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "hosp", N: 1600, FDs: fds, ErrorRate: 0.04, Seed: 7}), approM(repair.Options{DisableTargetTree: true}))
		})
	}
}

func BenchmarkFig10TreeVsScanRate(b *testing.B) {
	for _, e := range []float64{0.04, 0.10} {
		b.Run(fmt.Sprintf("GreedyM-Tree/e=%g", e), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "tax", N: 1200, ErrorRate: e, Seed: 7}), greedyM(repair.Options{}))
		})
		b.Run(fmt.Sprintf("GreedyM-Scan/e=%g", e), func(b *testing.B) {
			benchRepair(b, instance(b, eval.Setup{Workload: "tax", N: 1200, ErrorRate: e, Seed: 7}), greedyM(repair.Options{DisableTargetTree: true}))
		})
	}
}

// --- Table 3 and Fig. 11-16: baseline comparison -------------------------

func BenchmarkTable3(b *testing.B) {
	for _, wk := range []struct {
		name string
		n    int
	}{{"hosp", 1600}, {"tax", 1200}} {
		inst := instance(b, eval.Setup{Workload: wk.name, N: wk.n, ErrorRate: 0.04, Seed: 7})
		for _, algo := range []eval.AlgoSpec{
			greedyM(repair.Options{}),
			approM(repair.Options{}),
			baselineSpec("NADEEF"),
			baselineSpec("URM"),
			baselineSpec("Llunatic"),
		} {
			b.Run(fmt.Sprintf("%s/%s", wk.name, algo.Name), func(b *testing.B) {
				benchRepair(b, inst, algo)
			})
		}
	}
}

func BenchmarkFig11BaselinesVaryN(b *testing.B) {
	for _, n := range []int{800, 3200} {
		inst := instance(b, eval.Setup{Workload: "hosp", N: n, ErrorRate: 0.04, Seed: 7})
		for _, algo := range []eval.AlgoSpec{greedyM(repair.Options{}), baselineSpec("NADEEF"), baselineSpec("URM")} {
			b.Run(fmt.Sprintf("%s/N=%d", algo.Name, n), func(b *testing.B) {
				benchRepair(b, inst, algo)
			})
		}
	}
}

func BenchmarkFig12BaselinesVaryFDs(b *testing.B) {
	for _, fds := range []int{3, 9} {
		inst := instance(b, eval.Setup{Workload: "hosp", N: 1600, FDs: fds, ErrorRate: 0.04, Seed: 7})
		for _, algo := range []eval.AlgoSpec{greedyM(repair.Options{}), baselineSpec("URM")} {
			b.Run(fmt.Sprintf("%s/FDs=%d", algo.Name, fds), func(b *testing.B) {
				benchRepair(b, inst, algo)
			})
		}
	}
}

func BenchmarkFig13BaselinesVaryRate(b *testing.B) {
	for _, e := range []float64{0.02, 0.10} {
		inst := instance(b, eval.Setup{Workload: "tax", N: 1200, ErrorRate: e, Seed: 7})
		for _, algo := range []eval.AlgoSpec{approM(repair.Options{}), baselineSpec("Llunatic")} {
			b.Run(fmt.Sprintf("%s/e=%g", algo.Name, e), func(b *testing.B) {
				benchRepair(b, inst, algo)
			})
		}
	}
}

func BenchmarkFig14BaselineTimeVaryN(b *testing.B) {
	for _, n := range []int{800, 3200} {
		inst := instance(b, eval.Setup{Workload: "tax", N: n, ErrorRate: 0.04, Seed: 7})
		for _, algo := range []eval.AlgoSpec{approM(repair.Options{}), baselineSpec("NADEEF"), baselineSpec("Llunatic")} {
			b.Run(fmt.Sprintf("%s/N=%d", algo.Name, n), func(b *testing.B) {
				benchRepair(b, inst, algo)
			})
		}
	}
}

func BenchmarkFig15BaselineTimeVaryFDs(b *testing.B) {
	for _, fds := range []int{3, 9} {
		inst := instance(b, eval.Setup{Workload: "tax", N: 1200, FDs: fds, ErrorRate: 0.04, Seed: 7})
		for _, algo := range []eval.AlgoSpec{approM(repair.Options{}), baselineSpec("URM")} {
			b.Run(fmt.Sprintf("%s/FDs=%d", algo.Name, fds), func(b *testing.B) {
				benchRepair(b, inst, algo)
			})
		}
	}
}

func BenchmarkFig16BaselineTimeVaryRate(b *testing.B) {
	for _, e := range []float64{0.02, 0.10} {
		inst := instance(b, eval.Setup{Workload: "hosp", N: 1600, ErrorRate: e, Seed: 7})
		for _, algo := range []eval.AlgoSpec{greedyM(repair.Options{}), baselineSpec("NADEEF")} {
			b.Run(fmt.Sprintf("%s/e=%g", algo.Name, e), func(b *testing.B) {
				benchRepair(b, inst, algo)
			})
		}
	}
}

// --- Models of §3-§5 on the running example ------------------------------

// BenchmarkCitizensPipeline exercises the Fig. 2-4 machinery end to end:
// violation graph, best maximal independent set, target tree.
func BenchmarkCitizensPipeline(b *testing.B) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	set, err := fd.NewSet(fds, 0.2, 0.5, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(dirty)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repair.ExactM(dirty, set, cfg, repair.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationGrouping: violation-graph construction and single-FD
// greedy repair with tuple grouping on vs off (§3 "Tuple grouping").
func BenchmarkAblationGrouping(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 1600, FDs: 1, ErrorRate: 0.04, Seed: 7})
	f := inst.Set.FDs[0]
	for _, cfg := range []struct {
		name string
		opts vgraph.Options
	}{
		{"Grouped", vgraph.Options{}},
		{"Ungrouped", vgraph.Options{DisableGrouping: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := repair.GreedyS(inst.Dirty, f, inst.Cfg, inst.Set.Tau[0], repair.Options{Graph: cfg.opts})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkAblationIndex: q-gram-indexed graph construction vs all-pairs.
func BenchmarkAblationIndex(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 3200, FDs: 1, ErrorRate: 0.04, Seed: 7})
	f := inst.Set.FDs[0]
	for _, cfg := range []struct {
		name string
		opts vgraph.Options
	}{
		{"Indexed", vgraph.Options{}},
		{"AllPairs", vgraph.Options{DisableIndex: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := vgraph.Build(inst.Dirty, f, inst.Cfg, inst.Set.Tau[0], cfg.opts)
				_ = g.NumEdges()
			}
		})
	}
}

// BenchmarkAblationPruning: expansion search with and without the
// Theorem-4 bound pruning, and with the frequency order disabled.
func BenchmarkAblationPruning(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 800, FDs: 1, ErrorRate: 0.04, Seed: 7})
	f := inst.Set.FDs[0]
	g := vgraph.Build(inst.Dirty, f, inst.Cfg, inst.Set.Tau[0], vgraph.Options{})
	for _, cfg := range []struct {
		name string
		opts mis.Options
	}{
		{"Pruned", mis.Options{}},
		{"Unpruned", mis.Options{DisablePruning: true}},
		{"NaturalOrder", mis.Options{NaturalOrder: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mis.BestMIS(g, cfg.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTargetTree: nearest-target search through the §5 tree
// vs the linear scan over materialized targets.
func BenchmarkAblationTargetTree(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "tax", N: 2400, ErrorRate: 0.04, Seed: 7})
	for _, cfg := range []struct {
		name string
		opts repair.Options
	}{
		{"Tree", repair.Options{}},
		{"Scan", repair.Options{DisableTargetTree: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchRepair(b, inst, approM(cfg.opts))
		})
	}
}

// BenchmarkTargetTreeSearch isolates Nearest vs NearestScan on one tree.
func BenchmarkTargetTreeSearch(b *testing.B) {
	levels := []targettree.Level{
		{Attrs: []int{3, 4, 5}, Patterns: [][]string{
			{"New York", "Main", "Manhattan"},
			{"New York", "Western", "Queens"},
			{"Boston", "Main", "Financial"},
			{"Boston", "Arlingto", "Brookside"},
		}},
		{Attrs: []int{3, 6}, Patterns: [][]string{
			{"New York", "NY"}, {"Boston", "MA"},
		}},
	}
	tr, err := targettree.Build(levels)
	if err != nil {
		b.Fatal(err)
	}
	dirty, _ := gen.Citizens()
	cfg := fd.DefaultDistConfig(dirty)
	t4 := dirty.Tuples[3]
	score := make([]float64, tr.NumValues())
	for id := range score {
		col, v := tr.Value(int32(id))
		score[id] = cfg.AttrDist(col, t4[col], v)
	}
	b.Run("Nearest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Nearest(score, nil)
		}
	})
	b.Run("NearestScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.NearestScan(score, nil)
		}
	})
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkLevenshtein(b *testing.B) {
	b.Run("Full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strsim.Levenshtein("Indianapolis Memorial Hospital", "Indianapolis Memorial Hospitel")
		}
	})
	b.Run("Bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strsim.LevenshteinBounded("Indianapolis Memorial Hospital", "Indianapolis Memorial Hospitel", 2)
		}
	})
	b.Run("BoundedReject", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strsim.LevenshteinBounded("Indianapolis Memorial Hospital", "Sacramento Mercy Clinic", 2)
		}
	})
}

func BenchmarkGraphBuild(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 3200, ErrorRate: 0.04, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, f := range inst.Set.FDs {
			vgraph.Build(inst.Dirty, f, inst.Cfg, inst.Set.Tau[j], vgraph.Options{})
		}
	}
}

// BenchmarkGraphBuildWorkers sweeps the construction worker pool and the
// distance cache on the all-pairs path (the parallel build's worst case).
func BenchmarkGraphBuildWorkers(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 3200, FDs: 1, ErrorRate: 0.04, Seed: 7})
	f, tau := inst.Set.FDs[0], inst.Set.Tau[0]
	for _, v := range []struct {
		name    string
		workers int
		cache   bool
	}{
		{"w1/nocache", 1, false},
		{"w1/cache", 1, true},
		{"wmax/cache", 0, true}, // 0 = GOMAXPROCS
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := *inst.Cfg
			if v.cache {
				cfg.Cache = fd.NewDistCache()
			} else {
				cfg.Cache = nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vgraph.Build(inst.Dirty, f, &cfg, tau, vgraph.Options{DisableIndex: true, Workers: v.workers})
			}
		})
	}
}

// --- Extension benchmarks -------------------------------------------------

// BenchmarkIncremental measures per-tuple cost of append-time repair
// maintenance against a standing HOSP relation.
func BenchmarkIncremental(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 1600, ErrorRate: 0.04, Seed: 7})
	res, err := repair.GreedyM(inst.Dirty, inst.Set, inst.Cfg, repair.Options{})
	if err != nil {
		b.Fatal(err)
	}
	inc, err := repair.NewIncremental(res.Repaired, inst.Set, inst.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := inst.Dirty.Tuples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inc.Add(src[i%len(src)].Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscovery measures approximate FD discovery over a dirty
// instance.
func BenchmarkDiscovery(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 1600, ErrorRate: 0.04, Seed: 7})
	for _, lhs := range []int{1, 2} {
		b.Run(fmt.Sprintf("MaxLHS=%d", lhs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discover.FDs(inst.Dirty, discover.Options{MaxLHS: lhs, MaxError: 0.12, MinSupport: 0.2})
			}
		})
	}
}

// BenchmarkDetect measures detection-only throughput.
func BenchmarkDetect(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "tax", N: 1200, ErrorRate: 0.04, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repair.Detect(inst.Dirty, inst.Set, inst.Cfg, repair.Options{})
	}
}

// BenchmarkParallelComponents contrasts sequential and parallel component
// repair.
func BenchmarkParallelComponents(b *testing.B) {
	inst := instance(b, eval.Setup{Workload: "hosp", N: 3200, ErrorRate: 0.04, Seed: 7})
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("Parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.ApproM(inst.Dirty, inst.Set, inst.Cfg, repair.Options{Parallel: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
