package repair

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/targettree"
)

// scoreDraws are the dirty HOSP and Tax draws the target-search tests
// build GreedyM trees from; Tax's FDs cover numeric columns.
var scoreDraws = []struct {
	name string
	draw func(seed int64) (*dataset.Relation, []*fd.FD)
}{
	{"hosp", func(seed int64) (*dataset.Relation, []*fd.FD) {
		clean := gen.HOSP{Seed: seed}.Generate(400)
		fds := gen.HOSPFDs(clean.Schema)
		dirty, _ := gen.Inject(clean, fds, 0.06, seed+1)
		return dirty, fds
	}},
	{"tax", func(seed int64) (*dataset.Relation, []*fd.FD) {
		clean := gen.Tax{Seed: seed}.Generate(400)
		fds := gen.TaxFDs(clean.Schema)
		dirty, _ := gen.Inject(clean, fds, 0.06, seed+1)
		return dirty, fds
	}},
}

// flavorConfig returns a constructor of fresh configs over rel under one
// edit flavor, with a confidence weight on column conf when conf >= 0.
func flavorConfig(t *testing.T, rel *dataset.Relation, flavor fd.EditFlavor) func(conf int) *fd.DistConfig {
	return func(conf int) *fd.DistConfig {
		cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Edit = flavor
		cfg.AttachPlanes()
		if conf >= 0 {
			cfg.SetConfidence(conf, 2.5)
		}
		return cfg
	}
}

// TestCodeScorerMatchesStrings pins the planner's code-addressed score
// vectors to string vectors over DistConfig.RepairDist. The trees are
// GreedyM's joined levels on HOSP and Tax draws, under each edit flavor,
// with and without a confidence weight on one tree column. The queries
// are the relation's rows and rows of another draw, many of whose values
// no dictionary holds. Each side gets a fresh config, so both must pick
// the same target at the same cost bits after the same visits, and leave
// the same cache counters after every query.
func TestCodeScorerMatchesStrings(t *testing.T) {
	for _, d := range scoreDraws {
		rel, fds := d.draw(1)
		foreign, _ := d.draw(2)
		set, err := fd.NewSet(fds, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		queries := append(append([]dataset.Tuple{}, rel.Tuples[:200]...), foreign.Tuples[:50]...)
		for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
			newCfg := flavorConfig(t, rel, flavor)
			graphs, err := ComponentGraphs(rel, set, newCfg(-1))
			if err != nil {
				t.Fatal(err)
			}
			tree, err := targettree.Build(levelsFor(graphs, jointGreedySets(rel, graphs, nil).sets))
			if err != nil {
				t.Fatalf("%s flavor %d: %v", d.name, flavor, err)
			}
			for _, conf := range []int{-1, tree.Cols()[0]} {
				code, str := newCfg(conf), newCfg(conf)
				codes := valueCodes(tree, code)
				var vec []float64
				svec := make([]float64, tree.NumValues())
				for qi, q := range queries {
					rs := code.AcquireRepairScorer(q)
					vec = scoreValues(tree, codes, rs, vec)
					rs.Release()
					for id := range svec {
						col, v := tree.Value(int32(id))
						svec[id] = str.RepairDist(col, q[col], v)
					}
					tg, cost, visited := tree.Nearest(vec, nil)
					stg, scost, svisited := tree.Nearest(svec, nil)
					if qi%25 == 0 {
						// The scan ablation reads the same vectors.
						tg2, cost2, _ := tree.NearestScan(vec, nil)
						stg2, scost2, _ := tree.NearestScan(svec, nil)
						if !reflect.DeepEqual(tg2, stg2) || math.Float64bits(cost2) != math.Float64bits(scost2) {
							t.Fatalf("%s flavor %d conf %d query %d: scan %v at %v, string scan %v at %v",
								d.name, flavor, conf, qi, tg2.Vals, cost2, stg2.Vals, scost2)
						}
					}
					if !reflect.DeepEqual(tg, stg) || math.Float64bits(cost) != math.Float64bits(scost) || visited != svisited {
						t.Fatalf("%s flavor %d conf %d query %d: %v at %v (%d visited), string scorer %v at %v (%d visited)",
							d.name, flavor, conf, qi, tg.Vals, cost, visited, stg.Vals, scost, svisited)
					}
					h, m := code.Cache.Counters()
					sh, sm := str.Cache.Counters()
					ph, pm := code.Cache.PlaneCounters()
					sph, spm := str.Cache.PlaneCounters()
					if h != sh || m != sm || ph != sph || pm != spm {
						t.Fatalf("%s flavor %d conf %d query %d: counters %d/%d (plane %d/%d), string scorer %d/%d (plane %d/%d)",
							d.name, flavor, conf, qi, h, m, ph, pm, sh, sm, sph, spm)
					}
				}
				// Misses beyond the plane's are uncached lookups: the
				// foreign rows' values.
				h, m := code.Cache.Counters()
				if _, pm := code.Cache.PlaneCounters(); h == 0 || pm == 0 || m == pm {
					t.Fatalf("%s flavor %d: counters %d/%d (plane misses %d); the queries no longer exercise plane hits, plane misses and uncached lookups",
						d.name, flavor, h, m, pm)
				}
			}
		}
	}
}

// perGroupCosts is the reference for planner.costs: it searches each
// repairing group in group order with a fresh dense vector from the
// group's own RepairScorer, and stops like costs once the accumulated
// cost exceeds abortAbove.
func perGroupCosts(p *planner, chosen []bitset.Set, levels []targettree.Level, abortAbove float64) (plan []*groupResult, cost float64, ok bool) {
	tree, err := targettree.Build(levels)
	if err != nil {
		return nil, 0, false
	}
	codes := valueCodes(tree, p.cfg)
	plan = make([]*groupResult, len(p.groups))
	var vec []float64
	for gi, g := range p.groups {
		if !p.needsRepair(gi, chosen) {
			continue
		}
		rs := p.cfg.AcquireRepairScorer(g.rep)
		vec = scoreValues(tree, codes, rs, vec)
		rs.Release()
		r := new(groupResult)
		if p.disableTree {
			r.tg, r.cost, r.visited = tree.NearestScan(vec, nil)
		} else {
			r.tg, r.cost, r.visited = tree.Nearest(vec, nil)
		}
		plan[gi] = r
		if cost += float64(len(g.rows)) * r.cost; cost > abortAbove {
			return nil, cost, false
		}
	}
	return plan, cost, true
}

// TestSharedScoresMatchPerGroup pins planner.costs, which scores each
// (column, value) that a repairing group carries once per tree and shares
// those scores across groups, to perGroupCosts. The plans are GreedyM's
// on HOSP and Tax draws under each edit flavor, without and with a
// confidence weight, for the tree search and the scan ablation, at 1, 2
// and 4 workers, and on one worker under an abort threshold that fires
// mid-plan. Each side gets a fresh config. Per group, the target, the cost
// bits and the visit count must match; per plan, ok must match, the cache
// misses must be equal and the hits fewer: sharing drops only repeated
// lookups.
func TestSharedScoresMatchPerGroup(t *testing.T) {
	for _, d := range scoreDraws {
		rel, fds := d.draw(1)
		set, err := fd.NewSet(fds, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
			newCfg := flavorConfig(t, rel, flavor)
			graphs, err := ComponentGraphs(rel, set, newCfg(-1))
			if err != nil {
				t.Fatal(err)
			}
			sets := jointGreedySets(rel, graphs, nil).sets
			chosen, levels := chosenBits(graphs, sets), levelsFor(graphs, sets)
			compFDs := make([]*fd.FD, len(graphs))
			for i, g := range graphs {
				compFDs[i] = g.FD
			}
			groups := groupTuples(rel, graphs)
			for _, conf := range []int{-1, fd.UnionAttrs(compFDs)[0]} {
				for _, scan := range []bool{false, true} {
					name := func(what string) string {
						return fmt.Sprintf("%s flavor %d conf %d scan %v %s", d.name, flavor, conf, scan, what)
					}
					check := func(what string, workers int, abort float64) {
						t.Helper()
						ref, shared := newCfg(conf), newCfg(conf)
						want, wantCost, wantOK := perGroupCosts(newPlanner(groups, graphs, ref, scan, nil, 1), chosen, levels, abort)
						p := newPlanner(groups, graphs, shared, scan, nil, workers)
						var abortAbove func() float64
						if !math.IsInf(abort, 1) {
							abortAbove = func() float64 { return abort }
						}
						plan, cost, _, ok := p.costs(chosen, levels, abortAbove)
						if ok != wantOK {
							t.Fatalf("%s: ok %v, per-group search %v", name(what), ok, wantOK)
						}
						if ok && math.Float64bits(cost) != math.Float64bits(wantCost) {
							t.Fatalf("%s: cost %v, per-group search %v", name(what), cost, wantCost)
						}
						for gi := range plan {
							g, w := plan[gi], want[gi]
							if (g == nil) != (w == nil) {
								t.Fatalf("%s group %d: planned %v, per-group search planned %v", name(what), gi, g != nil, w != nil)
							}
							if g != nil && (!reflect.DeepEqual(g.tg, w.tg) || math.Float64bits(g.cost) != math.Float64bits(w.cost) || g.visited != w.visited) {
								t.Fatalf("%s group %d: %v at %v (%d visited), per-group search %v at %v (%d visited)",
									name(what), gi, g.tg.Vals, g.cost, g.visited, w.tg.Vals, w.cost, w.visited)
							}
						}
						h, m := shared.Cache.Counters()
						rh, rm := ref.Cache.Counters()
						if m != rm || h >= rh {
							t.Fatalf("%s: hits/misses %d/%d, per-group search %d/%d; want equal misses and fewer hits",
								name(what), h, m, rh, rm)
						}
					}
					plan, total, ok := perGroupCosts(newPlanner(groups, graphs, newCfg(conf), scan, nil, 1), chosen, levels, math.Inf(1))
					repairing := 0
					for _, r := range plan {
						if r != nil {
							repairing++
						}
					}
					if !ok || total <= 0 || repairing < 8 {
						t.Fatalf("%s: %d repairing groups at cost %v (ok %v); 4 workers need 8 to fan out",
							name(""), repairing, total, ok)
					}
					for _, workers := range []int{1, 2, 4} {
						check(fmt.Sprintf("workers %d", workers), workers, math.Inf(1))
					}
					check("abort", 1, total/2)
				}
			}
		}
	}
}
