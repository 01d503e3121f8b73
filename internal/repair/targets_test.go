package repair

import (
	"math"
	"reflect"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/targettree"
)

// TestCodeScorerMatchesStrings pins the planner's code-addressed target
// search to a string scorer over DistConfig.RepairDist. The trees are
// GreedyM's joined levels on HOSP and Tax draws (Tax's FDs cover numeric
// columns), under each edit flavor, with and without a confidence weight
// on one tree column. The queries are the relation's rows and rows of
// another draw, many of whose values no dictionary holds. Each side gets
// a fresh config, so both must pick the same target at the same cost bits
// after the same visits, and leave the same cache counters after every
// query.
func TestCodeScorerMatchesStrings(t *testing.T) {
	draws := []struct {
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
	for _, d := range draws {
		rel, fds := d.draw(1)
		foreign, _ := d.draw(2)
		set, err := fd.NewSet(fds, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		queries := append(append([]dataset.Tuple{}, rel.Tuples[:200]...), foreign.Tuples[:50]...)
		for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
			newCfg := func(conf int) *fd.DistConfig {
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
				for qi, q := range queries {
					byString := func(id int32) float64 {
						col, v := tree.Value(id)
						return str.RepairDist(col, q[col], v)
					}
					rs := code.AcquireRepairScorer(q)
					tg, cost, visited := tree.Nearest(scoreByCode(tree, codes, rs), nil)
					stg, scost, svisited := tree.Nearest(byString, nil)
					if qi%25 == 0 {
						// The scan ablation scores through the same scorer.
						tg2, cost2, _ := tree.NearestScan(scoreByCode(tree, codes, rs), nil)
						stg2, scost2, _ := tree.NearestScan(byString, nil)
						if !reflect.DeepEqual(tg2, stg2) || math.Float64bits(cost2) != math.Float64bits(scost2) {
							t.Fatalf("%s flavor %d conf %d query %d: scan %v at %v, string scan %v at %v",
								d.name, flavor, conf, qi, tg2.Vals, cost2, stg2.Vals, scost2)
						}
					}
					rs.Release()
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
