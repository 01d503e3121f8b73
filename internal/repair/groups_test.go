package repair

import (
	"fmt"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/vgraph"
)

// groupTuplesByKey is the string-keyed reference grouping: rows with equal
// Tuple.Key over attrs share a group, in first-occurrence row order.
func groupTuplesByKey(rel *dataset.Relation, attrs []int) []tupleGroup {
	byKey := make(map[string]int)
	var groups []tupleGroup
	for i, t := range rel.Tuples {
		k := t.Key(attrs)
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, tupleGroup{rep: t})
		}
		groups[gi].rows = append(groups[gi].rows, i)
	}
	return groups
}

// TestGroupsAndVertexOfMatchKeyReference holds groupTuples, which groups
// rows by their canonical vertex in every graph, and newPlanner's
// vertexOf, read off each group's first row, to the string-keyed
// reference: groups by Tuple.Key over the component's attributes, and
// each group's vertex by Graph.Lookup of its representative. It runs on
// the largest multi-FD component of HOSP and Tax draws, with grouped and
// ungrouped graphs, and on a single graph.
func TestGroupsAndVertexOfMatchKeyReference(t *testing.T) {
	for _, d := range scoreDraws {
		for seed := int64(1); seed <= 2; seed++ {
			rel, fds := d.draw(seed)
			set, err := fd.NewSet(fds, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			var comp []int
			for _, c := range set.Components() {
				if len(c) > len(comp) {
					comp = c
				}
			}
			sub := set.Subset(comp)
			for _, ungrouped := range []bool{false, true} {
				all := vgraph.BuildSet(rel, sub.FDs, cfg, sub.Tau, vgraph.Options{DisableGrouping: ungrouped})
				for _, graphs := range [][]*vgraph.Graph{all, all[:1]} {
					name := fmt.Sprintf("%s seed %d ungrouped %v graphs %d", d.name, seed, ungrouped, len(graphs))
					fdsOf := make([]*fd.FD, len(graphs))
					for i, g := range graphs {
						fdsOf[i] = g.FD
					}
					want := groupTuplesByKey(rel, unionAttrs(fdsOf))
					got := groupTuples(rel, graphs)
					if len(got) != len(want) {
						t.Fatalf("%s: %d groups, reference %d", name, len(got), len(want))
					}
					for gi := range want {
						if fmt.Sprint(got[gi].rows) != fmt.Sprint(want[gi].rows) || &got[gi].rep[0] != &want[gi].rep[0] {
							t.Fatalf("%s: group %d rows %v, reference %v", name, gi, got[gi].rows, want[gi].rows)
						}
					}
					p := newPlanner(got, graphs, cfg, false, nil, 1)
					for i, g := range graphs {
						for gi := range want {
							v, ok := g.Lookup(want[gi].rep)
							if !ok || p.vertexOf[i][gi] != int32(g.Canon(v)) {
								t.Fatalf("%s: graph %d group %d vertex %d, Lookup %d (%v)", name, i, gi, p.vertexOf[i][gi], g.Canon(v), ok)
							}
						}
					}
				}
			}
		}
	}
}
