package repair

import (
	"fmt"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/targettree"
	"ftrepair/internal/vgraph"
)

// This file exposes the repair-phase hot loops to the benchmark harness
// (internal/eval's RepairBench and the Go benchmarks), which need to time
// the naive and fast paths separately without re-deriving fixtures.

// GrowGreedy runs one Algorithm-2 growth over the graph: the retained
// full-rescan reference when naive is set, the indexed-heap path
// otherwise. Both return the same set on any input; only the time differs.
func GrowGreedy(g *vgraph.Graph, naive bool) []int {
	if naive {
		return greedySetNaive(g, nil)
	}
	return greedySet(g, nil)
}

// GrowGreedyInto is GrowGreedy with a caller-owned result buffer: the
// chosen set is appended to dst[:0] and returned. With a warm buffer the
// heap path performs zero allocations per run — the property the
// alloc-regression gate (TestGreedyGrowthSteadyStateAllocs) asserts. The
// naive path keeps its internal allocations; only the result lands in dst.
func GrowGreedyInto(g *vgraph.Graph, naive bool, dst []int) []int {
	if naive {
		return append(dst[:0], greedySetNaive(g, nil)...)
	}
	return growInto(g, nil, dst)
}

// GrowJoint runs one Algorithm-4 joint growth over the per-FD graphs:
// naive full-rescan reference or indexed-heap path.
func GrowJoint(rel *dataset.Relation, graphs []*vgraph.Graph, naive bool) [][]int {
	if naive {
		return jointGreedySetsNaive(rel, graphs, nil).sets
	}
	return jointGreedySets(rel, graphs, nil).sets
}

// PlanBench times repair-plan evaluation — one target-tree build plus a
// nearest-target search per repairing tuple group — over a fixed
// component, at configurable worker counts. Graphs, greedy sets, and
// grouping are prepared once; Run re-evaluates the plan only.
type PlanBench struct {
	p      *planner
	chosen []bitset.Set
	levels []targettree.Level
	// Groups counts the repairing tuple groups each evaluation searches.
	Groups int
	// FDs is the number of FDs in the chosen component.
	FDs int
	// Explored and Nodes are the prepared levels' target-tree counts: the
	// partial paths the join tries in its connected level order and the
	// nodes the tree keeps.
	Explored, Nodes int
}

// ComponentGraphs builds the violation graphs of the largest multi-FD
// component of the set, the component the plan-evaluation and joint-growth
// benchmarks run on (both are only interesting when FDs interact). It
// errors when every component is a single FD.
func ComponentGraphs(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig) ([]*vgraph.Graph, error) {
	var comp []int
	for _, c := range set.Components() {
		if len(c) >= 2 && len(c) > len(comp) {
			comp = c
		}
	}
	if comp == nil {
		return nil, fmt.Errorf("repair: no multi-FD component to benchmark")
	}
	return buildGraphs(rel, set.Subset(comp), cfg, Options{}), nil
}

// NewPlanBench prepares a plan evaluation over the largest multi-FD
// component of the set (see ComponentGraphs).
func NewPlanBench(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, disableTree bool) (*PlanBench, error) {
	graphs, err := ComponentGraphs(rel, set, cfg)
	if err != nil {
		return nil, err
	}
	sets := make([][]int, len(graphs))
	for i, g := range graphs {
		sets[i] = greedySet(g, nil)
	}
	groups := groupTuples(rel, graphs)
	b := &PlanBench{
		p:      newPlanner(groups, graphs, cfg, disableTree, nil, 0),
		chosen: chosenBits(graphs, sets),
		levels: levelsFor(graphs, sets),
		FDs:    len(graphs),
	}
	for gi := range groups {
		if b.p.needsRepair(gi, b.chosen) {
			b.Groups++
		}
	}
	tree, err := targettree.Build(b.levels)
	if err != nil {
		return nil, fmt.Errorf("repair: plan target tree: %w", err)
	}
	b.Explored, b.Nodes = tree.Explored, tree.Nodes
	return b, nil
}

// Run evaluates the prepared plan once with the given tuple-group worker
// count, returning its total cost and target-tree visit count.
func (b *PlanBench) Run(workers int) (cost float64, visited int, err error) {
	b.p.workers = workers
	_, cost, visited, ok := b.p.costs(b.chosen, b.levels, nil)
	if !ok {
		return cost, visited, fmt.Errorf("repair: plan evaluation failed (empty join?)")
	}
	return cost, visited, nil
}
