package repair

import (
	"sort"
	"sync"
	"sync/atomic"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
	"ftrepair/internal/targettree"
	"ftrepair/internal/vgraph"
)

// unionAttrs returns the sorted union of constraint attributes of the FDs.
func unionAttrs(fds []*fd.FD) []int {
	seen := make(map[int]bool)
	var out []int
	for _, f := range fds {
		for _, c := range f.Attrs() {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Ints(out)
	return out
}

// levelFor turns one FD's independent set (vertex ids) into a target-tree
// level.
func levelFor(g *vgraph.Graph, set []int) targettree.Level {
	attrs := g.FD.Attrs()
	l := targettree.Level{Attrs: attrs}
	for _, v := range set {
		l.Patterns = append(l.Patterns, g.Vertices[v].Rep.Project(attrs))
	}
	return l
}

// levelsFor turns per-FD independent sets into target-tree levels.
func levelsFor(graphs []*vgraph.Graph, sets [][]int) []targettree.Level {
	levels := make([]targettree.Level, len(graphs))
	for i, g := range graphs {
		levels[i] = levelFor(g, sets[i])
	}
	return levels
}

// tupleGroup is a set of rows sharing the same projection over the
// component's attributes; they repair identically.
type tupleGroup struct {
	rep  dataset.Tuple
	rows []int
}

// groupTuples groups the relation's rows by their projection over attrs.
func groupTuples(rel *dataset.Relation, attrs []int) []tupleGroup {
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

// memberBits builds the membership bitset of one FD's chosen independent
// set, canonicalized per projection-key class: bit Canon(v) stands for
// "some vertex with v's projection is chosen" — exactly the predicate the
// former map[string]bool of projection keys answered, without the
// per-query key-string allocation.
func memberBits(g *vgraph.Graph, set []int) bitset.Set {
	b := bitset.New(len(g.Vertices))
	for _, v := range set {
		b.Set(g.Canon(v))
	}
	return b
}

// chosenBits builds, per FD, the canonical membership bitset of the chosen
// independent set.
func chosenBits(graphs []*vgraph.Graph, sets [][]int) []bitset.Set {
	chosen := make([]bitset.Set, len(graphs))
	for i, g := range graphs {
		chosen[i] = memberBits(g, sets[i])
	}
	return chosen
}

// planner evaluates repair plans — per-FD independent sets joined into a
// target tree — over a fixed grouping of the relation's rows. The group
// Nearest searches of one plan are independent, so costs fans them across
// workers goroutines; the cost reduction always folds in group order, so
// totals are bitwise identical at any worker count.
//
// costs may be called from many goroutines over one planner (ExactM's
// combination workers share it, each evaluating its plans on one
// goroutine), so all per-evaluation scratch comes from a sync.Pool rather
// than planner fields.
type planner struct {
	groups      []tupleGroup
	graphs      []*vgraph.Graph
	cfg         *fd.DistConfig
	disableTree bool
	cancel      <-chan struct{}
	// workers bounds the per-plan fan-out; values below 2 evaluate
	// sequentially.
	workers int
	// vertexOf[i][gi] is graph i's canonical vertex carrying group gi's
	// projection, or -1 when the projection has no vertex (then the group
	// always repairs). Precomputed once, it turns the per-combination
	// needs-repair test into a bitset probe — no key strings, no map hits.
	vertexOf [][]int32
	// span, when non-nil, is the parent span under which costs opens a
	// distance child covering the nearest-target searches. Only the
	// single-evaluation callers (applyJoinedSets) set it: ExactM calls costs
	// once per combination and a per-combination child span would swamp the
	// trace.
	span *obs.Span
}

// newPlanner builds a planner over a fixed grouping, precomputing the
// group-to-vertex resolution per graph.
func newPlanner(groups []tupleGroup, graphs []*vgraph.Graph, cfg *fd.DistConfig, disableTree bool, cancel <-chan struct{}, workers int) *planner {
	p := &planner{
		groups:      groups,
		graphs:      graphs,
		cfg:         cfg,
		disableTree: disableTree,
		cancel:      cancel,
		workers:     workers,
	}
	p.vertexOf = make([][]int32, len(graphs))
	for i, g := range graphs {
		col := make([]int32, len(groups))
		for gi := range groups {
			if v, ok := g.Lookup(groups[gi].rep); ok {
				col[gi] = int32(g.Canon(v))
			} else {
				col[gi] = -1
			}
		}
		p.vertexOf[i] = col
	}
	return p
}

// needsRepair reports whether group gi's representative has a projection
// outside some FD's chosen set.
func (p *planner) needsRepair(gi int, chosen []bitset.Set) bool {
	for i := range chosen {
		v := p.vertexOf[i][gi]
		if v < 0 || !chosen[i].Has(int(v)) {
			return true
		}
	}
	return false
}

// planScratch is the pooled per-evaluation scratch of planner.costs: the
// repairing-group index list and the parallel path's result buffer.
type planScratch struct {
	needs []int
	res   []groupResult
}

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// groupResult is one group's nearest-target answer.
type groupResult struct {
	tg      targettree.Target
	cost    float64
	visited int
}

// costs evaluates the total cost of repairing the relation with the given
// chosen-set keys and target-tree levels, also returning the chosen target
// per group (nil for groups that keep their values). abortAbove, when
// non-nil, supplies the incumbent cost to prune against: evaluation stops
// with ok=false as soon as the accumulated (group-ordered) cost exceeds
// it. It is re-read after every group, so a concurrently improving
// incumbent (exactComponent's watermark) tightens pruning mid-plan; since
// the incumbent never rises and the fold order is fixed, a plan at least
// as cheap as the final incumbent is never aborted. Pruning needs the
// sequential path, so callers that pass abortAbove use one worker. A fired
// cancel channel also stops evaluation with ok=false.
func (p *planner) costs(chosen []bitset.Set, levels []targettree.Level, abortAbove func() float64) (targets []*targettree.Target, cost float64, visited int, ok bool) {
	tree, err := targettree.Build(levels)
	if err != nil {
		return nil, 0, 0, false
	}
	codes := valueCodes(tree, p.cfg)
	if p.span != nil {
		// The remainder of the evaluation is the distance-dominated nearest
		// searches; the child span makes that share visible under the
		// parent targetsearch phase.
		ds := p.span.Child(obs.PhaseDistance)
		defer ds.End()
	}
	sc := planScratchPool.Get().(*planScratch)
	defer planScratchPool.Put(sc)
	targets = make([]*targettree.Target, len(p.groups))
	// needs collects the indices of groups that actually repair; the
	// nearest-target searches below only run for those.
	needs := sc.needs[:0]
	for gi := range p.groups {
		if p.needsRepair(gi, chosen) {
			needs = append(needs, gi)
		}
	}
	sc.needs = needs
	if p.workers >= 2 && len(needs) >= 2*p.workers {
		return p.costsParallel(tree, codes, targets, needs, sc)
	}
	for _, gi := range needs {
		if canceled(p.cancel) {
			return nil, cost, visited, false
		}
		g := &p.groups[gi]
		res := p.nearest(tree, codes, g.rep)
		visited += res.visited
		targets[gi] = &res.tg
		cost += float64(len(g.rows)) * res.cost
		if abortAbove != nil && cost > abortAbove() {
			return nil, cost, visited, false
		}
	}
	return targets, cost, visited, true
}

// costsParallel is the fan-out path of costs: workers claim groups by
// index and search them, then the results fold sequentially in group order,
// so the cost accumulation is independent of scheduling. It takes no abort
// threshold, so every group is searched; workers poll cancel per group. The
// result buffer is pooled scratch, so each target is copied out in the
// fold.
func (p *planner) costsParallel(tree *targettree.Tree, codes []int32, targets []*targettree.Target, needs []int, sc *planScratch) (_ []*targettree.Target, cost float64, visited int, ok bool) {
	if cap(sc.res) < len(needs) {
		sc.res = make([]groupResult, len(needs))
	}
	res := sc.res[:len(needs)]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(needs) || canceled(p.cancel) {
					return
				}
				res[k] = p.nearest(tree, codes, p.groups[needs[k]].rep)
			}
		}()
	}
	wg.Wait()
	if canceled(p.cancel) {
		return nil, 0, 0, false
	}
	for k, gi := range needs {
		visited += res[k].visited
		tg := res[k].tg
		targets[gi] = &tg
		cost += float64(len(p.groups[gi].rows)) * res[k].cost
	}
	return targets, cost, visited, true
}

// valueCodes resolves every tree value's distance-plane code once per tree
// (-1 where no plane holds the value), the table the searches' scorers
// read.
func valueCodes(tree *targettree.Tree, cfg *fd.DistConfig) []int32 {
	codes := make([]int32, tree.NumValues())
	for id := range codes {
		col, v := tree.Value(int32(id))
		codes[id] = cfg.ValueCode(col, v)
	}
	return codes
}

// scoreByCode scores tree values for rs's tuple by their plane codes.
func scoreByCode(tree *targettree.Tree, codes []int32, rs *fd.RepairScorer) targettree.Scorer {
	return func(id int32) float64 {
		col, v := tree.Value(id)
		return rs.Score(col, codes[id], v)
	}
}

// nearest runs one group's target search through the configured strategy.
// The group's representative is held fixed in a RepairScorer, which scores
// the tree's values by their plane codes and shares its bit-parallel
// tables across every candidate the search visits.
func (p *planner) nearest(tree *targettree.Tree, codes []int32, rep dataset.Tuple) groupResult {
	var r groupResult
	rs := p.cfg.AcquireRepairScorer(rep)
	score := scoreByCode(tree, codes, rs)
	if p.disableTree {
		r.tg, r.cost, r.visited = tree.NearestScan(score, p.cancel)
	} else {
		r.tg, r.cost, r.visited = tree.Nearest(score, p.cancel)
	}
	rs.Release()
	return r
}

// applyPlan writes the chosen targets into out. When ev is non-nil, every
// cell whose value actually changes is recorded with its join-target
// justification (the target's columns and values plus the component's FD
// label, set by the caller on ev.fdLabel — plan repairs span every FD of
// the component, so no single violation edge applies).
func applyPlan(out *dataset.Relation, groups []tupleGroup, targets []*targettree.Target, cfg *fd.DistConfig, ev *eventBuf) {
	for gi, tg := range targets {
		if tg == nil {
			continue
		}
		var tmpl ledger.RepairEvent
		if ev != nil {
			tmpl = ledger.RepairEvent{
				FD:         ev.fdLabel,
				TargetCols: tg.Cols,
				Target:     tg.Vals,
			}
		}
		for _, row := range groups[gi].rows {
			for i, c := range tg.Cols {
				old := out.Tuples[row][c]
				out.Tuples[row][c] = tg.Vals[i]
				if ev != nil && old != tg.Vals[i] {
					ev.record(cellEvent(tmpl, out, cfg, row, c, old, tg.Vals[i]))
				}
			}
		}
	}
}
