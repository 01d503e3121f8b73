package repair

import (
	"slices"
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

// groupTuples groups the rows of rel, the relation the graphs were built
// over, by their projection over the graphs' attributes: rows whose
// canonical vertices agree in every graph (vgraph.RowGroups), in
// first-occurrence row order.
func groupTuples(rel *dataset.Relation, graphs []*vgraph.Graph) []tupleGroup {
	rows := vgraph.RowGroups(graphs)
	groups := make([]tupleGroup, len(rows))
	for gi, rs := range rows {
		groups[gi] = tupleGroup{rep: rel.Tuples[rs[0]], rows: rs}
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
// RepairScorer.Score reads only the tuple's value in the scored column, so
// costs scores each (column, value) that a repairing group carries once per
// tree, into a score unit, and each search copies its units into a dense
// vector over the tree's value ids.
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
	// projection, read off the group's first row. Precomputed once, it
	// turns the per-combination needs-repair test into a bitset probe — no
	// key strings, no map hits.
	vertexOf [][]int32
	// cols are the component's attributes, sorted: every plan's tree
	// columns. keyOf[gi*len(cols)+c] numbers group gi's value in cols[c]
	// among the groups' distinct values, column after column (keys in all).
	cols  []int
	keyOf []int32
	keys  int
	// span, when non-nil, is the parent span under which costs opens a
	// distance child covering the score fills and nearest-target searches.
	// Only the single-evaluation callers (applyJoinedSets) set it: ExactM
	// calls costs once per combination and a per-combination child span
	// would swamp the trace.
	span *obs.Span
}

// newPlanner builds a planner over a fixed grouping, precomputing the
// group-to-vertex resolution per graph and the groups' value keys per
// column.
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
	fds := make([]*fd.FD, len(graphs))
	for i, g := range graphs {
		fds[i] = g.FD
		col := make([]int32, len(groups))
		for gi := range groups {
			col[gi] = int32(g.Canon(g.RowVertex(groups[gi].rows[0])))
		}
		p.vertexOf[i] = col
	}
	p.cols = fd.UnionAttrs(fds)
	p.keyOf = make([]int32, len(groups)*len(p.cols))
	for c, col := range p.cols {
		keys := make(map[string]int32)
		for gi := range groups {
			v := groups[gi].rep[col]
			k, ok := keys[v]
			if !ok {
				k = int32(p.keys)
				keys[v] = k
				p.keys++
			}
			p.keyOf[gi*len(p.cols)+c] = k
		}
	}
	return p
}

// needsRepair reports whether group gi's representative has a projection
// outside some FD's chosen set.
func (p *planner) needsRepair(gi int, chosen []bitset.Set) bool {
	for i := range chosen {
		if !chosen[i].Has(int(p.vertexOf[i][gi])) {
			return true
		}
	}
	return false
}

// scoreUnit is one plan's scores of one column value against the column's
// tree values: slab[off:off+n], n the column's id count. src is the first
// repairing group carrying the value.
type scoreUnit struct {
	col, src int32
	off      int
	filled   bool
}

// planScratch is the pooled per-evaluation scratch of planner.costs: the
// repairing-group index list, the score units (unit[key] is a value key's
// unit, or -1) with their slab, one score vector per worker, and the
// parallel path's result buffer.
type planScratch struct {
	needs      []int
	unit       []int32
	units      []scoreUnit
	slab, vecs []float64
	res        []groupResult
}

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// groupResult is one group's nearest-target answer.
type groupResult struct {
	tg      targettree.Target
	cost    float64
	visited int
}

// layout gives every value key a repairing group carries one unit, in the
// order the groups first carry them, and sizes the slab.
func (sc *planScratch) layout(p *planner, tree *targettree.Tree) {
	sc.unit = slices.Grow(sc.unit[:0], p.keys)[:p.keys]
	for k := range sc.unit {
		sc.unit[k] = -1
	}
	sc.units = sc.units[:0]
	size, nc := 0, len(p.cols)
	for _, gi := range sc.needs {
		for c, k := range p.keyOf[gi*nc : (gi+1)*nc] {
			if sc.unit[k] < 0 {
				sc.unit[k] = int32(len(sc.units))
				lo, hi := tree.ColumnIDs(c)
				sc.units = append(sc.units, scoreUnit{col: int32(c), src: int32(gi), off: size})
				size += int(hi - lo)
			}
		}
	}
	sc.slab = slices.Grow(sc.slab[:0], size)[:size]
}

// fill scores unit u's value, which rs's tuple holds, against its column's
// tree values.
func (p *planner) fill(tree *targettree.Tree, codes []int32, sc *planScratch, u *scoreUnit, rs *fd.RepairScorer) {
	col := p.cols[u.col]
	lo, hi := tree.ColumnIDs(int(u.col))
	for id := lo; id < hi; id++ {
		_, v := tree.Value(id)
		sc.slab[u.off+int(id-lo)] = rs.Score(col, codes[id], v)
	}
	u.filled = true
}

// search runs group gi's target search over the dense vector that its
// units, filled by now, copy into worker w's part of vecs.
func (p *planner) search(tree *targettree.Tree, sc *planScratch, w, gi int) groupResult {
	n, nc := tree.NumValues(), len(p.cols)
	vec := sc.vecs[w*n : (w+1)*n]
	for c, k := range p.keyOf[gi*nc : (gi+1)*nc] {
		lo, hi := tree.ColumnIDs(c)
		off := sc.units[sc.unit[k]].off
		copy(vec[lo:hi], sc.slab[off:])
	}
	var r groupResult
	if p.disableTree {
		r.tg, r.cost, r.visited = tree.NearestScan(vec, p.cancel)
	} else {
		r.tg, r.cost, r.visited = tree.Nearest(vec, p.cancel)
	}
	return r
}

// costs evaluates the total cost of repairing the relation with the given
// chosen-set keys and target-tree levels, also returning the chosen plan
// per group (nil for groups that keep their values). abortAbove, when
// non-nil, supplies the incumbent cost to prune against: evaluation stops
// with ok=false as soon as the accumulated (group-ordered) cost exceeds
// it. It is re-read after every group, so a concurrently improving
// incumbent (exactComponent's watermark) tightens pruning mid-plan; since
// the incumbent never rises and the fold order is fixed, a plan at least
// as cheap as the final incumbent is never aborted. Pruning needs the
// sequential path, so callers that pass abortAbove use one worker; that
// path fills a group's missing units just before its search, so an aborted
// plan scores nothing past its abort point. A fired cancel channel also
// stops evaluation with ok=false.
func (p *planner) costs(chosen []bitset.Set, levels []targettree.Level, abortAbove func() float64) (plan []*groupResult, cost float64, visited int, ok bool) {
	tree, err := targettree.Build(levels)
	if err != nil {
		return nil, 0, 0, false
	}
	codes := valueCodes(tree, p.cfg)
	if p.span != nil {
		// The remainder of the evaluation is the distance-dominated score
		// fills and nearest searches; the child span makes that share
		// visible under the parent targetsearch phase.
		ds := p.span.Child(obs.PhaseDistance)
		defer ds.End()
	}
	sc := planScratchPool.Get().(*planScratch)
	defer planScratchPool.Put(sc)
	plan = make([]*groupResult, len(p.groups))
	// needs collects the indices of groups that actually repair; the
	// nearest-target searches below only run for those.
	sc.needs = sc.needs[:0]
	for gi := range p.groups {
		if p.needsRepair(gi, chosen) {
			sc.needs = append(sc.needs, gi)
		}
	}
	sc.layout(p, tree)
	workers := 1
	if p.workers >= 2 && len(sc.needs) >= 2*p.workers {
		workers = p.workers
	}
	n := workers * tree.NumValues()
	sc.vecs = slices.Grow(sc.vecs[:0], n)[:n]
	if workers > 1 {
		return p.costsParallel(tree, codes, plan, sc)
	}
	nc := len(p.cols)
	for _, gi := range sc.needs {
		if canceled(p.cancel) {
			return nil, cost, visited, false
		}
		// The group's unfilled units are those it carries first.
		rs := p.cfg.AcquireRepairScorer(p.groups[gi].rep)
		for _, k := range p.keyOf[gi*nc : (gi+1)*nc] {
			if u := &sc.units[sc.unit[k]]; !u.filled {
				p.fill(tree, codes, sc, u, rs)
			}
		}
		rs.Release()
		r := p.search(tree, sc, 0, gi)
		visited += r.visited
		plan[gi] = &r
		cost += float64(len(p.groups[gi].rows)) * r.cost
		if abortAbove != nil && cost > abortAbove() {
			return nil, cost, visited, false
		}
	}
	return plan, cost, visited, true
}

// costsParallel is the fan-out path of costs. Workers first claim score
// units by index and fill them, each unit written by one goroutine; once
// every unit is filled they claim groups and search them. The results then
// fold sequentially in group order, so the cost accumulation is
// independent of scheduling. It takes no abort threshold, so every group is
// searched; workers poll cancel per unit and per group. The result buffer
// is pooled scratch, so each result is copied out in the fold.
func (p *planner) costsParallel(tree *targettree.Tree, codes []int32, plan []*groupResult, sc *planScratch) (_ []*groupResult, cost float64, visited int, ok bool) {
	needs := sc.needs
	if cap(sc.res) < len(needs) {
		sc.res = make([]groupResult, len(needs))
	}
	res := sc.res[:len(needs)]
	p.fanOut(len(sc.units), func(_, k int) {
		u := &sc.units[k]
		rs := p.cfg.AcquireRepairScorer(p.groups[u.src].rep)
		p.fill(tree, codes, sc, u, rs)
		rs.Release()
	})
	if canceled(p.cancel) {
		return nil, 0, 0, false
	}
	p.fanOut(len(needs), func(w, k int) { res[k] = p.search(tree, sc, w, needs[k]) })
	if canceled(p.cancel) {
		return nil, 0, 0, false
	}
	for k, gi := range needs {
		visited += res[k].visited
		r := res[k]
		plan[gi] = &r
		cost += float64(len(p.groups[gi].rows)) * r.cost
	}
	return plan, cost, visited, true
}

// fanOut runs do(w, k) for every k below n on p.workers goroutines, worker
// w claiming the next k by atomic index until none is left or cancel
// fires.
func (p *planner) fanOut(n int, do func(w, k int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n || canceled(p.cancel) {
					return
				}
				do(w, k)
			}
		}()
	}
	wg.Wait()
}

// valueCodes resolves every tree value's distance-plane code once per tree
// (-1 where no plane holds the value), the table the scorers read.
func valueCodes(tree *targettree.Tree, cfg *fd.DistConfig) []int32 {
	codes := make([]int32, tree.NumValues())
	for id := range codes {
		col, v := tree.Value(int32(id))
		codes[id] = cfg.ValueCode(col, v)
	}
	return codes
}

// scoreValues writes rs's score of every tree value, by the values' plane
// codes, into dst (grown to the tree's value count) and returns it.
func scoreValues(tree *targettree.Tree, codes []int32, rs *fd.RepairScorer, dst []float64) []float64 {
	dst = slices.Grow(dst[:0], tree.NumValues())[:tree.NumValues()]
	for id := range dst {
		col, v := tree.Value(int32(id))
		dst[id] = rs.Score(col, codes[id], v)
	}
	return dst
}

// applyPlan writes the chosen targets through out, skipping writes that
// change nothing. When ev is non-nil, every
// cell whose value actually changes is recorded with its join-target
// justification (the target's columns and values plus the component's FD
// label, set by the caller on ev.fdLabel — plan repairs span every FD of
// the component, so no single violation edge applies).
func applyPlan(out *output, groups []tupleGroup, plan []*groupResult, cfg *fd.DistConfig, ev *eventBuf) {
	for gi, r := range plan {
		if r == nil {
			continue
		}
		tg := &r.tg
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
				if old, changed := out.set(row, c, tg.Vals[i]); changed && ev != nil {
					ev.record(cellEvent(tmpl, out.rel, cfg, row, c, old, tg.Vals[i]))
				}
			}
		}
	}
}
