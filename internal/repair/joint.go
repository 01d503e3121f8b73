package repair

import (
	"math"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/vgraph"
)

// jointState is the shared growth state of Algorithm 4 (§4.4): one
// independent set per FD growing interleaved, plus the Eq-12 cost model
// with its cross-FD synchronization term. The naive rescan
// (jointGreedySetsNaive) evaluates Eq. 12 literally; the heap path
// (jointGreedySets) skips the sync term where a doomed pattern has a single
// admissible target and memoizes it elsewhere. Both shortcuts are exact, so
// their candidate scores are bitwise equal.
type jointState struct {
	rel    *dataset.Relation
	graphs []*vgraph.Graph
	inSet  [][]bool
	// blocked[i][v]: v conflicts with FD i's chosen set.
	blocked [][]bool
	sets    [][]int
	// overlaps[i] lists the FDs j != i sharing an attribute with i.
	overlaps [][]int
	// violCache memoizes ViolatorCount per FD by projection key, since
	// hypothetical repairs repeatedly produce the same patterns.
	violCache []map[string]int
	// syncMemo[i] memoizes syncDelta for FD i by row<<32 | target for the
	// whole growth: the term reads the relation, the graphs and violCache,
	// never the growing sets. nil on the literal (naive) state.
	syncMemo []map[uint64]int32
	// adj[i][w] == v marks w as a neighbor of v, the candidate of FD i
	// whose tupleCost is being evaluated, and allowed is bestRepairCost's
	// reused target buffer. Both serve the heap path only: the literal
	// state asks Graph.Edge, so the two paths answer adjacency
	// independently.
	adj     [][]int32
	allowed []choice
	scratch dataset.Tuple
	// minOmega[i][v]: the floor of v's repair cost in FD i if excluded,
	// under the same multiplicity restriction bestRepairCost applies
	// (falling back to the overall cheapest edge when no neighbor is
	// frequent enough).
	minOmega [][]float64
	added    int
	// syncEvals counts syncMemo fills, violatorSearches the violCache
	// misses on projections that are not vertices (ViolatorCount verifies
	// the candidates the build's kept q-gram matches name, and runs no
	// search for a probe value the build searched), and singleTarget the
	// doomed-pattern evaluations that skipped the sync term.
	syncEvals, violatorSearches, singleTarget int
}

// newJointState prepares the growth state; memo selects the heap path's
// exact shortcuts (single-target skip, syncDelta memo) over the literal
// Eq-12 rule.
func newJointState(rel *dataset.Relation, graphs []*vgraph.Graph, memo bool) *jointState {
	n := len(graphs)
	js := &jointState{
		rel:       rel,
		graphs:    graphs,
		inSet:     make([][]bool, n),
		blocked:   make([][]bool, n),
		sets:      make([][]int, n),
		overlaps:  make([][]int, n),
		violCache: make([]map[string]int, n),
		scratch:   make(dataset.Tuple, rel.Schema.Len()),
		minOmega:  make([][]float64, n),
	}
	if memo {
		js.syncMemo = make([]map[uint64]int32, n)
		js.adj = make([][]int32, n)
	}
	for i, g := range graphs {
		js.inSet[i] = make([]bool, len(g.Vertices))
		js.blocked[i] = make([]bool, len(g.Vertices))
		js.violCache[i] = make(map[string]int)
		if memo {
			js.syncMemo[i] = make(map[uint64]int32)
			js.adj[i] = make([]int32, len(g.Vertices))
			for v := range js.adj[i] {
				js.adj[i][v] = -1
			}
		}
		for j := range graphs {
			if i != j && g.FD.SharesAttrs(graphs[j].FD) {
				js.overlaps[i] = append(js.overlaps[i], j)
			}
		}
		js.minOmega[i] = make([]float64, len(g.Vertices))
		for v := range g.Vertices {
			best := math.Inf(1)
			restricted := math.Inf(1)
			for _, e := range g.Neighbors(v) {
				if e.W < best {
					best = e.W
				}
				if g.Vertices[e.To].Mult() >= g.Vertices[v].Mult() && e.W < restricted {
					restricted = e.W
				}
			}
			switch {
			case !math.IsInf(restricted, 1):
				js.minOmega[i][v] = restricted
			case !math.IsInf(best, 1):
				js.minOmega[i][v] = best
			}
		}
	}
	return js
}

// valid reports whether vertex v of FD i is still a candidate.
func (js *jointState) valid(i, v int) bool { return !js.inSet[i][v] && !js.blocked[i][v] }

func (js *jointState) violators(j int, t dataset.Tuple) int {
	g := js.graphs[j]
	k := t.Key(g.FD.Attrs())
	if c, ok := js.violCache[j][k]; ok {
		return c
	}
	if _, ok := g.Lookup(t); !ok {
		js.violatorSearches++
	}
	c := g.ViolatorCount(t)
	js.violCache[j][k] = c
	return c
}

// syncDelta scores the cross-FD effect of repairing row r's FD-i
// attributes to the pattern of vertex w: for every overlapping FD j,
// (violations of the row's new j-projection) minus (violations of its
// old one). The old pattern still counts as a violator of the new one
// unless the row was its only carrier.
func (js *jointState) syncDelta(i, row, w int) int {
	delta := 0
	rowTuple := js.rel.Tuples[row]
	wRep := js.graphs[i].Vertices[w].Rep
	scratch := js.scratch
	for _, j := range js.overlaps[i] {
		gj := js.graphs[j]
		// Build the row's hypothetical tuple after the FD-i repair.
		copy(scratch, rowTuple)
		changed := false
		for _, c := range js.graphs[i].FD.Attrs() {
			if scratch[c] != wRep[c] {
				scratch[c] = wRep[c]
				changed = true
			}
		}
		if !changed {
			continue
		}
		oldV := gj.Canon(gj.RowVertex(row))
		// Did the j-projection actually change?
		same := true
		for _, c := range gj.FD.Attrs() {
			if scratch[c] != rowTuple[c] {
				same = false
				break
			}
		}
		if same {
			continue
		}
		newViol := js.violators(j, scratch)
		if gj.Vertices[oldV].Mult() == 1 && gj.FTAdjacent(scratch, oldV) {
			// The old pattern is vacated by this repair, so it no
			// longer counts as a triggered violation.
			newViol--
		}
		delta += newViol - gj.Degree(oldV)
	}
	return delta
}

// sync is syncDelta(i, row, w), read through syncMemo when the state has
// one.
func (js *jointState) sync(i, row, w int) int {
	if js.syncMemo == nil {
		return js.syncDelta(i, row, w)
	}
	k := uint64(row)<<32 | uint64(w)
	if s, ok := js.syncMemo[i][k]; ok {
		return int(s)
	}
	s := js.syncDelta(i, row, w)
	js.syncMemo[i][k] = int32(s)
	js.syncEvals++
	return s
}

// choice is one admissible repair target of a doomed vertex and the
// repair weight to it.
type choice struct {
	w  int
	wt float64
}

// bestRepairCost picks, per row of doomed vertex u (FD i), the target
// w minimizing (syncDelta, weight) among the allowed targets — the
// candidate v itself, members of the set, or vertices not in conflict
// with the set — and returns the summed repair weight (Eq. 12). wuv is the
// weight of the edge (u, v).
//
// Targets are additionally restricted to multiplicity at least u's own:
// repairs flow toward equally or more frequent patterns. Without this,
// the cost model's absorption property (see DESIGN.md §6) lets a
// one-tuple typo become the designated repair target of the
// high-multiplicity pattern it derives from, and the joint greedy then
// dooms the legitimate pattern "for free".
func (js *jointState) bestRepairCost(i, u, v int, wuv float64) float64 {
	g := js.graphs[i]
	uMult := g.Vertices[u].Mult()
	allowed := js.allowed[:0]
	for _, e := range g.Neighbors(u) {
		w := e.To
		if g.Vertices[w].Mult() < uMult {
			continue
		}
		if w != v {
			if js.blocked[i][w] {
				continue // conflicts with the chosen set
			}
			if js.adjacent(i, w, v) {
				continue // conflicts with the candidate
			}
		}
		allowed = append(allowed, choice{w, e.W})
	}
	js.allowed = allowed
	if len(allowed) == 0 {
		// No frequent-enough target: account the doom as a repair to
		// the candidate itself. This is what makes dooming a
		// high-multiplicity pattern expensive for a junk candidate.
		return float64(uMult) * wuv
	}
	var total float64
	rows := g.Vertices[u].Rows
	if len(allowed) == 1 && js.syncMemo != nil {
		// Every row takes the only target whatever its sync term. Summing
		// per row keeps the float bits of the literal rule.
		js.singleTarget++
		for range rows {
			total += allowed[0].wt
		}
		return total
	}
	for _, row := range rows {
		bestWt := math.Inf(1)
		bestSync := 1 << 30
		for _, c := range allowed {
			s := js.sync(i, row, c.w)
			if s < bestSync || (s == bestSync && c.wt < bestWt) {
				bestSync, bestWt = s, c.wt
			}
		}
		total += bestWt
	}
	return total
}

// adjacent reports whether w is a neighbor of the candidate v of FD i: from
// the marks tupleCost(i, v) set on the heap path, from Graph.Edge on the
// literal one.
func (js *jointState) adjacent(i, w, v int) bool {
	if js.adj != nil {
		return js.adj[i][w] == int32(v)
	}
	_, ok := js.graphs[i].Edge(w, v)
	return ok
}

// tupleCost is Eq. 12 for candidate v of FD i — the best-repair cost of
// every neighbor this addition newly dooms, normalized by each
// neighbor's unavoidable floor — minus the candidate's own avoided
// repair cost (the same normalization GreedyS uses; see greedySetNaive).
func (js *jointState) tupleCost(i, v int) float64 {
	g := js.graphs[i]
	if js.adj != nil {
		for _, e := range g.Neighbors(v) {
			js.adj[i][e.To] = int32(v)
		}
	}
	var total float64
	for _, e := range g.Neighbors(v) {
		if !js.blocked[i][e.To] && !js.inSet[i][e.To] {
			total += js.bestRepairCost(i, e.To, v, e.W) - float64(g.Vertices[e.To].Mult())*js.minOmega[i][e.To]
		}
	}
	total -= float64(g.Vertices[v].Mult()) * js.minOmega[i][v]
	return total
}

// takeOver replicates the naive selection comparison: candidate (i, v)
// with cost c displaces the incumbent (bestI, bestV) at bestCost when it
// is cheaper beyond fd.Eps, or within eps with strictly higher
// multiplicity (then FD order, then id — the scan order), or when there is
// no incumbent yet.
func (js *jointState) takeOver(c float64, i, v int, bestCost float64, bestI, bestV int) bool {
	take := c < bestCost-fd.Eps
	if !take && c <= bestCost+fd.Eps && bestI >= 0 {
		// Exact ties break toward higher multiplicity (see
		// greedyScorer.better), then FD order, then id.
		mv, mb := js.graphs[i].Vertices[v].Mult(), js.graphs[bestI].Vertices[bestV].Mult()
		take = mv > mb
	}
	return take || bestI < 0
}

// add commits vertex v to FD i's set, dooms its unchosen neighbors, and
// reports every candidate whose cached cost may have changed through mark.
// A candidate's cost reads the blocked status of its neighbors' allowed
// targets — vertices up to two hops from the candidate — and blocking
// reaches one hop from v, so costs within three hops of v can change.
func (js *jointState) add(i, v int, mark func(fdIdx, u int)) {
	g := js.graphs[i]
	js.inSet[i][v] = true
	js.sets[i] = append(js.sets[i], v)
	js.added++
	for _, e := range g.Neighbors(v) {
		if !js.inSet[i][e.To] {
			js.blocked[i][e.To] = true
		}
	}
	for _, e := range g.Neighbors(v) {
		mark(i, e.To)
		for _, e2 := range g.Neighbors(e.To) {
			mark(i, e2.To)
			for _, e3 := range g.Neighbors(e2.To) {
				mark(i, e3.To)
			}
		}
	}
}

// jointGreedySets grows one independent set per FD, interleaved (§4.4,
// Algorithm 4), on the indexed-heap growth path. Each step adds the
// (FD, pattern) candidate with the smallest tuple cost (Eq. 12): the cost
// of repairing the candidate's newly-doomed neighbors to their per-row
// best targets, where a row's best target is chosen to maximize violations
// eliminated minus violations triggered across the connected FDs (ties
// broken by repair weight). This is what lets the same doomed pattern
// repair differently in different tuples — (Boston, NY) becomes
// (New York, NY) in t5 but (Boston, MA) in t10 of the running example.
// Output is bit-identical to jointGreedySetsNaive on any input. The
// returned state holds the sets and the growth's counters.
func jointGreedySets(rel *dataset.Relation, graphs []*vgraph.Graph, cancel <-chan struct{}) *jointState {
	js := newJointState(rel, graphs, true)
	ver := make([][]uint32, len(graphs))
	total := 0
	for i, g := range graphs {
		ver[i] = make([]uint32, len(g.Vertices))
		total += len(g.Vertices)
	}
	h := make(scoreHeap, 0, total)
	for i, g := range graphs {
		for v := range g.Vertices {
			h = append(h, scoreEntry{score: js.tupleCost(i, v), mult: g.Vertices[v].Mult(), fd: i, id: v})
		}
	}
	h.init()
	live := func(e scoreEntry) bool { return e.ver == ver[e.fd][e.id] && js.valid(e.fd, e.id) }
	// stamp dedupes the three-hop rescore walk within one round.
	stamp := make([][]int, len(graphs))
	for i, g := range graphs {
		stamp[i] = make([]int, len(g.Vertices))
		for v := range stamp[i] {
			stamp[i][v] = -1
		}
	}
	round := 0
	rescore := func(fdIdx, u int) {
		if stamp[fdIdx][u] == round {
			return
		}
		stamp[fdIdx][u] = round
		if !js.valid(fdIdx, u) {
			return
		}
		ver[fdIdx][u]++
		h.push(scoreEntry{
			score: js.tupleCost(fdIdx, u),
			mult:  js.graphs[fdIdx].Vertices[u].Mult(),
			fd:    fdIdx,
			id:    u,
			ver:   ver[fdIdx][u],
		})
	}
	for {
		if greedyStepHook != nil {
			greedyStepHook(js.added)
		}
		if canceled(cancel) {
			break
		}
		cands := h.popClosure(live)
		if cands == nil {
			break
		}
		// Replay the naive selection over the closure in naive scan order:
		// FD index, then vertex id.
		sortEntriesByFDID(cands)
		bestI, bestV := -1, -1
		bestCost := math.Inf(1)
		var bestK int
		for k, e := range cands {
			if js.takeOver(e.score, e.fd, e.id, bestCost, bestI, bestV) {
				bestI, bestV, bestCost, bestK = e.fd, e.id, e.score, k
			}
		}
		for k, e := range cands {
			if k != bestK {
				h.push(e)
			}
		}
		round++
		js.add(bestI, bestV, rescore)
	}
	return js
}

// jointGreedySetsNaive is the retained reference implementation of the
// joint greedy growth: every round rescans every unchosen candidate of
// every FD, caching Eq-12 costs and recomputing only those within three
// hops of the previous addition. Each cost follows the literal Eq-12 rule:
// every row of a doomed pattern, every admissible target, syncDelta
// recomputed each time. It anchors the heap path's equivalence tests and
// the repairbench speedup series.
func jointGreedySetsNaive(rel *dataset.Relation, graphs []*vgraph.Graph, cancel <-chan struct{}) *jointState {
	js := newJointState(rel, graphs, false)
	cost := make([][]float64, len(graphs))
	dirty := make([][]bool, len(graphs))
	for i, g := range graphs {
		cost[i] = make([]float64, len(g.Vertices))
		dirty[i] = make([]bool, len(g.Vertices))
		for v := range dirty[i] {
			dirty[i][v] = true
		}
	}
	mark := func(fdIdx, u int) { dirty[fdIdx][u] = true }
	for {
		if greedyStepHook != nil {
			greedyStepHook(js.added)
		}
		if canceled(cancel) {
			break
		}
		bestI, bestV := -1, -1
		bestCost := math.Inf(1)
		for i := range graphs {
			for v := range graphs[i].Vertices {
				if !js.valid(i, v) {
					continue
				}
				if dirty[i][v] {
					cost[i][v] = js.tupleCost(i, v)
					dirty[i][v] = false
				}
				if js.takeOver(cost[i][v], i, v, bestCost, bestI, bestV) {
					bestI, bestV, bestCost = i, v, cost[i][v]
				}
			}
		}
		if bestI < 0 {
			break
		}
		js.add(bestI, bestV, mark)
	}
	return js
}
