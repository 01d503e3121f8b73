// Package vgraph builds the paper's graph model (§3): for an FD φ, vertices
// are the distinct projections of the database onto φ's attributes (tuple
// grouping), and an undirected edge connects two vertices whose patterns are
// an FT-violation, weighted by their distance. Repair costs between grouped
// vertices scale the distance by the multiplicity of the vertex being
// repaired, realizing the paper's directed grouped graph G'.
//
// Construction is the pipeline's bottleneck (§6). A State builds every
// graph of an FD set over one relation at once: each FD column is encoded
// into value ids once, each probe column is q-gram self-joined once and
// shared by the FDs probing it, and candidate verification fans out across
// a worker pool. The state is appendable: rows added later extend the
// encodings, vertices, joins and edges, verifying only pairs with something
// new, and the graphs always equal a fresh build over all the rows.
// BuildSet is its one-batch case and Build its one-FD case. The result is
// deterministic: the same graphs, bit for bit, for any worker count and
// any split of the rows into appends — see Options.Workers.
//
// Each vertex keeps its adjacency list sorted by neighbour id, and
// vertices are a flat []Vertex slice; a one-batch build lays every list
// out in one arena. Every hot consumer (mis expansion, greedy growth, plan
// costing) addresses vertices by dense index, so traversal is
// pointer-free; the byKey map survives only for point lookups by
// projection key, and rows of the build's own relation find their vertex
// by index (RowVertex). A View restricts a graph to a row subset closed
// under its patterns and edges (an incremental engine's shard), renumbered
// as a fresh build over those rows would number it. A pooled builder reuses
// the per-worker edge lists and the degree counters across builds and
// appends.
package vgraph

import (
	"slices"
	"sort"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

// Vertex is a pattern vertex: one distinct projection of the relation onto
// the FD's attributes, together with the rows carrying it.
type Vertex struct {
	// Rep is a representative tuple holding the pattern's cell values (the
	// first tuple encountered with this projection).
	Rep dataset.Tuple
	// Rows lists the indices of all tuples sharing the projection.
	Rows []int
}

// Mult is the number of tuples grouped into the vertex.
func (v *Vertex) Mult() int { return len(v.Rows) }

// Edge is a weighted adjacency entry. W is the repair weight
// ω(u,v) = cost(u^φ, v^φ): the unweighted Eq-3 distance summed over the
// FD's attributes. D is the weighted Eq-2 distance that put the pair inside
// the threshold — the violation distance — recorded at build time so
// consumers (repair.Detect) need not re-derive it. (Edge existence is
// decided by D against τ; W is the repair cost model.)
type Edge struct {
	To int
	W  float64
	D  float64
}

// Graph is the violation graph of one FD over one relation.
type Graph struct {
	FD       *fd.FD
	Cfg      *fd.DistConfig
	Tau      float64
	Vertices []Vertex
	// adj[u] is vertex u's adjacency list, sorted by To; nedges counts the
	// undirected edges.
	adj    [][]Edge
	nedges int
	byKey  map[string]int
	// rowV[r] is the vertex holding row r of the relation the graph was
	// built over.
	rowV []int32
	// canon maps each vertex to the canonical vertex of its key class: nil
	// (identity) for grouped graphs, where keys are unique; for ungrouped
	// graphs the vertex byKey resolves the shared key to. Membership tests
	// by projection (repair's chosen-set bitsets) canonicalize through it.
	canon []int32
	// ungrouped marks graphs built with Options.DisableGrouping, where
	// distinct vertices may carry equal projections and must not be
	// connected.
	ungrouped bool
	// Probe state, retained after an indexed build so point queries
	// (ViolatorCount on unseen tuples) reuse the shared join's matches and
	// q-gram index instead of scanning every vertex. join is nil when the
	// graph was built all-pairs.
	join  *colJoin
	byVal [][]int // probe value id -> vertex indices carrying it
	// A view (View) answers point queries through the graph it restricts,
	// parent, keeping only its own vertices: ids[v] is view vertex v's
	// vertex in parent, ascending. Both are nil on built graphs.
	parent *Graph
	ids    []int32
}

// PatternDist is the Eq-3 repair cost between the patterns of two vertices:
// the unweighted sum of per-attribute distances over the FD's attributes.
func (g *Graph) PatternDist(u, v int) float64 {
	var sum float64
	tu, tv := g.Vertices[u].Rep, g.Vertices[v].Rep
	for _, c := range g.FD.Attrs() {
		sum += g.Cfg.RepairDist(c, tu[c], tv[c])
	}
	return sum
}

// Neighbors returns the adjacency list of vertex u, sorted by vertex id.
// Callers must not modify it.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree is the number of FT-violation partners of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edge reports the weight of edge (u,v) if present.
func (g *Graph) Edge(u, v int) (float64, bool) {
	es := g.Neighbors(u)
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if es[mid].To < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(es) && es[lo].To == v {
		return es[lo].W, true
	}
	return 0, false
}

// NumEdges counts undirected edges.
func (g *Graph) NumEdges() int { return g.nedges }

// RepairCost is the cost of repairing every tuple grouped in vertex `from`
// to the pattern of vertex `to`: multiplicity times pattern distance (the
// directed grouped-graph weight of §3).
func (g *Graph) RepairCost(from, to int) (float64, bool) {
	w, ok := g.Edge(from, to)
	if !ok {
		return 0, false
	}
	return float64(g.Vertices[from].Mult()) * w, true
}

// Canon returns the canonical vertex of v's projection-key class: v itself
// for grouped graphs (keys are unique), the vertex Lookup resolves the
// shared key to when grouping is disabled. Two vertices carry equal
// projections iff their Canon values coincide.
func (g *Graph) Canon(v int) int {
	if g.canon == nil {
		return v
	}
	return int(g.canon[v])
}

// Components returns the connected components of the violation graph as
// sorted vertex-id slices, ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := bitset.New(len(g.Vertices))
	var out [][]int
	for s := range g.Vertices {
		if seen.Has(s) {
			continue
		}
		var comp []int
		stack := []int{s}
		seen.Set(s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.Neighbors(u) {
				if !seen.Has(e.To) {
					seen.Set(e.To)
					stack = append(stack, e.To)
				}
			}
		}
		sort.Ints(comp)
		out = append(out, comp)
	}
	return out
}

// Lookup returns the vertex carrying the same projection as t, if any.
func (g *Graph) Lookup(t dataset.Tuple) (int, bool) {
	if g.parent != nil {
		if v, ok := g.parent.Lookup(t); ok {
			if lv, ok := g.local(v); ok {
				return lv, true
			}
		}
		return 0, false
	}
	v, ok := g.byKey[t.Key(g.FD.Attrs())]
	return v, ok
}

// local returns a view's vertex for the parent's vertex v, if the view
// holds it.
func (g *Graph) local(v int) (int, bool) {
	return slices.BinarySearch(g.ids, int32(v))
}

// RowVertex returns the vertex holding row r of the relation the graph was
// built over. Through Canon it answers for the row's tuple what Lookup
// does, without building a key.
func (g *Graph) RowVertex(r int) int { return int(g.rowV[r]) }

// ViolatorCount counts the vertices whose pattern FT-violates with t's
// projection: the projections differ and their weighted distance is within
// the graph's threshold. t need not correspond to an existing pattern, so
// this also scores hypothetical repairs (the "triggered violations" of
// §4.4).
//
// For unseen tuples of an indexed graph, the probe column's join narrows
// the scan: any vertex within total distance τ is within τ/w on the probe
// attribute, so the probe value's matches at τ/w lose no candidates and
// the O(V) scan drops to them. When the probe value is one the build
// joined, its kept matches serve; only another value (or any value after a
// canceled join) runs the q-gram search here. A view reads its parent's
// join and keeps the candidates it holds.
func (g *Graph) ViolatorCount(t dataset.Tuple) int {
	if v, ok := g.Lookup(t); ok {
		return g.Degree(v)
	}
	count := 0
	pm := g.Cfg.AcquirePairMatcher(g.FD, t)
	defer pm.Release()
	src := g
	if g.parent != nil {
		src = g.parent
	}
	if src.join != nil {
		for _, m := range src.join.matches(t[src.join.attr]) {
			for _, u := range src.byVal[m.ID] {
				if g.parent != nil {
					var ok bool
					if u, ok = g.local(u); !ok {
						continue
					}
				}
				if _, ok := pm.DistWithin(g.Tau, g.Vertices[u].Rep); ok {
					count++
				}
			}
		}
		return count
	}
	for u := range g.Vertices {
		if _, ok := pm.DistWithin(g.Tau, g.Vertices[u].Rep); ok {
			count++
		}
	}
	return count
}

// FTAdjacent reports whether tuple t's projection FT-violates vertex v's
// pattern.
func (g *Graph) FTAdjacent(t dataset.Tuple, v int) bool {
	if u, ok := g.Lookup(t); ok {
		if u == v {
			return false
		}
		_, adjacent := g.Edge(u, v)
		return adjacent
	}
	_, within := g.Cfg.DistWithin(g.FD, g.Tau, t, g.Vertices[v].Rep)
	return within
}

// View restricts the grouped graph g to rows, ascending row indices of the
// relation g was built over, for a run over the sub-relation of those rows.
// rows must hold every row of each vertex it touches, and the vertices of
// every edge of those vertices: an incremental engine's shard. The view
// then equals a fresh build over the sub-relation field for field, edge
// weights and distances included: its vertices keep g's order (a vertex's
// first row is in rows, and rows keep their order), vertex rows, row
// vertices and edge targets are renumbered to the view, and Lookup,
// ViolatorCount and FTAdjacent answer for the view's vertices only. A view
// shares g's vertex tuples and join, so g must not grow while the view is
// in use.
func (g *Graph) View(rows []int) *Graph {
	if g.ungrouped || g.parent != nil {
		panic("vgraph: View of an ungrouped graph or of a view")
	}
	v := &Graph{FD: g.FD, Cfg: g.Cfg, Tau: g.Tau, parent: g, rowV: make([]int32, len(rows))}
	for _, r := range rows {
		if u := g.rowV[r]; g.Vertices[u].Rows[0] == r {
			v.ids = append(v.ids, u)
		}
	}
	v.Vertices = make([]Vertex, len(v.ids))
	v.adj = make([][]Edge, len(v.ids))
	rowArena := make([]int, 0, len(rows))
	edges := 0
	for lu, u := range v.ids {
		n := len(rowArena)
		rowArena = rowArena[:n+len(g.Vertices[u].Rows)]
		v.Vertices[lu] = Vertex{Rep: g.Vertices[u].Rep, Rows: rowArena[n:n:len(rowArena)]}
		edges += g.Degree(int(u))
	}
	if len(rowArena) != len(rows) {
		panic("vgraph: View rows are not closed under the graph's patterns")
	}
	for k, r := range rows {
		lu, ok := v.local(int(g.rowV[r]))
		if !ok {
			panic("vgraph: View rows are not closed under the graph's patterns")
		}
		v.rowV[k] = int32(lu)
		v.Vertices[lu].Rows = append(v.Vertices[lu].Rows, k)
	}
	arena := make([]Edge, edges)
	for lu, u := range v.ids {
		es := arena[:g.Degree(int(u)):g.Degree(int(u))]
		arena = arena[len(es):]
		for i, e := range g.adj[u] {
			lt, ok := v.local(e.To)
			if !ok {
				panic("vgraph: View rows are not closed under the graph's edges")
			}
			es[i] = Edge{To: lt, W: e.W, D: e.D}
		}
		v.adj[lu] = es
	}
	v.nedges = edges / 2
	return v
}
