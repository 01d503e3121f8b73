package vgraph

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/obs"
	"ftrepair/internal/strsim"
)

// Options tunes graph construction.
type Options struct {
	// DisableIndex forces the all-pairs comparison, for ablation.
	DisableIndex bool
	// DisableGrouping gives every tuple its own vertex instead of grouping
	// tuples with equal projections (§3 "Tuple grouping"), for the
	// ablation quantifying how much grouping saves. Tuples with equal
	// projections never FT-violate, so no edges connect them.
	DisableGrouping bool
	// Workers caps the number of concurrent workers: for the column joins,
	// for the FD builds, and for each FD's candidate verification. 0 means
	// GOMAXPROCS, 1 forces the sequential path. Any value produces the
	// identical graphs: workers emit private edge lists that are merged and
	// per-vertex sorted, each value's join matches land in its own slot,
	// and each edge's existence, weight, and distance are pure functions of
	// the pair.
	Workers int
	// Cancel, when it fires mid-build, stops the joins and candidate
	// verification cooperatively. The returned graphs then have all their
	// vertices but only the edges verified so far; callers that pass
	// Cancel must poll it after the build and treat the graphs as partial
	// when it fired.
	Cancel <-chan struct{}
	// Trace, when non-nil, receives one graphbuild span for the call's
	// shared stage (column encoding and joins) and one per FD graph.
	// Purely observational: never consulted by construction decisions.
	Trace *obs.Trace
}

// Build constructs the violation graph of f over rel at threshold tau: the
// one-FD case of BuildSet.
func Build(rel *dataset.Relation, f *fd.FD, cfg *fd.DistConfig, tau float64, opts Options) *Graph {
	return BuildSet(rel, []*fd.FD{f}, cfg, []float64{tau}, opts)[0]
}

// BuildSet constructs the violation graph of every fds[i] at taus[i] over
// rel, sharing what the FDs have in common:
//
//   - each FD column is encoded once into value ids, numbered in
//     first-occurrence row order (an interned value is found through its
//     DistConfig dictionary code, any other value through a call-local
//     code, so every relation takes the same path);
//   - each probe column is q-gram self-joined once per per-attribute
//     threshold, every unordered value pair verified once, the (join,
//     value) work fanned over the workers;
//   - each FD groups its rows into vertices on value-id tuples, computing
//     one projection key per vertex, and verifies its candidates from the
//     shared join matches.
//
// All of it is per call: nothing is memoized on cfg or keyed to rel, so a
// relation may be rebuilt after it is mutated, and the join state lives
// exactly as long as the graphs that reference it.
func BuildSet(rel *dataset.Relation, fds []*fd.FD, cfg *fd.DistConfig, taus []float64, opts Options) []*Graph {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := obs.Begin(opts.Trace, obs.PhaseGraphBuild)
	s := &setBuild{rel: rel, cfg: cfg, opts: opts, cols: make([]*column, rel.Schema.Len())}
	for _, f := range fds {
		for _, c := range f.Attrs() {
			if s.cols[c] == nil {
				s.cols[c] = encode(rel, c, cfg)
			}
		}
	}
	s.planJoins(fds, taus)
	s.runJoins(workers)
	sp.Add("joins", int64(len(s.joins)))
	sp.Add("workers", int64(workers))
	sp.End()

	graphs := make([]*Graph, len(fds))
	forEach(workers, len(fds), func(i int) {
		b := builderPool.Get().(*builder)
		graphs[i] = s.buildFD(b, i, fds[i], taus[i], len(fds) > 1, workers)
		builderPool.Put(b)
	})
	return graphs
}

// forEach calls do(i) for every i below n on up to workers goroutines,
// each claiming the next i by atomic index, and returns once every call
// has.
func forEach(workers, n int, do func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// bucket lists, for each key below k, the indices i with keys[i] == key in
// ascending order; the lists share one backing array.
func bucket(keys []int32, k int) [][]int {
	off := make([]int, k+1)
	for _, c := range keys {
		off[c+1]++
	}
	for c := 0; c < k; c++ {
		off[c+1] += off[c]
	}
	arena := make([]int, len(keys))
	out := make([][]int, k)
	for c := range out {
		out[c] = arena[off[c]:off[c]:off[c+1]]
	}
	for i, c := range keys {
		out[c] = append(out[c], i)
	}
	return out
}

// column is one attribute encoded for one BuildSet call: every row's value
// id, ids numbering the column's distinct values in first-occurrence row
// order. A value is found through its code: the DistConfig dictionary's
// code when interned, else a call-local code past the dictionary's.
type column struct {
	ids    []int32          // row -> value id
	vals   []string         // value id -> value
	dict   *dataset.Dict    // the config's dictionary, nil when none
	local  map[string]int32 // values the dictionary lacks -> code
	byCode []int32          // code -> value id, -1 where no row carries it
	ix     *strsim.Index    // the distinct values in id order, when probed
}

// encode numbers column c's values over rel's rows.
func encode(rel *dataset.Relation, c int, cfg *fd.DistConfig) *column {
	col := &column{ids: make([]int32, len(rel.Tuples))}
	if c < len(cfg.Dicts) {
		col.dict = cfg.Dicts[c]
	}
	if col.dict != nil {
		col.byCode = make([]int32, col.dict.Len())
		for i := range col.byCode {
			col.byCode[i] = -1
		}
	}
	for r, t := range rel.Tuples {
		v := t[c]
		code, ok := col.code(v)
		if !ok {
			if col.local == nil {
				col.local = make(map[string]int32)
			}
			code = int32(len(col.byCode))
			col.local[v] = code
			col.byCode = append(col.byCode, -1)
		}
		id := col.byCode[code]
		if id < 0 {
			id = int32(len(col.vals))
			col.byCode[code] = id
			col.vals = append(col.vals, v)
		}
		col.ids[r] = id
	}
	return col
}

// code returns v's code: its dictionary code when interned, else its
// call-local code, if it has one.
func (col *column) code(v string) (int32, bool) {
	if col.dict != nil {
		if code, ok := col.dict.Code(v); ok {
			return code, true
		}
	}
	code, ok := col.local[v]
	return code, ok
}

// id returns the id of value v, if some row carries it.
func (col *column) id(v string) (int32, bool) {
	code, ok := col.code(v)
	if !ok {
		return -1, false
	}
	id := col.byCode[code]
	return id, id >= 0
}

// colJoin is one probe column's q-gram self-join at one per-attribute
// threshold, shared by every FD of the call that probes the column there.
// lists[id] holds value id's matches (strsim.MirrorJoin); it is nil when a
// cancellation stopped the join, and then point queries search the index.
type colJoin struct {
	attr  int
	col   *column
	tau   float64
	lists [][]strsim.NormMatch
}

// matches returns value v's matches at the join's threshold: the kept list
// when v is a joined value, a fresh index search otherwise.
func (j *colJoin) matches(v string) []strsim.NormMatch {
	if j.lists != nil {
		if id, ok := j.col.id(v); ok {
			return j.lists[id]
		}
	}
	return j.col.ix.SearchNormalized(v, j.tau)
}

// setBuild is one BuildSet call's shared state.
type setBuild struct {
	rel    *dataset.Relation
	cfg    *fd.DistConfig
	opts   Options
	cols   []*column
	joins  []*colJoin
	joinOf []*colJoin // per FD: its probe column's join, nil for all-pairs
}

// planJoins picks every FD's probe column and gives each distinct (column,
// per-attribute threshold) one join, indexing each probed column once.
func (s *setBuild) planJoins(fds []*fd.FD, taus []float64) {
	s.joinOf = make([]*colJoin, len(fds))
	for i, f := range fds {
		if s.opts.DisableIndex {
			continue
		}
		c, w := ChooseProbe(s.rel.Schema, f, s.cfg, taus[i])
		if c < 0 {
			continue
		}
		tau := taus[i] / w
		for _, j := range s.joins {
			if j.attr == c && math.Float64bits(j.tau) == math.Float64bits(tau) {
				s.joinOf[i] = j
			}
		}
		if s.joinOf[i] != nil {
			continue
		}
		col := s.cols[c]
		if col.ix == nil {
			col.ix = strsim.NewIndex(2)
			for _, v := range col.vals {
				col.ix.Add(v)
			}
		}
		s.joinOf[i] = &colJoin{attr: c, col: col, tau: tau}
		s.joins = append(s.joins, s.joinOf[i])
	}
}

// runJoins runs every join's JoinAbove over its values, the (join, value)
// items claimed by index across the workers and each written to its own
// slot, then mirrors each join's halves into full lists. A cancellation
// leaves every join without lists.
func (s *setBuild) runJoins(workers int) {
	if len(s.joins) == 0 {
		return
	}
	above := make([][][]strsim.NormMatch, len(s.joins))
	start := make([]int, len(s.joins)+1)
	for k, j := range s.joins {
		above[k] = make([][]strsim.NormMatch, len(j.col.vals))
		start[k+1] = start[k] + len(j.col.vals)
	}
	var stopped atomic.Bool
	forEach(workers, start[len(s.joins)], func(it int) {
		if buildCanceled(s.opts.Cancel) {
			stopped.Store(true)
			return
		}
		k := sort.Search(len(s.joins), func(k int) bool { return start[k+1] > it })
		id := it - start[k]
		above[k][id] = s.joins[k].col.ix.JoinAbove(id, s.joins[k].tau)
	})
	if stopped.Load() {
		return
	}
	for k, j := range s.joins {
		j.lists = strsim.MirrorJoin(above[k], j.tau)
	}
}

// ChooseProbe picks a string attribute of the FD to index, preferring LHS
// attributes (their weight is usually at least the RHS weight, giving the
// tightest per-attribute threshold), and returns it with its side's weight.
// Graph builds and the incremental engine's probe indexes both use it.
// It returns -1 when no string attribute exists, the per-attribute
// threshold would not prune (τ/w >= 1), or the distance flavor is not plain
// Levenshtein (the q-gram index verifies with Levenshtein; OSA distances
// can be smaller, so the filter would miss candidates).
func ChooseProbe(schema *dataset.Schema, f *fd.FD, cfg *fd.DistConfig, tau float64) (int, float64) {
	if cfg.Edit != fd.EditLevenshtein {
		return -1, 0
	}
	try := func(cols []int, w float64) int {
		if w <= 0 || tau/w >= 1 {
			return -1
		}
		for _, c := range cols {
			if schema.Attr(c).Type == dataset.String {
				return c
			}
		}
		return -1
	}
	if c := try(f.LHS, cfg.WL); c >= 0 {
		return c, cfg.WL
	}
	if c := try(f.RHS, cfg.WR); c >= 0 {
		return c, cfg.WR
	}
	return -1, 0
}

// refine splits the row classes cls by next[r] and numbers the resulting
// classes in first-occurrence row order, returning their count.
func refine(cls, next []int32) int {
	ids := make(map[uint64]int32)
	for r, c := range cls {
		key := uint64(uint32(c))<<32 | uint64(uint32(next[r]))
		id, ok := ids[key]
		if !ok {
			id = int32(len(ids))
			ids[key] = id
		}
		cls[r] = id
	}
	return len(ids)
}

// RowGroups partitions the rows of the relation the graphs were built over
// by their canonical vertex in every graph: two rows share a group exactly
// when they carry the same projection in each graph, hence the same
// projection over the union of the graphs' attributes. Groups run in
// first-occurrence row order, rows ascending within a group, and share one
// backing array.
func RowGroups(graphs []*Graph) [][]int {
	n := len(graphs[0].rowV)
	cls, next := make([]int32, n), make([]int32, n)
	k := 0
	for _, g := range graphs {
		for r := range next {
			next[r] = int32(g.Canon(g.RowVertex(r)))
		}
		k = refine(cls, next)
	}
	return bucket(cls, k)
}

// builder carries the reusable construction scratch — per-worker edge
// record lists and the CSR degree/cursor counters — so repeated builds
// (benchmark loops, incremental shard rebuilds) do not reallocate it.
type builder struct {
	lists [][]edgeRec
	deg   []int32
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// buildFD builds FD i's graph from the shared encoding and join.
func (s *setBuild) buildFD(b *builder, i int, f *fd.FD, tau float64, labeled bool, workers int) *Graph {
	sp := obs.Begin(s.opts.Trace, obs.PhaseGraphBuild)
	sp.SetFD(f.String())
	if labeled {
		sp.SetWorker(i)
	}
	defer sp.End()

	g := &Graph{FD: f, Cfg: s.cfg, Tau: tau, ungrouped: s.opts.DisableGrouping, join: s.joinOf[i]}
	g.group(s.rel, s.cols)
	workers = max(1, min(workers, len(g.Vertices)))
	if g.join != nil {
		g.indexValues(g.join.col)
		g.mergeCSR(b, g.fanOut(b, workers, s.opts.Cancel, g.indexedRange))
	} else {
		g.mergeCSR(b, g.fanOut(b, workers, s.opts.Cancel, g.allPairsRange))
	}

	// Flush build totals into the default registry here — the single flush
	// point for graph metrics, covering every build regardless of caller
	// (repairs, Detect, benchmarks). FlushRunStats deliberately skips the
	// vertices/edges Stats keys for the same reason.
	edges := g.NumEdges()
	obs.Pipeline.GraphBuilds.Inc()
	obs.Pipeline.GraphVertices.AddInt(len(g.Vertices))
	obs.Pipeline.GraphEdges.AddInt(edges)
	sp.Add("vertices", int64(len(g.Vertices)))
	sp.Add("edges", int64(edges))
	sp.Add("workers", int64(workers))
	return g
}

// group numbers the rows' projections onto the FD's attributes by
// value-id tuples and lays out the vertices: one per projection in
// first-occurrence row order, or one per row without grouping. Tuple.Key
// runs once per projection, for byKey.
func (g *Graph) group(rel *dataset.Relation, cols []*column) {
	attrs := g.FD.Attrs()
	cls := append([]int32(nil), cols[attrs[0]].ids...)
	k := len(cols[attrs[0]].vals)
	for _, a := range attrs[1:] {
		k = refine(cls, cols[a].ids)
	}
	classes := bucket(cls, k)
	g.byKey = make(map[string]int, k)
	if !g.ungrouped {
		g.rowV = cls
		g.Vertices = make([]Vertex, k)
		for c, rows := range classes {
			g.Vertices[c] = Vertex{Rep: rel.Tuples[rows[0]], Rows: rows}
			g.byKey[g.Vertices[c].Rep.Key(attrs)] = c
		}
		return
	}
	// Key classes are non-trivial only without grouping: Lookup resolves a
	// key to the class's last row, as each row's vertex overwrote the key
	// in turn.
	n := len(rel.Tuples)
	g.rowV, g.canon = make([]int32, n), make([]int32, n)
	g.Vertices = make([]Vertex, n)
	for _, rows := range classes {
		last := rows[len(rows)-1]
		g.byKey[rel.Tuples[last].Key(attrs)] = last
		for j, r := range rows {
			g.rowV[r], g.canon[r] = int32(r), int32(last)
			g.Vertices[r] = Vertex{Rep: rel.Tuples[r], Rows: rows[j : j+1 : j+1]}
		}
	}
}

// indexValues lists, per value id of the probe column, the vertices whose
// pattern carries the value, in vertex order.
func (g *Graph) indexValues(col *column) {
	vid := make([]int32, len(g.Vertices))
	for v := range g.Vertices {
		vid[v] = col.ids[g.Vertices[v].Rows[0]]
	}
	g.byVal = bucket(vid, len(col.vals))
}

// edgeRec is one verified edge produced by a build worker, buffered locally
// until the single-threaded merge.
type edgeRec struct {
	u, v int
	w, d float64
}

// verifyPairMT checks the candidate pair (i, j) with vertex i's pattern
// held fixed in a PairMatcher, and, if it FT-violates, returns the edge
// with its repair weight and violation distance. The build ranges stream
// every candidate j through the matcher, so i's bit-parallel tables are
// built once, not once per pair. Pure in the pair (the distance cache only
// memoizes, never changes, results), so workers can verify pairs in any
// order and partition.
func (g *Graph) verifyPairMT(pm *fd.PairMatcher, i, j int) (edgeRec, bool) {
	if g.ungrouped && g.canon[i] == g.canon[j] {
		return edgeRec{}, false
	}
	tj := g.Vertices[j].Rep
	d, ok := pm.DistWithin(g.Tau, tj)
	if !ok {
		return edgeRec{}, false
	}
	var w float64
	for _, c := range g.FD.Attrs() {
		w += pm.RepairDist(c, tj)
	}
	return edgeRec{u: i, v: j, w: w, d: d}, true
}

// fanOut runs the given range verifier on `workers` goroutines, worker w
// owning the stride-partitioned slice {w, w+workers, w+2*workers, ...} of
// the outer loop. Stride partitioning balances the triangular all-pairs
// loop without a work queue, and each worker's output is a deterministic
// function of (start, stride), so the merged edge set does not depend on
// scheduling. The per-worker record lists come from the builder and keep
// their capacity across builds.
func (g *Graph) fanOut(b *builder, workers int, cancel <-chan struct{}, run func(dst []edgeRec, start, stride int, cancel <-chan struct{}) []edgeRec) [][]edgeRec {
	if cap(b.lists) < workers {
		lists := make([][]edgeRec, workers)
		copy(lists, b.lists)
		b.lists = lists
	}
	b.lists = b.lists[:workers]
	out := b.lists
	forEach(workers, workers, func(w int) { out[w] = run(out[w][:0], w, workers, cancel) })
	return out
}

// mergeCSR folds the per-worker edge lists into the CSR arena: count
// degrees, prefix-sum the offset table, place both directions of every
// record, then sort each vertex's slice by To. Merge order is irrelevant to
// the final graph: each undirected edge appears in exactly one worker's
// list, and To is a strict sort key since a vertex pair carries at most one
// edge — so the arena is bit-identical at any worker count.
func (g *Graph) mergeCSR(b *builder, lists [][]edgeRec) {
	n := len(g.Vertices)
	if cap(b.deg) < n {
		b.deg = make([]int32, n)
	}
	b.deg = b.deg[:n]
	deg := b.deg
	for i := range deg {
		deg[i] = 0
	}
	total := 0
	for _, recs := range lists {
		total += 2 * len(recs)
		for _, r := range recs {
			deg[r.u]++
			deg[r.v]++
		}
	}
	g.eoff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.eoff[i+1] = g.eoff[i] + deg[i]
	}
	g.edges = make([]Edge, total)
	// Reuse deg as the per-vertex write cursor.
	cur := deg
	for i := 0; i < n; i++ {
		cur[i] = g.eoff[i]
	}
	for _, recs := range lists {
		for _, r := range recs {
			g.edges[cur[r.u]] = Edge{To: r.v, W: r.w, D: r.d}
			cur[r.u]++
			g.edges[cur[r.v]] = Edge{To: r.u, W: r.w, D: r.d}
			cur[r.v]++
		}
	}
	for i := 0; i < n; i++ {
		sortEdges(g.edges[g.eoff[i]:g.eoff[i+1]])
	}
}

// sortEdges orders one vertex's adjacency slice by To: insertion sort for
// the short lists that dominate violation graphs (no closure allocation),
// sort.Slice beyond that. To values are unique within a slice, so any
// sorting algorithm yields the identical order.
func sortEdges(es []Edge) {
	if len(es) <= 32 {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && es[j].To > e.To {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
		return
	}
	sort.Slice(es, func(a, b int) bool { return es[a].To < es[b].To })
}

// buildCanceled is the cooperative poll used inside build loops.
func buildCanceled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// allPairsRange verifies every pair (i, j), i < j, whose outer index i is
// congruent to start modulo stride. Cancellation is polled every 1024
// candidate pairs.
func (g *Graph) allPairsRange(recs []edgeRec, start, stride int, cancel <-chan struct{}) []edgeRec {
	n := len(g.Vertices)
	pairs := 0
	for i := start; i < n; i += stride {
		pm := g.Cfg.AcquirePairMatcher(g.FD, g.Vertices[i].Rep)
		for j := i + 1; j < n; j++ {
			pairs++
			if pairs&1023 == 0 && buildCanceled(cancel) {
				pm.Release()
				return recs
			}
			if rec, ok := g.verifyPairMT(pm, i, j); ok {
				recs = append(recs, rec)
			}
		}
		pm.Release()
	}
	return recs
}

// indexedRange verifies the candidates of every probe value id congruent
// to start modulo stride: the vertex pairs whose probe values the shared
// join matched. Each distinct value *pair* is handled exactly once (by the
// lower id), so the emitted edges partition across workers. The vi loop is
// outside the match loop so one PairMatcher serves vertex vi against every
// candidate; the merge sorts per-vertex adjacency anyway.
func (g *Graph) indexedRange(recs []edgeRec, start, stride int, cancel <-chan struct{}) []edgeRec {
	lists := g.join.lists
	if lists == nil {
		return recs // the join was canceled, so is this build
	}
	pairs := 0
	for id := start; id < len(g.byVal); id += stride {
		if buildCanceled(cancel) {
			return recs
		}
		matches := lists[id]
		for _, vi := range g.byVal[id] {
			pm := g.Cfg.AcquirePairMatcher(g.FD, g.Vertices[vi].Rep)
			for _, m := range matches {
				if m.ID < id {
					continue // handle each value pair once (m.ID == id covers same-value vertices)
				}
				for _, vj := range g.byVal[m.ID] {
					if m.ID == id && vj <= vi {
						continue // same value bucket: avoid double visits and self loops
					}
					pairs++
					if pairs&1023 == 0 && buildCanceled(cancel) {
						pm.Release()
						return recs
					}
					if rec, ok := g.verifyPairMT(pm, vi, vj); ok {
						recs = append(recs, rec)
					}
				}
			}
			pm.Release()
		}
	}
	return recs
}
