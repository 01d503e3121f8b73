package vgraph

import (
	"math"
	"runtime"
	"slices"
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
// rel: a fresh State given all of rel's rows in one Append. Nothing is
// memoized on cfg or keyed to rel, so a relation may be rebuilt after it is
// mutated, and the join state lives exactly as long as the graphs that
// reference it.
func BuildSet(rel *dataset.Relation, fds []*fd.FD, cfg *fd.DistConfig, taus []float64, opts Options) []*Graph {
	s := NewState(rel.Schema, fds, cfg, taus, opts)
	s.Append(rel.Tuples)
	return s.graphs
}

// State is the appendable build state of the violation graphs of an FD
// set over a growing relation, sharing what the FDs have in common:
//
//   - each FD column is encoded once into value ids, numbered in
//     first-occurrence row order (an interned value is found through its
//     DistConfig dictionary code, any other value through a state-local
//     code, so every relation takes the same path);
//   - each probe column is q-gram self-joined once per per-attribute
//     threshold, every unordered value pair verified once, the (join,
//     value) work fanned over the workers;
//   - each FD groups its rows into vertices on value-id tuples, computing
//     one projection key per vertex, and verifies its candidates from the
//     shared join matches.
//
// Append extends all of it by new rows: the encodings gain the new rows and
// values, rows join existing vertices or found new ones, the joins verify
// only pairs with a newly seen value, and each FD verifies only pairs with
// a new vertex. Patterns never change once grouped, so no earlier vertex,
// edge or match is revisited, and the graphs after any sequence of Appends
// equal BuildSet's over all the rows, bit for bit. A State is not safe for
// concurrent use: its graphs may be read concurrently between Appends, not
// during one.
type State struct {
	rel    *dataset.Relation
	cfg    *fd.DistConfig
	opts   Options
	fds    []*fd.FD
	taus   []float64
	cols   []*column
	joins  []*colJoin
	joinOf []*colJoin // per FD: its probe column's join, nil for all-pairs
	// levels[i][l] numbers FD i's projections onto its first l+2
	// attributes by (class of the first l+1, value id of the next), in
	// first-occurrence row order; the last level numbers the vertices.
	levels [][]map[uint64]int32
	graphs []*Graph
}

// NewState starts an empty build state for the graphs of every fds[i] at
// taus[i] over relations of the given schema. Options apply to every
// Append; a state built with DisableGrouping takes a single Append, and one
// whose Append was canceled takes none after it.
func NewState(schema *dataset.Schema, fds []*fd.FD, cfg *fd.DistConfig, taus []float64, opts Options) *State {
	s := &State{
		rel:    &dataset.Relation{Schema: schema},
		cfg:    cfg,
		opts:   opts,
		fds:    fds,
		taus:   taus,
		cols:   make([]*column, schema.Len()),
		levels: make([][]map[uint64]int32, len(fds)),
		graphs: make([]*Graph, len(fds)),
	}
	for _, f := range fds {
		for _, c := range f.Attrs() {
			if s.cols[c] == nil {
				s.cols[c] = newColumn(c, cfg)
			}
		}
	}
	s.planJoins()
	for i, f := range fds {
		s.graphs[i] = &Graph{FD: f, Cfg: cfg, Tau: taus[i], ungrouped: opts.DisableGrouping, join: s.joinOf[i]}
		s.levels[i] = make([]map[uint64]int32, len(f.Attrs())-1)
		for l := range s.levels[i] {
			s.levels[i][l] = make(map[uint64]int32)
		}
	}
	return s
}

// Graphs returns the state's graphs, fds[i]'s at index i, over every row
// appended so far. They grow in place with each Append.
func (s *State) Graphs() []*Graph { return s.graphs }

// ValueID returns the id of row r's value in column c: a column's values
// are numbered in first-occurrence row order over the state's rows. c must
// be an attribute of one of the state's FDs.
func (s *State) ValueID(c, r int) int { return int(s.cols[c].ids[r]) }

// Append adds rows to the relation the graphs are built over, as rows
// len(before) onward, and extends every graph by them. The state keeps the
// row slices, which must not change afterwards. Appending no rows does
// nothing.
func (s *State) Append(rows []dataset.Tuple) {
	if len(rows) == 0 {
		return
	}
	workers := s.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.opts.DisableGrouping && s.rel.Len() > 0 {
		panic("vgraph: a state built with DisableGrouping takes a single Append")
	}
	sp := obs.Begin(s.opts.Trace, obs.PhaseGraphBuild)
	from := s.rel.Len()
	if from == 0 {
		// Capped, so a later Append copies rather than write past rows.
		s.rel.Tuples = rows[:len(rows):len(rows)]
	} else {
		s.rel.Tuples = append(s.rel.Tuples, rows...)
	}
	oldVals := make([]int, len(s.cols))
	for c, col := range s.cols {
		if col != nil {
			oldVals[c] = len(col.vals)
			col.extend(rows)
		}
	}
	s.runJoins(workers, oldVals)
	sp.Add("joins", int64(len(s.joins)))
	sp.Add("workers", int64(workers))
	sp.End()

	forEach(workers, len(s.fds), func(i int) {
		b := builderPool.Get().(*builder)
		s.extendFD(b, i, from, len(s.fds) > 1, workers)
		builderPool.Put(b)
	})
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
func bucket(keys []int32, k int) [][]int { return extendBuckets(nil, keys, 0, k) }

// extendBuckets appends each item base+i to lists[keys[i]], in ascending
// order, after growing lists to k. The lists it adds share one backing
// array; a list it extends moves to a fresh array unless it has room.
func extendBuckets(lists [][]int, keys []int32, base, k int) [][]int {
	old := len(lists)
	off := make([]int, k-old+1)
	for _, c := range keys {
		if int(c) >= old {
			off[int(c)-old+1]++
		}
	}
	for c := 0; c < k-old; c++ {
		off[c+1] += off[c]
	}
	arena := make([]int, off[k-old])
	for c := 0; c < k-old; c++ {
		lists = append(lists, arena[off[c]:off[c]:off[c+1]])
	}
	for i, c := range keys {
		lists[c] = append(lists[c], base+i)
	}
	return lists
}

// column is one attribute encoded for one State: every row's value id,
// ids numbering the column's distinct values in first-occurrence row
// order. A value is found through its code: the DistConfig dictionary's
// code when interned, else a state-local code past the dictionary's.
type column struct {
	attr   int
	ids    []int32          // row -> value id
	vals   []string         // value id -> value
	dict   *dataset.Dict    // the config's dictionary, nil when none
	local  map[string]int32 // values the dictionary lacks -> code
	byCode []int32          // code -> value id, -1 where no row carries it
	ix     *strsim.Index    // the distinct values in id order, when probed
}

// newColumn starts an empty encoding of column c.
func newColumn(c int, cfg *fd.DistConfig) *column {
	col := &column{attr: c}
	if c < len(cfg.Dicts) {
		col.dict = cfg.Dicts[c]
	}
	if col.dict != nil {
		col.byCode = make([]int32, col.dict.Len())
		for i := range col.byCode {
			col.byCode[i] = -1
		}
	}
	return col
}

// extend numbers the column's values over appended rows.
func (col *column) extend(rows []dataset.Tuple) {
	col.ids = slices.Grow(col.ids, len(rows))
	for _, t := range rows {
		v := t[col.attr]
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
		col.ids = append(col.ids, id)
	}
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
// threshold, shared by every FD of the state that probes the column there.
// lists[id] holds value id's matches (strsim.ExtendJoin); it is nil when a
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

// planJoins picks every FD's probe column and gives each distinct (column,
// per-attribute threshold) one join, indexing each probed column once.
func (s *State) planJoins() {
	s.joinOf = make([]*colJoin, len(s.fds))
	for i, f := range s.fds {
		if s.opts.DisableIndex {
			continue
		}
		c, w := ChooseProbe(s.rel.Schema, f, s.cfg, s.taus[i])
		if c < 0 {
			continue
		}
		tau := s.taus[i] / w
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
		}
		s.joinOf[i] = &colJoin{attr: c, col: col, tau: tau}
		s.joins = append(s.joins, s.joinOf[i])
	}
}

// runJoins indexes each probed column's new values (those from
// oldVals[c] on) and joins them: JoinAppended over every (join, new value)
// item, the items claimed by index across the workers and each written to
// its own slot, then ExtendJoin folds each join's results into its lists.
// A cancellation leaves every join without lists.
func (s *State) runJoins(workers int, oldVals []int) {
	if len(s.joins) == 0 {
		return
	}
	for _, col := range s.cols {
		if col != nil && col.ix != nil {
			for id := col.ix.Len(); id < len(col.vals); id++ {
				col.ix.Add(col.vals[id])
			}
		}
	}
	above := make([][][]strsim.NormMatch, len(s.joins))
	start := make([]int, len(s.joins)+1)
	for k, j := range s.joins {
		above[k] = make([][]strsim.NormMatch, len(j.col.vals)-oldVals[j.attr])
		start[k+1] = start[k] + len(above[k])
	}
	var stopped atomic.Bool
	forEach(workers, start[len(s.joins)], func(it int) {
		if buildCanceled(s.opts.Cancel) {
			stopped.Store(true)
			return
		}
		k := sort.Search(len(s.joins), func(k int) bool { return start[k+1] > it })
		old := oldVals[s.joins[k].attr]
		above[k][it-start[k]] = s.joins[k].col.ix.JoinAppended(old+it-start[k], old, s.joins[k].tau)
	})
	for k, j := range s.joins {
		if stopped.Load() || (j.lists == nil && oldVals[j.attr] > 0) {
			j.lists = nil
			continue
		}
		j.lists = strsim.ExtendJoin(j.lists, above[k], j.tau)
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
// record lists, the degree/cursor counters and the row classes — so
// repeated builds and appends do not reallocate it.
type builder struct {
	lists [][]edgeRec
	deg   []int32
	cls   []int32
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// extendFD extends FD i's graph by the rows from `from` on: it groups them
// into vertices, indexes the new vertices by probe value, and verifies and
// adds the edges of every pair with a new vertex.
func (s *State) extendFD(b *builder, i, from int, labeled bool, workers int) {
	g := s.graphs[i]
	sp := obs.Begin(s.opts.Trace, obs.PhaseGraphBuild)
	sp.SetFD(g.FD.String())
	if labeled {
		sp.SetWorker(i)
	}
	defer sp.End()

	nv0, e0 := len(g.Vertices), g.NumEdges()
	cls, k := s.classes(b, i, from)
	if g.ungrouped {
		g.ungroupedLayout(s.rel, cls, k)
	} else {
		g.addRows(s.rel, cls, k, from)
	}
	workers = max(1, min(workers, len(g.Vertices)-nv0))
	cancel := s.opts.Cancel
	run := func(dst []edgeRec, start, stride int) []edgeRec {
		return g.allPairsRange(dst, nv0, start, stride, cancel)
	}
	if g.join != nil {
		g.indexValues(nv0)
		run = func(dst []edgeRec, start, stride int) []edgeRec {
			return g.indexedRange(dst, nv0, start, stride, cancel)
		}
	}
	g.addEdges(b, nv0, g.fanOut(b, workers, run))

	// Flush the extension's totals into the default registry here — the
	// single flush point for graph metrics, covering every build and append
	// regardless of caller (repairs, Detect, benchmarks, the incremental
	// engine); views add nothing. FlushRunStats deliberately skips the
	// vertices/edges Stats keys for the same reason.
	vertices, edges := len(g.Vertices)-nv0, g.NumEdges()-e0
	obs.Pipeline.GraphBuilds.Inc()
	obs.Pipeline.GraphVertices.AddInt(vertices)
	obs.Pipeline.GraphEdges.AddInt(edges)
	sp.Add("vertices", int64(vertices))
	sp.Add("edges", int64(edges))
	sp.Add("workers", int64(workers))
}

// classes numbers FD i's projections of the rows from `from` on by
// value-id tuples, continuing the state's first-occurrence numbering, and
// returns each row's class with the number of classes so far.
func (s *State) classes(b *builder, i, from int) ([]int32, int) {
	attrs := s.fds[i].Attrs()
	cls := append(b.cls[:0], s.cols[attrs[0]].ids[from:]...)
	k := len(s.cols[attrs[0]].vals)
	for l, a := range attrs[1:] {
		ids, next := s.levels[i][l], s.cols[a].ids[from:]
		for r, c := range cls {
			key := uint64(uint32(c))<<32 | uint64(uint32(next[r]))
			id, ok := ids[key]
			if !ok {
				id = int32(len(ids))
				ids[key] = id
			}
			cls[r] = id
		}
		k = len(ids)
	}
	b.cls = cls
	return cls, k
}

// addRows adds rows from, from+1, ... with projection classes cls to the
// grouped graph: classes past its vertices found new vertices, in
// first-occurrence row order, each with one projection key for byKey. The
// new vertices' row lists share one backing array, as bucket's do.
func (g *Graph) addRows(rel *dataset.Relation, cls []int32, k, from int) {
	nv0 := len(g.Vertices)
	off := make([]int, k-nv0+1)
	for _, c := range cls {
		if int(c) >= nv0 {
			off[int(c)-nv0+1]++
		}
	}
	for c := 0; c < k-nv0; c++ {
		off[c+1] += off[c]
	}
	arena := make([]int, off[k-nv0])
	g.Vertices = slices.Grow(g.Vertices, k-nv0)
	for c := 0; c < k-nv0; c++ {
		g.Vertices = append(g.Vertices, Vertex{Rows: arena[off[c]:off[c]:off[c+1]]})
	}
	for j, c := range cls {
		v := &g.Vertices[c]
		if len(v.Rows) == 0 {
			v.Rep = rel.Tuples[from+j]
		}
		v.Rows = append(v.Rows, from+j)
	}
	if g.byKey == nil {
		g.byKey = make(map[string]int, k)
	}
	for v := nv0; v < k; v++ {
		g.byKey[g.Vertices[v].Rep.Key(g.FD.Attrs())] = v
	}
	g.rowV = append(g.rowV, cls...)
}

// ungroupedLayout gives every row of rel its own vertex, the rows'
// projection classes cls numbering k key classes. Key classes are
// non-trivial only without grouping: Lookup resolves a key to the class's
// last row, as each row's vertex overwrote the key in turn.
func (g *Graph) ungroupedLayout(rel *dataset.Relation, cls []int32, k int) {
	n := len(rel.Tuples)
	g.rowV, g.canon = make([]int32, n), make([]int32, n)
	g.Vertices = make([]Vertex, n)
	g.byKey = make(map[string]int, k)
	for _, rows := range bucket(cls, k) {
		last := rows[len(rows)-1]
		g.byKey[rel.Tuples[last].Key(g.FD.Attrs())] = last
		for j, r := range rows {
			g.rowV[r], g.canon[r] = int32(r), int32(last)
			g.Vertices[r] = Vertex{Rep: rel.Tuples[r], Rows: rows[j : j+1 : j+1]}
		}
	}
}

// indexValues lists, per value id of the probe column, the vertices whose
// pattern carries the value, in vertex order, adding the vertices from nv0
// on.
func (g *Graph) indexValues(nv0 int) {
	col := g.join.col
	vid := make([]int32, len(g.Vertices)-nv0)
	for v := range vid {
		vid[v] = col.ids[g.Vertices[nv0+v].Rows[0]]
	}
	g.byVal = extendBuckets(g.byVal, vid, nv0, len(col.vals))
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
// memoizes, never changes, results, and every distance is symmetric), so
// workers can verify pairs in any order, orientation and partition.
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
// the new vertices. Stride partitioning balances the triangular all-pairs
// loop without a work queue, and each worker's output is a deterministic
// function of (start, stride), so the merged edge set does not depend on
// scheduling. The per-worker record lists come from the builder and keep
// their capacity across builds.
func (g *Graph) fanOut(b *builder, workers int, run func(dst []edgeRec, start, stride int) []edgeRec) [][]edgeRec {
	if cap(b.lists) < workers {
		lists := make([][]edgeRec, workers)
		copy(lists, b.lists)
		b.lists = lists
	}
	b.lists = b.lists[:workers]
	out := b.lists
	forEach(workers, workers, func(w int) { out[w] = run(out[w][:0], w, workers) })
	return out
}

// addEdges folds the per-worker edge lists, every record naming a pair
// with a vertex from nv0 on, into the adjacency lists: count degrees, place
// both directions of every record into one arena, then sort each vertex's
// slice by To. A new vertex's list is its slice of the arena; an older
// vertex's new partners all come after its old ones, so its slice is
// appended to its list. Merge order is irrelevant to the final graph: each
// undirected edge appears in exactly one worker's list, and To is a strict
// sort key since a vertex pair carries at most one edge — so the lists are
// bit-identical at any worker count.
func (g *Graph) addEdges(b *builder, nv0 int, lists [][]edgeRec) {
	n := len(g.Vertices)
	g.adj = append(g.adj, make([][]Edge, n-len(g.adj))...)
	if cap(b.deg) < n {
		b.deg = make([]int32, n)
	}
	b.deg = b.deg[:n]
	cur := b.deg
	for i := range cur {
		cur[i] = 0
	}
	total := 0
	for _, recs := range lists {
		total += 2 * len(recs)
		for _, r := range recs {
			cur[r.u]++
			cur[r.v]++
		}
	}
	if total == 0 {
		return
	}
	// Turn the degrees into each vertex's write cursor into the arena.
	var off int32
	for i, d := range cur {
		cur[i] = off
		off += d
	}
	arena := make([]Edge, total)
	for _, recs := range lists {
		for _, r := range recs {
			arena[cur[r.u]] = Edge{To: r.v, W: r.w, D: r.d}
			cur[r.u]++
			arena[cur[r.v]] = Edge{To: r.u, W: r.w, D: r.d}
			cur[r.v]++
		}
	}
	var start int32
	for u, end := range cur {
		if end > start {
			es := arena[start:end:end]
			sortEdges(es)
			if u < nv0 {
				g.adj[u] = append(g.adj[u], es...)
			} else {
				g.adj[u] = es
			}
		}
		start = end
	}
	g.nedges += total / 2
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

// allPairsRange verifies, for every new vertex i (i >= nv0) congruent to
// nv0+start modulo stride, the pairs (i, j) with j an older vertex or a
// new one above i. Cancellation is polled every 1024 candidate pairs.
func (g *Graph) allPairsRange(recs []edgeRec, nv0, start, stride int, cancel <-chan struct{}) []edgeRec {
	n := len(g.Vertices)
	pairs := 0
	for i := nv0 + start; i < n; i += stride {
		pm := g.Cfg.AcquirePairMatcher(g.FD, g.Vertices[i].Rep)
		for _, span := range [2][2]int{{0, nv0}, {i + 1, n}} {
			for j := span[0]; j < span[1]; j++ {
				pairs++
				if pairs&1023 == 0 && buildCanceled(cancel) {
					pm.Release()
					return recs
				}
				if rec, ok := g.verifyPairMT(pm, i, j); ok {
					recs = append(recs, rec)
				}
			}
		}
		pm.Release()
	}
	return recs
}

// indexedRange verifies, for every new vertex vi (vi >= nv0) congruent to
// nv0+start modulo stride, its candidates: the vertices carrying a probe
// value the shared join matched to vi's, older than nv0 or new and above
// vi, so each pair with a new vertex is verified exactly once and the
// emitted edges partition across workers. One PairMatcher serves vi
// against every candidate; the merge sorts per-vertex adjacency anyway.
func (g *Graph) indexedRange(recs []edgeRec, nv0, start, stride int, cancel <-chan struct{}) []edgeRec {
	lists := g.join.lists
	if lists == nil {
		return recs // the join was canceled, so is this build
	}
	ids := g.join.col.ids
	pairs := 0
	for vi := nv0 + start; vi < len(g.Vertices); vi += stride {
		if buildCanceled(cancel) {
			return recs
		}
		pm := g.Cfg.AcquirePairMatcher(g.FD, g.Vertices[vi].Rep)
		for _, m := range lists[ids[g.Vertices[vi].Rows[0]]] {
			for _, vj := range g.byVal[m.ID] {
				if vj >= nv0 && vj <= vi {
					continue // verified from a lower new vertex, or vi itself
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
	return recs
}
