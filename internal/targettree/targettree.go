// Package targettree implements the §5 index for multi-FD repairing: given
// one independent set of patterns per FD, it organizes their join — the
// valid repair targets — as a tree whose levels correspond to FDs (smallest
// pattern set nearest the root) and whose root-to-leaf paths are targets.
// Each node stores the attribute values appearing in its subtree, enabling
// the RDIST+EDIST lower bound used by the best-first nearest-target search
// (Algorithm 5).
package targettree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Level is the input for one FD: the attribute columns its patterns cover
// and the chosen independent set of patterns, each aligned with Attrs.
type Level struct {
	Attrs    []int
	Patterns [][]string
}

// Scorer scores one attribute repair of the query tuple: the cost of
// changing its value at the column of tree value id to that value
// (Tree.Value names both). Nearest calls it at most once per id;
// NearestScan calls it for every value of every target it scores.
type Scorer func(id int32) float64

// node is one kept node. Values are dense ids: id i stands for the value
// vals[i] of column cols[vcol[i]], and ids order by column, then by value.
type node struct {
	parent int32
	// ids are the values newly bound at this node, in level-attribute
	// order (columns fixed by ancestors are not repeated).
	ids []int32
	// kids[kidLo:kidHi] are the children, in pattern order.
	kidLo, kidHi int32
	// subs[subLo:subHi] are the sorted distinct ids bound strictly below
	// the node — per column, the subtree's values, for EDIST. The fixed
	// order makes the f-bound summation deterministic.
	subLo, subHi int32
}

// Tree is the built target tree.
type Tree struct {
	// nodes holds the kept nodes in post-order (each after its subtree),
	// the root last; kids and subs are the slabs their ranges index.
	nodes []node
	kids  []int32
	subs  []int32
	// cols is the union of all level attributes, sorted.
	cols []int
	vcol []int32
	vals []string
	// Targets counts root-to-leaf paths (valid targets).
	Targets int
	// Explored counts the partial paths the join tried in its connected
	// level order (see Build), the empty root path included: the figure
	// MaxNodes bounds.
	Explored int
	// Nodes counts the nodes kept, root included.
	Nodes int
}

// MaxNodes bounds the partial paths Build explores: the join can try up to
// the product of the level sizes (§5.1), which explodes when the
// independent sets keep many variants per join key (low thresholds on
// dirty data). Build stores only the targets the join finds, so memory
// follows the live tree while time follows the paths tried. Build returns
// an error at the cap; callers fall back to per-FD repair.
const MaxNodes = 1 << 21

// joinLevel is one level prepared for the join and the tree. A position of
// Attrs is a key when a level earlier in the join order binds its column —
// the same for every partial path — and new when no level above it in the
// tree (§5.1 order) binds its column.
type joinLevel struct {
	Level
	// slot[pos] is Attrs[pos]'s index in the tree's cols.
	slot []int
	// key and fresh are the key and new positions of Attrs.
	key, fresh []int
	// order lists the pattern indices sorted by key, ties by index.
	order []int32
	// ids[i*len(fresh)+j] is pattern i's value id at fresh[j]; the first
	// is unnumbered (-1) until a kept node uses the pattern.
	ids []int32
}

// keyCmp compares pattern i's key values with the bound ones.
func (l *joinLevel) keyCmp(i int32, bind []string) int {
	p := l.Patterns[i]
	for _, pos := range l.key {
		if c := strings.Compare(p[pos], bind[l.slot[pos]]); c != 0 {
			return c
		}
	}
	return 0
}

// builder holds the join's and the layout's state.
type builder struct {
	t *Tree
	// levels are in §5.1 order; seq lists them in join order.
	levels []joinLevel
	seq    []int
	// bind holds the current path's value per slot of cols.
	bind []string
	// path holds the current path's pattern index per level; found holds
	// every target's path, len(levels) indices each.
	path, found []int32
	// stack holds the kept children of the nodes being laid out.
	stack []int32
}

// Build constructs the tree. Levels are sorted by |Patterns| ascending so
// the root has small fan-out (§5.1). The join runs depth first over one
// binding array in a connected order: each next level is the one sharing
// the most columns already bound, ties in §5.1 order, and its patterns
// are probed by key. Each target is recorded as its pattern indices; the
// tree is their trie in §5.1 order. It returns an error when no valid
// target exists or the join explores more than MaxNodes paths.
func Build(levels []Level) (*Tree, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("targettree: no levels")
	}
	ls := make([]joinLevel, len(levels))
	var cols []int
	for i, l := range levels {
		ls[i].Level = l
		cols = append(cols, l.Attrs...)
	}
	slices.SortStableFunc(ls, func(a, b joinLevel) int { return cmp.Compare(len(a.Patterns), len(b.Patterns)) })
	for _, l := range ls {
		if len(l.Attrs) == 0 {
			return nil, fmt.Errorf("targettree: level with no attributes")
		}
		for j, c := range l.Attrs {
			if slices.Contains(l.Attrs[:j], c) {
				return nil, fmt.Errorf("targettree: level names column %d twice", c)
			}
		}
		for _, p := range l.Patterns {
			if len(p) != len(l.Attrs) {
				return nil, fmt.Errorf("targettree: pattern arity %d != %d attributes", len(p), len(l.Attrs))
			}
		}
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)

	// boundAt[s] is the depth of the level that first binds slot s.
	boundAt := make([]int, len(cols))
	for s := range boundAt {
		boundAt[s] = -1
	}
	for d := range ls {
		l := &ls[d]
		n := len(l.Attrs)
		buf := make([]int, 3*n)
		l.slot, l.key, l.fresh = buf[:n], buf[n:n], buf[2*n:2*n]
		for pos, c := range l.Attrs {
			s, _ := slices.BinarySearch(cols, c)
			if l.slot[pos] = s; boundAt[s] < 0 {
				boundAt[s] = d
			}
			if boundAt[s] == d {
				l.fresh = append(l.fresh, pos)
			}
		}
		l.ids = make([]int32, len(l.Patterns)*len(l.fresh))
		for i := 0; i < len(l.ids); i += len(l.fresh) {
			l.ids[i] = -1
		}
	}

	// The join order: the §5.1 root level first, then always the remaining
	// level that shares the most bound columns, ties in §5.1 order.
	seq, bound := make([]int, 0, len(ls)), make([]bool, len(cols))
	for len(seq) < len(ls) {
		next, most := -1, -1
		for d := range ls {
			shared := 0
			for _, s := range ls[d].slot {
				if bound[s] {
					shared++
				}
			}
			if shared > most && !slices.Contains(seq, d) {
				next, most = d, shared
			}
		}
		l := &ls[next]
		for pos, s := range l.slot {
			if bound[s] {
				l.key = append(l.key, pos)
			}
			bound[s] = true
		}
		l.order = make([]int32, len(l.Patterns))
		for i := range l.order {
			l.order[i] = int32(i)
		}
		slices.SortFunc(l.order, func(a, b int32) int {
			for _, pos := range l.key {
				if c := strings.Compare(l.Patterns[a][pos], l.Patterns[b][pos]); c != 0 {
					return c
				}
			}
			return cmp.Compare(a, b)
		})
		seq = append(seq, next)
	}

	// found starts with room for one target per pattern of the largest
	// level, about what a join of independent sets keeps.
	b := &builder{t: &Tree{cols: cols, Explored: 1}, levels: ls, seq: seq,
		bind: make([]string, len(cols)), path: make([]int32, len(ls)),
		found: make([]int32, 0, len(ls)*len(ls[len(ls)-1].Patterns))}
	if err := b.join(0); err != nil {
		return nil, err
	}
	if len(b.found) == 0 {
		return nil, fmt.Errorf("targettree: join is empty (incompatible independent sets)")
	}
	b.layout()
	b.number(boundAt)
	b.t.fillSubs()
	b.t.Nodes = len(b.t.nodes)
	return b.t, nil
}

// join tries every pattern of the k-th level in join order that agrees
// with the bound keys, binds its values and recurses; each path that
// reaches full depth is a target, appended to found.
func (b *builder) join(k int) error {
	d := b.seq[k]
	l := &b.levels[d]
	j, _ := slices.BinarySearchFunc(l.order, b.bind, l.keyCmp)
	for ; j < len(l.order) && l.keyCmp(l.order[j], b.bind) == 0; j++ {
		i := l.order[j]
		if b.t.Explored++; b.t.Explored > MaxNodes {
			return fmt.Errorf("targettree: join exceeds %d nodes; fall back to per-constraint repair", MaxNodes)
		}
		for pos, s := range l.slot {
			b.bind[s] = l.Patterns[i][pos]
		}
		b.path[d] = i
		if k+1 < len(b.seq) {
			if err := b.join(k + 1); err != nil {
				return err
			}
		} else {
			b.found = append(b.found, b.path...)
		}
	}
	return nil
}

// layout sorts the targets' paths, which orders each node's children by
// pattern index, and keeps their trie in post-order: a path's nodes below
// its common prefix with the next path close when that path starts, and a
// final nil path closes the rest.
func (b *builder) layout() {
	n := len(b.levels)
	paths := make([][]int32, 0, len(b.found)/n+1)
	for i := 0; i < len(b.found); i += n {
		paths = append(paths, b.found[i:i+n])
	}
	slices.SortFunc(paths, slices.Compare)
	b.t.Targets = len(paths)
	// Each path index opens at most one node, each non-root node is a kid.
	b.t.nodes, b.t.kids = make([]node, 0, len(b.found)+1), make([]int32, 0, len(b.found))
	mark := make([]int, n)
	var prev []int32
	for _, p := range append(paths, nil) {
		d := 0
		for prev != nil && p != nil && p[d] == prev[d] {
			d++
		}
		for e := len(prev) - 1; e >= d; e-- {
			l := &b.levels[e]
			w := len(l.fresh)
			ids := l.ids[int(prev[e])*w : int(prev[e]+1)*w]
			if w > 0 {
				ids[0] = 0 // numbered once the layout is done
			}
			b.keep(ids, mark[e])
		}
		for e := d; e < len(p); e++ {
			mark[e] = len(b.stack)
		}
		prev = p
	}
	b.keep(nil, 0)
}

// keep appends a node that adopts the children stacked from mark on and
// stacks it in their place.
func (b *builder) keep(ids []int32, mark int) {
	t := b.t
	id := int32(len(t.nodes))
	for _, c := range b.stack[mark:] {
		t.nodes[c].parent = id
	}
	lo := int32(len(t.kids))
	t.kids = append(t.kids, b.stack[mark:]...)
	t.nodes = append(t.nodes, node{ids: ids, kidLo: lo, kidHi: int32(len(t.kids))})
	b.stack = append(b.stack[:mark], id)
}

// number gives each distinct (column, value) pair of the kept nodes a dense
// id, ordered by column and then by value, and writes the ids into the
// level tables the nodes' id slices view.
func (b *builder) number(boundAt []int) {
	t := b.t
	for s, d := range boundAt {
		l := &b.levels[d]
		n := len(l.fresh)
		base := len(t.vals)
		for i, p := range l.Patterns {
			for _, pos := range l.fresh {
				if l.ids[i*n] >= 0 && l.slot[pos] == s {
					t.vals = append(t.vals, p[pos])
				}
			}
		}
		slices.Sort(t.vals[base:])
		t.vals = t.vals[:base+len(slices.Compact(t.vals[base:]))]
		vs := t.vals[base:]
		for range vs {
			t.vcol = append(t.vcol, int32(s))
		}
		for i, p := range l.Patterns {
			for j, pos := range l.fresh {
				if l.ids[i*n] >= 0 && l.slot[pos] == s {
					x, _ := slices.BinarySearch(vs, p[pos])
					l.ids[i*n+j] = int32(base + x)
				}
			}
		}
	}
}

// fillSubs computes each node's subtree id list from its children's, which
// post-order has already filled.
func (t *Tree) fillSubs() {
	for i := range t.nodes {
		nd := &t.nodes[i]
		lo := len(t.subs)
		for _, c := range t.kids[nd.kidLo:nd.kidHi] {
			kid := &t.nodes[c]
			t.subs = append(t.subs, kid.ids...)
			t.subs = append(t.subs, t.subs[kid.subLo:kid.subHi]...)
		}
		slices.Sort(t.subs[lo:])
		t.subs = t.subs[:lo+len(slices.Compact(t.subs[lo:]))]
		nd.subLo, nd.subHi = int32(lo), int32(len(t.subs))
	}
}

// Target is a full assignment of the tree's columns.
type Target struct {
	Cols []int
	Vals []string
}

// pathIDs writes the value ids on the path from the root to leaf into ids,
// one per column of cols.
func (tr *Tree) pathIDs(leaf int32, ids []int32) {
	for n := leaf; n != int32(len(tr.nodes)-1); n = tr.nodes[n].parent {
		for _, id := range tr.nodes[n].ids {
			ids[tr.vcol[id]] = id
		}
	}
}

// target assembles the assignment on the path from the root to leaf.
func (tr *Tree) target(leaf int32) Target {
	out := Target{Cols: tr.cols, Vals: make([]string, len(tr.cols))}
	for n := leaf; n != int32(len(tr.nodes)-1); n = tr.nodes[n].parent {
		for _, id := range tr.nodes[n].ids {
			out.Vals[tr.vcol[id]] = tr.vals[id]
		}
	}
	return out
}

// pqItem is a search-frontier entry.
type pqItem struct {
	nd    int32
	f     float64 // RDIST + EDIST lower bound
	rdist float64
}

// pq is a min-heap on f. push and pop take container/heap's sift steps, so
// entries with equal f leave in the same order as they would there.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; 2*i+1 < n; {
		j := 2*i + 1
		if j+1 < n && h[j+1].f < h[j].f {
			j++
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// memo caches one query's attribute distances by value id: sibling
// subtrees share most of their values, so each distinct (column, value)
// pair is scored once per Nearest call instead of once per node that
// carries it. Memos are pooled across calls and trees; a slot holds a
// distance only when its stamp is the current call's generation, so
// starting a call is one increment.
type memo struct {
	tr    *Tree
	score Scorer
	gen   uint32
	slots []memoSlot
	q     pq
}

type memoSlot struct {
	gen uint32
	d   float64
}

var memos = sync.Pool{New: func() any { return new(memo) }}

func acquireMemo(tr *Tree, score Scorer) *memo {
	m := memos.Get().(*memo)
	m.tr, m.score = tr, score
	if len(m.slots) < len(tr.vals) {
		m.slots = make([]memoSlot, len(tr.vals))
	}
	if m.gen++; m.gen == 0 {
		clear(m.slots)
		m.gen = 1
	}
	return m
}

func (m *memo) release() {
	m.tr, m.score, m.q = nil, nil, m.q[:0]
	memos.Put(m)
}

func (m *memo) at(id int32) float64 {
	s := &m.slots[id]
	if s.gen != m.gen {
		s.gen, s.d = m.gen, m.score(id)
	}
	return s.d
}

// edist is the lower bound for the columns bound strictly below nd: per
// column, the minimum distance from the query's value to any value
// occurring in the subtree.
func (m *memo) edist(nd *node) float64 {
	sub, vcol := m.tr.subs[nd.subLo:nd.subHi], m.tr.vcol
	var sum float64
	for i := 0; i < len(sub); {
		col, best := vcol[sub[i]], math.Inf(1)
		for ; i < len(sub) && vcol[sub[i]] == col; i++ {
			// Distances are non-negative; the per-column minimum cannot
			// improve past zero.
			if best > 0 {
				best = min(best, m.at(sub[i]))
			}
		}
		sum += best
	}
	return sum
}

// Nearest finds the target minimizing the summed attribute repair cost
// that score assigns (Algorithm 5: best-first search with RDIST/EDIST
// pruning). It returns the target and its cost. Visited counts dequeued
// nodes, for the ablation benchmarks. The search polls cancel (nil =
// never) every few dozen nodes and, once it fires, returns the best
// incumbent found so far — callers that need the exact optimum must check
// cancellation themselves.
func (tr *Tree) Nearest(score Scorer, cancel <-chan struct{}) (Target, float64, int) {
	m := acquireMemo(tr, score)
	defer m.release()
	m.q.push(pqItem{nd: int32(len(tr.nodes) - 1)})
	bestCost := math.Inf(1)
	bestLeaf := int32(-1)
	visited := 0
	for len(m.q) > 0 {
		if visited&63 == 0 && canceled(cancel) {
			break
		}
		it := m.q.pop()
		visited++
		if it.f >= bestCost {
			continue // lower bound can't beat the incumbent
		}
		nd := &tr.nodes[it.nd]
		if nd.kidLo == nd.kidHi {
			// Leaf: RDIST is the exact cost (every column bound).
			if it.rdist < bestCost {
				bestCost = it.rdist
				bestLeaf = it.nd
			}
			continue
		}
		for _, c := range tr.kids[nd.kidLo:nd.kidHi] {
			kid := &tr.nodes[c]
			r := it.rdist
			for _, id := range kid.ids {
				r += m.at(id)
			}
			f := r + m.edist(kid)
			if f < bestCost {
				m.q.push(pqItem{nd: c, f: f, rdist: r})
			}
		}
	}
	if bestLeaf < 0 {
		return Target{}, math.Inf(1), visited
	}
	return tr.target(bestLeaf), bestCost, visited
}

// NearestScan is the linear-scan baseline: it scores every target, leaves
// in tree order, summing its values' scores in column order, without a
// memo. Used for tests and the target-tree ablation. Like Nearest, it
// stops at the best incumbent when cancel fires; the visited count reflects
// only the targets actually scored, not the full target list.
func (tr *Tree) NearestScan(score Scorer, cancel <-chan struct{}) (Target, float64, int) {
	ids := make([]int32, len(tr.cols))
	bestCost := math.Inf(1)
	best := int32(-1)
	visited := 0
	for i := range tr.nodes {
		if nd := &tr.nodes[i]; nd.kidLo != nd.kidHi {
			continue
		}
		if visited&63 == 0 && canceled(cancel) {
			break
		}
		visited++
		tr.pathIDs(int32(i), ids)
		var c float64
		for _, id := range ids {
			c += score(id)
		}
		if c < bestCost {
			bestCost = c
			best = int32(i)
		}
	}
	if best < 0 {
		return Target{}, math.Inf(1), visited
	}
	return tr.target(best), bestCost, visited
}

// canceled reports whether the cancel channel has fired; a nil channel
// never cancels.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// All materializes every target (root-to-leaf path) of the tree, leaves
// in tree order.
func (tr *Tree) All() []Target {
	var out []Target
	for i, nd := range tr.nodes {
		if nd.kidLo == nd.kidHi {
			out = append(out, tr.target(int32(i)))
		}
	}
	return out
}

// Cols returns the sorted union of attribute columns covered by the tree.
func (tr *Tree) Cols() []int { return tr.cols }

// NumValues returns the number of value ids: ids run from 0 to
// NumValues()-1.
func (tr *Tree) NumValues() int { return len(tr.vals) }

// Value returns the schema column and the value that id stands for.
func (tr *Tree) Value(id int32) (col int, val string) {
	return tr.cols[tr.vcol[id]], tr.vals[id]
}
