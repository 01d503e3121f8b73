package targettree_test

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"ftrepair/internal/dataset"
	"ftrepair/internal/targettree"
)

// This file keeps the straightforward target tree as a reference for the
// differential tests: a breadth-first nested-loop join that materializes
// every partial path, a bottom-up prune of the paths that die before full
// depth, per-node value sets built from maps, and a Nearest whose per-call
// memo is a (column, value) map. Build and Nearest must agree with it
// exactly: same errors, targets, costs to the bit and visit counts.

type refNode struct {
	parent   *refNode
	cols     []int
	vals     []string
	children []*refNode
	sub      []refColVals
}

type refColVals struct {
	col  int
	vals []string
}

type refTree struct {
	root     *refNode
	cols     []int
	levels   []targettree.Level
	targets  int
	explored int
	nodes    int
}

func refBuild(levels []targettree.Level) (*refTree, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("targettree: no levels")
	}
	ls := append([]targettree.Level(nil), levels...)
	sort.SliceStable(ls, func(a, b int) bool { return len(ls[a].Patterns) < len(ls[b].Patterns) })

	colSet := make(map[int]bool)
	for _, l := range ls {
		if len(l.Attrs) == 0 {
			return nil, fmt.Errorf("targettree: level with no attributes")
		}
		for _, p := range l.Patterns {
			if len(p) != len(l.Attrs) {
				return nil, fmt.Errorf("targettree: pattern arity %d != %d attributes", len(p), len(l.Attrs))
			}
		}
		for _, c := range l.Attrs {
			colSet[c] = true
		}
	}
	cols := make([]int, 0, len(colSet))
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Ints(cols)

	t := &refTree{root: &refNode{}, cols: cols, levels: ls}
	frontier := []*refNode{t.root}
	nodes := 1
	for _, l := range ls {
		var next []*refNode
		for _, nd := range frontier {
			bound := refPathBindings(nd)
			for _, p := range l.Patterns {
				if !refCompatible(bound, l.Attrs, p) {
					continue
				}
				nodes++
				if nodes > targettree.MaxNodes {
					return nil, fmt.Errorf("targettree: join exceeds %d nodes; fall back to per-constraint repair", targettree.MaxNodes)
				}
				child := &refNode{parent: nd}
				for i, c := range l.Attrs {
					if _, ok := bound[c]; !ok {
						child.cols = append(child.cols, c)
						child.vals = append(child.vals, p[i])
					}
				}
				nd.children = append(nd.children, child)
				next = append(next, child)
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("targettree: join is empty (incompatible independent sets)")
		}
		frontier = next
	}
	t.targets = len(frontier)
	t.explored = nodes
	t.prune()
	t.fillValueSets(t.root)
	return t, nil
}

func refPathBindings(nd *refNode) map[int]string {
	bound := make(map[int]string)
	for cur := nd; cur != nil; cur = cur.parent {
		for i, c := range cur.cols {
			bound[c] = cur.vals[i]
		}
	}
	return bound
}

func refCompatible(bound map[int]string, attrs []int, pattern []string) bool {
	for i, c := range attrs {
		if v, ok := bound[c]; ok && v != pattern[i] {
			return false
		}
	}
	return true
}

// prune removes internal nodes with no children, bottom-up, and counts the
// nodes that remain.
func (t *refTree) prune() {
	depth := len(t.levels)
	var walk func(nd *refNode, d int) bool
	walk = func(nd *refNode, d int) bool {
		if d == depth {
			return true
		}
		kept := nd.children[:0]
		for _, c := range nd.children {
			if walk(c, d+1) {
				kept = append(kept, c)
			}
		}
		nd.children = kept
		return len(kept) > 0
	}
	walk(t.root, 0)
	var count func(nd *refNode) int
	count = func(nd *refNode) int {
		n := 1
		for _, c := range nd.children {
			n += count(c)
		}
		return n
	}
	t.nodes = count(t.root)
}

func (t *refTree) fillValueSets(nd *refNode) map[int]map[string]struct{} {
	sets := make(map[int]map[string]struct{})
	add := func(col int, v string) {
		s, ok := sets[col]
		if !ok {
			s = make(map[string]struct{})
			sets[col] = s
		}
		s[v] = struct{}{}
	}
	for _, c := range nd.children {
		childSets := t.fillValueSets(c)
		for i, col := range c.cols {
			add(col, c.vals[i])
		}
		for col, vs := range childSets {
			for v := range vs {
				add(col, v)
			}
		}
	}
	nd.sub = make([]refColVals, 0, len(sets))
	for col, vs := range sets {
		cv := refColVals{col: col, vals: make([]string, 0, len(vs))}
		for v := range vs {
			cv.vals = append(cv.vals, v)
		}
		sort.Strings(cv.vals)
		nd.sub = append(nd.sub, cv)
	}
	sort.Slice(nd.sub, func(i, j int) bool { return nd.sub[i].col < nd.sub[j].col })
	return sets
}

type refItem struct {
	nd    *refNode
	f     float64
	rdist float64
}

type refPQ []refItem

func (p refPQ) Len() int           { return len(p) }
func (p refPQ) Less(i, j int) bool { return p[i].f < p[j].f }
func (p refPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x any)        { *p = append(*p, x.(refItem)) }
func (p *refPQ) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

type refKey struct {
	col int
	val string
}

type refMemo struct {
	t    dataset.Tuple
	dist distFunc
	m    map[refKey]float64
}

func (dm *refMemo) at(col int, v string) float64 {
	k := refKey{col, v}
	if d, ok := dm.m[k]; ok {
		return d
	}
	d := dm.dist(col, dm.t[col], v)
	dm.m[k] = d
	return d
}

func (t *refTree) nearest(tu dataset.Tuple, dist distFunc) (targettree.Target, float64, int) {
	dm := &refMemo{t: tu, dist: dist, m: make(map[refKey]float64)}
	q := refPQ{{nd: t.root}}
	heap.Init(&q)
	bestCost := math.Inf(1)
	var bestLeaf *refNode
	visited := 0
	for q.Len() > 0 {
		it := heap.Pop(&q).(refItem)
		visited++
		if it.f >= bestCost {
			continue
		}
		nd := it.nd
		if len(nd.children) == 0 && nd != t.root {
			if it.rdist < bestCost {
				bestCost = it.rdist
				bestLeaf = nd
			}
			continue
		}
		for _, c := range nd.children {
			r := it.rdist
			for i, col := range c.cols {
				r += dm.at(col, c.vals[i])
			}
			f := r + refEdist(c, dm)
			if f < bestCost {
				heap.Push(&q, refItem{nd: c, f: f, rdist: r})
			}
		}
	}
	if bestLeaf == nil {
		return targettree.Target{}, math.Inf(1), visited
	}
	return t.target(bestLeaf), bestCost, visited
}

func refEdist(nd *refNode, dm *refMemo) float64 {
	var sum float64
	for _, sv := range nd.sub {
		best := math.Inf(1)
		for _, v := range sv.vals {
			if d := dm.at(sv.col, v); d < best {
				best = d
				if best <= 0 {
					break
				}
			}
		}
		sum += best
	}
	return sum
}

func (t *refTree) target(leaf *refNode) targettree.Target {
	bound := refPathBindings(leaf)
	tg := targettree.Target{Cols: t.cols, Vals: make([]string, len(t.cols))}
	for i, c := range t.cols {
		tg.Vals[i] = bound[c]
	}
	return tg
}

func (t *refTree) all() []targettree.Target {
	var out []targettree.Target
	var collect func(nd *refNode)
	collect = func(nd *refNode) {
		if len(nd.children) == 0 && nd.parent != nil {
			out = append(out, t.target(nd))
			return
		}
		for _, c := range nd.children {
			collect(c)
		}
	}
	collect(t.root)
	return out
}
