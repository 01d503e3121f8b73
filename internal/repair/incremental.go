package repair

import (
	"fmt"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/targettree"
)

// Incremental maintains FT-consistency as tuples are appended to an
// already-consistent relation, without recomputing a full repair: each new
// tuple is checked against the accepted patterns of every FD; when it
// FT-violates one, its constrained attributes repair to the nearest
// existing join-target (incremental bias — the standing data wins). Tuples
// whose patterns are genuinely new (beyond every threshold) are accepted
// and extend the pattern sets.
//
// An Incremental is not safe for concurrent use; serialize Add calls.
type Incremental struct {
	set *fd.Set
	cfg *fd.DistConfig
	rel *dataset.Relation
	// comps partitions the FDs (Theorem 5); repairs stay component-local.
	comps []*incComponent
	// accepted counts tuples appended; repaired how many were modified.
	accepted, repaired int
}

type incComponent struct {
	fdIdx []int // indices into set.FDs
	attrs []int // union of constrained attributes
	// patterns[f] holds one representative per accepted distinct
	// projection of FD fdIdx[f]; keys[f] the projection-key set.
	patterns [][]dataset.Tuple
	keys     []map[string]bool
	// tree is the memoized nearest-target index. Multi-FD components
	// rebuild it lazily when treeDirty (a new pattern arrived since the
	// last build). Single-FD components defer harder: tree covers only
	// patterns[0][:treeBuilt], fresher patterns are scanned linearly
	// alongside the tree search, and the tree refolds only once the fresh
	// tail outgrows incFreshFold — so alternating absorb/repair workloads
	// stop paying a full O(patterns) rebuild per repaired tuple.
	tree      *targettree.Tree
	treeDirty bool
	treeBuilt int
	// codes are the tree values' distance-plane codes (valueCodes);
	// scores is the search's dense score vector, reused across tuples.
	codes  []int32
	scores []float64
	// treeBuilds counts Build calls (observability for the memoization).
	treeBuilds int
}

// incFreshFold is the single-FD fresh-tail length that triggers a refold.
const incFreshFold = 64

// NewIncremental builds incremental state over base, which must already be
// FT-consistent w.r.t. the set (e.g. the Repaired relation of a prior
// Repair call). The base relation is cloned.
func NewIncremental(base *dataset.Relation, set *fd.Set, cfg *fd.DistConfig) (*Incremental, error) {
	if err := VerifyFTConsistent(base, set, cfg); err != nil {
		return nil, fmt.Errorf("repair: incremental base: %w", err)
	}
	inc := &Incremental{set: set, cfg: cfg, rel: base.Clone()}
	for _, comp := range set.Components() {
		c := &incComponent{fdIdx: comp, treeDirty: true}
		var fds []*fd.FD
		for _, i := range comp {
			fds = append(fds, set.FDs[i])
		}
		c.attrs = fd.UnionAttrs(fds)
		c.patterns = make([][]dataset.Tuple, len(comp))
		c.keys = make([]map[string]bool, len(comp))
		for f := range comp {
			c.keys[f] = make(map[string]bool)
		}
		for _, t := range base.Tuples {
			c.absorb(set, t)
		}
		inc.comps = append(inc.comps, c)
	}
	return inc, nil
}

// absorb records t's projections as accepted patterns.
func (c *incComponent) absorb(set *fd.Set, t dataset.Tuple) {
	for f, i := range c.fdIdx {
		k := t.Key(set.FDs[i].Attrs())
		if !c.keys[f][k] {
			c.keys[f][k] = true
			c.patterns[f] = append(c.patterns[f], t.Clone())
			c.treeDirty = true
		}
	}
}

// Add appends one tuple, repairing it if needed, and returns the accepted
// version together with whether it was modified. The tuple must match the
// relation's schema.
func (inc *Incremental) Add(t dataset.Tuple) (dataset.Tuple, bool, error) {
	if len(t) != inc.rel.Schema.Len() {
		return nil, false, fmt.Errorf("repair: tuple has %d cells, schema has %d", len(t), inc.rel.Schema.Len())
	}
	out := t.Clone()
	changed := false
	for _, c := range inc.comps {
		repaired, err := c.accept(inc.set, inc.cfg, out)
		if err != nil {
			return nil, false, err
		}
		if repaired {
			changed = true
		}
	}
	if err := inc.rel.Append(out); err != nil {
		return nil, false, err
	}
	inc.accepted++
	if changed {
		inc.repaired++
	}
	return out, changed, nil
}

// accept checks the tuple against one component and repairs it in place
// when it FT-violates an accepted pattern. Returns whether it modified the
// tuple.
func (c *incComponent) accept(set *fd.Set, cfg *fd.DistConfig, t dataset.Tuple) (bool, error) {
	violates := false
	for f, i := range c.fdIdx {
		phi := set.FDs[i]
		k := t.Key(phi.Attrs())
		if c.keys[f][k] {
			continue // exact existing pattern: consistent by construction
		}
		pm := cfg.AcquirePairMatcher(phi, t)
		for _, p := range c.patterns[f] {
			if _, within := pm.DistWithin(set.Tau[i], p); within {
				violates = true
				break
			}
		}
		pm.Release()
		if violates {
			break
		}
	}
	if !violates {
		// Genuinely new patterns: accept and extend the state.
		c.absorb(set, t)
		return false, nil
	}
	tg, err := c.nearestTarget(set, cfg, t)
	if err != nil {
		return false, err
	}
	changed := false
	for j, col := range tg.Cols {
		if t[col] != tg.Vals[j] {
			t[col] = tg.Vals[j]
			changed = true
		}
	}
	return changed, nil
}

// nearestTarget finds the closest accepted join-target for t. Single-FD
// components search the memoized tree prefix plus a linear scan of the
// fresh tail (refolding past incFreshFold); multi-FD components rebuild
// the joined tree when dirty.
func (c *incComponent) nearestTarget(set *fd.Set, cfg *fd.DistConfig, t dataset.Tuple) (targettree.Target, error) {
	if len(c.fdIdx) == 1 {
		return c.nearestSingle(set, cfg, t)
	}
	if c.treeDirty {
		if err := c.buildTree(set, cfg); err != nil {
			return targettree.Target{}, err
		}
		c.treeDirty = false
	}
	rs := cfg.AcquireRepairScorer(t)
	c.scores = scoreValues(c.tree, c.codes, rs, c.scores)
	rs.Release()
	tg, _, _ := c.tree.Nearest(c.scores, nil)
	return tg, nil
}

// nearestSingle is the single-FD search: best of the tree over the folded
// prefix and a scan of the fresh tail. The tree wins distance ties, so a
// refold never changes which of two equidistant targets is picked away
// from the earlier-accepted one.
func (c *incComponent) nearestSingle(set *fd.Set, cfg *fd.DistConfig, t dataset.Tuple) (targettree.Target, error) {
	if len(c.patterns[0])-c.treeBuilt > incFreshFold {
		if err := c.buildTree(set, cfg); err != nil {
			return targettree.Target{}, err
		}
		c.treeBuilt = len(c.patterns[0])
		c.treeDirty = false
	}
	attrs := set.FDs[c.fdIdx[0]].Attrs()
	rs := cfg.AcquireRepairScorer(t)
	defer rs.Release()
	var best targettree.Target
	bestDist := -1.0
	if c.treeBuilt > 0 {
		c.scores = scoreValues(c.tree, c.codes, rs, c.scores)
		tg, d, _ := c.tree.Nearest(c.scores, nil)
		best, bestDist = tg, d
	}
	for _, p := range c.patterns[0][c.treeBuilt:] {
		var d float64
		for _, col := range attrs {
			d += rs.Score(col, cfg.ValueCode(col, p[col]), p[col])
		}
		if bestDist < 0 || d < bestDist {
			best = targettree.Target{Cols: attrs, Vals: p.Project(attrs)}
			bestDist = d
		}
	}
	return best, nil
}

// buildTree rebuilds the tree over every accepted pattern, with its
// values' plane codes.
func (c *incComponent) buildTree(set *fd.Set, cfg *fd.DistConfig) error {
	c.treeBuilds++
	levels := make([]targettree.Level, len(c.fdIdx))
	for f, i := range c.fdIdx {
		attrs := set.FDs[i].Attrs()
		l := targettree.Level{Attrs: attrs}
		for _, p := range c.patterns[f] {
			l.Patterns = append(l.Patterns, p.Project(attrs))
		}
		levels[f] = l
	}
	tree, err := targettree.Build(levels)
	if err != nil {
		return err
	}
	c.tree, c.codes = tree, valueCodes(tree, cfg)
	return nil
}

// Relation returns the maintained relation (base plus accepted tuples).
// Callers must not modify it.
func (inc *Incremental) Relation() *dataset.Relation { return inc.rel }

// Stats reports how many tuples were appended and how many needed repair.
func (inc *Incremental) Stats() (accepted, repaired int) {
	return inc.accepted, inc.repaired
}

// TreeBuilds reports how many target-tree constructions the stream has
// paid for across components — the cost the fresh-tail memoization bounds.
func (inc *Incremental) TreeBuilds() int {
	n := 0
	for _, c := range inc.comps {
		n += c.treeBuilds
	}
	return n
}
