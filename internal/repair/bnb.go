package repair

import (
	"math"
	"sync"
	"sync/atomic"

	"ftrepair/internal/bitset"
	"ftrepair/internal/targettree"
	"ftrepair/internal/vgraph"
)

// This file implements ExactM's parallel branch-and-bound over the
// Cartesian product of per-FD maximal-independent-set families. Workers
// claim combination indices from an atomic counter, decode them
// mixed-radix into per-FD family members (levels and chosen-member bitsets
// are memoized per family member, so combinations sharing a set reuse its
// targettree.Build input), evaluate the joined plan, and prune against a
// shared incumbent watermark. The result is deterministic at any worker
// count: the winner is the lexicographic minimum of (exact cost,
// combination index), and a plan at least as cheap as the final incumbent
// can never be pruned (its group-ordered prefix costs are bounded by its
// total, which never exceeds the incumbent).

// watermark shares the branch-and-bound incumbent between workers. cost
// is a lock-free read used for pruning; offer installs a strictly cheaper
// plan, or an equal-cost plan with a lower combination index, so the
// surviving winner does not depend on scheduling.
type watermark struct {
	bits    atomic.Uint64 // math.Float64bits of the incumbent cost
	updates atomic.Int64  // accepted offers (incumbent improvements)
	mu      sync.Mutex
	idx     int
	plan    []*groupResult
	has     bool
}

func newWatermark() *watermark {
	w := &watermark{}
	w.bits.Store(math.Float64bits(math.Inf(1)))
	return w
}

// cost returns the current incumbent cost (+Inf before the first offer).
func (w *watermark) cost() float64 { return math.Float64frombits(w.bits.Load()) }

// offer proposes a fully evaluated plan. The incumbent is replaced when
// the candidate is cheaper, or costs exactly the same with a lower
// combination index (the deterministic tie-break; sequential evaluation
// kept the first — lowest — index, and this reproduces that at any worker
// count).
func (w *watermark) offer(cost float64, idx int, plan []*groupResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := math.Float64frombits(w.bits.Load())
	if cost > cur {
		return
	}
	if cost < cur || idx < w.idx || !w.has {
		w.idx = idx
		w.plan = plan
		w.has = true
		w.bits.Store(math.Float64bits(cost))
		w.updates.Add(1)
	}
}

// searchCombos runs the branch-and-bound over all combos combinations of
// family members (families[i] holds FD i's enumerated maximal independent
// sets). Combination index idx decodes mixed-radix with the last FD
// varying fastest — the same order the sequential loop used. It returns
// the winning plan (nil when no combination joins into targets),
// the total target-tree visit count, the number of incumbent-watermark
// updates, and ErrCanceled if the search was cut short. The update count
// is observability only — it depends on worker scheduling (how offers
// interleave), unlike the winning plan, which is deterministic.
func searchCombos(graphs []*vgraph.Graph, families [][][]int, combos int, opts Options, p *planner) (best []*groupResult, visited, updates int, err error) {
	n := len(families)
	levelCache := make([][]targettree.Level, n)
	memberCache := make([][]bitset.Set, n)
	for i, fam := range families {
		levelCache[i] = make([]targettree.Level, len(fam))
		memberCache[i] = make([]bitset.Set, len(fam))
		for j, set := range fam {
			levelCache[i][j] = levelFor(graphs[i], set)
			memberCache[i][j] = memberBits(graphs[i], set)
		}
	}
	workers := opts.Parallel
	if workers < 2 {
		workers = 1
	}
	if workers > combos {
		workers = combos
	}
	w := newWatermark()
	var visitedTotal atomic.Int64
	var next atomic.Int64
	run := func() error {
		levels := make([]targettree.Level, n)
		chosen := make([]bitset.Set, n)
		for {
			idx := int(next.Add(1) - 1)
			if idx >= combos {
				return nil
			}
			if canceled(opts.Cancel) {
				return ErrCanceled
			}
			rem := idx
			for i := n - 1; i >= 0; i-- {
				j := rem % len(families[i])
				rem /= len(families[i])
				levels[i] = levelCache[i][j]
				chosen[i] = memberCache[i][j]
			}
			plan, cost, v, ok := p.costs(chosen, levels, w.cost)
			visitedTotal.Add(int64(v))
			if ok {
				w.offer(cost, idx, plan)
			}
		}
	}
	if workers == 1 {
		err = run()
	} else {
		errs := make(chan error, workers)
		for k := 0; k < workers; k++ {
			go func() { errs <- run() }()
		}
		for k := 0; k < workers; k++ {
			if e := <-errs; e != nil && err == nil {
				err = e
			}
		}
	}
	if err != nil {
		return nil, int(visitedTotal.Load()), int(w.updates.Load()), err
	}
	return w.plan, int(visitedTotal.Load()), int(w.updates.Load()), nil
}
