package repair

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/mis"
	"ftrepair/internal/obs"
	"ftrepair/internal/vgraph"
)

// ErrTooManyMIS is returned (wrapped) when ExactM's enumeration exceeds
// Options.MaxMISPerFD or the combination budget; the instance should be
// repaired with ApproM or GreedyM instead.
var ErrTooManyMIS = fmt.Errorf("repair: too many maximal independent sets for exact repair")

// maxCombos bounds the Cartesian product ExactM is willing to evaluate.
const maxCombos = 1 << 20

// ExactM repairs rel w.r.t. a set of FDs optimally (§4.2): per connected
// component of the FD graph, it enumerates the maximal independent sets of
// every FD's violation graph, joins each combination into targets, assigns
// every tuple its nearest target, and keeps the cheapest combination.
// Combinations are abandoned as soon as their accumulated cost exceeds the
// best known one, which plays the role of the paper's bound-based pruning
// while remaining exact.
func ExactM(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) (*Result, error) {
	return multiRepair(rel, set, cfg, opts, "ExactM", exactComponent)
}

// ApproM repairs rel w.r.t. a set of FDs with the §4.3 heuristic: the
// single-FD greedy algorithm picks one independent set per FD
// independently; the sets are joined and every tuple repairs to its nearest
// target.
func ApproM(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) (*Result, error) {
	return multiRepair(rel, set, cfg, opts, "ApproM", approComponent)
}

// GreedyM repairs rel w.r.t. a set of FDs with the §4.4 joint greedy: the
// per-FD independent sets grow interleaved, each step adding the globally
// cheapest pattern where the cost includes a cross-FD synchronization term
// (patterns conflicting on shared attributes with already-chosen patterns
// of connected FDs are penalized by the extra repair distance they would
// force).
func GreedyM(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) (*Result, error) {
	return multiRepair(rel, set, cfg, opts, "GreedyM", greedyComponent)
}

// componentFunc repairs one connected component of the FD graph in place,
// recording applied cells into ev when non-nil.
type componentFunc func(rel, out *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error

func multiRepair(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options, name string, repairComp componentFunc) (*Result, error) {
	start := time.Now()
	snap := snapCacheStats(cfg)
	out := rel.Clone()
	stats := make(map[string]int)
	comps := set.Components()
	// Each component gets a private event buffer: components repair disjoint
	// attribute columns, so buffers never race, and flattening them in
	// component order makes the collected stream independent of which
	// goroutine finished first. Worker records the component index (stable
	// across worker counts), not a goroutine id.
	var bufs []*eventBuf
	if opts.Ledger != nil {
		bufs = make([]*eventBuf, len(comps))
		for i := range bufs {
			bufs[i] = &eventBuf{}
		}
	}
	gather := func() []ledger.RepairEvent {
		var all []ledger.RepairEvent
		for ci, b := range bufs {
			for _, e := range b.take() {
				e.Worker = ci
				all = append(all, e)
			}
		}
		return all
	}
	// partial finishes the result over whatever components committed before
	// a cancellation and surfaces the typed error alongside it.
	partial := func() (*Result, error) {
		addCacheStats(stats, cfg, snap)
		res, ferr := finish(rel, out, cfg, name, time.Since(start), stats, opts.Ledger, gather())
		if ferr != nil {
			return nil, ferr
		}
		return res, ErrCanceled
	}
	compBuf := func(i int) *eventBuf {
		if bufs == nil {
			return nil
		}
		return bufs[i]
	}
	if opts.Parallel >= 2 && len(comps) > 1 {
		if err := repairComponentsParallel(rel, out, set, cfg, opts, stats, comps, repairComp, compBuf); err != nil {
			if errors.Is(err, ErrCanceled) {
				return partial()
			}
			return nil, err
		}
	} else {
		for i, comp := range comps {
			if canceled(opts.Cancel) {
				return partial()
			}
			sub := set.Subset(comp)
			if err := repairComp(rel, out, sub, cfg, opts, stats, compBuf(i)); err != nil {
				if errors.Is(err, ErrCanceled) {
					return partial()
				}
				return nil, err
			}
		}
	}
	addCacheStats(stats, cfg, snap)
	return finish(rel, out, cfg, name, time.Since(start), stats, opts.Ledger, gather())
}

// repairComponentsParallel runs component repairs on up to opts.Parallel
// goroutines. Components write disjoint attribute columns of out, so the
// repairs commute; stats merge under a lock, and each worker records events
// into its own component buffer (fetched via compBuf by component index).
func repairComponentsParallel(rel, out *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options, stats map[string]int, comps [][]int, repairComp componentFunc, compBuf func(int) *eventBuf) error {
	sem := make(chan struct{}, opts.Parallel)
	errs := make(chan error, len(comps))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, comp := range comps {
		if canceled(opts.Cancel) {
			// Stop submitting; in-flight workers observe the same channel
			// and unwind on their own.
			break
		}
		ci, comp := ci, comp
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			local := make(map[string]int)
			err := repairComp(rel, out, set.Subset(comp), cfg, opts, local, compBuf(ci))
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			for k, v := range local {
				stats[k] += v
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	// Prefer a real failure over a cancellation when both occurred.
	var firstCancel error
	for err := range errs {
		if errors.Is(err, ErrCanceled) {
			firstCancel = err
			continue
		}
		return err
	}
	if firstCancel == nil && canceled(opts.Cancel) {
		// The submission loop stopped before any worker noticed; surface
		// the cancellation instead of a silently partial repair.
		firstCancel = ErrCanceled
	}
	return firstCancel
}

func buildGraphs(rel *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options) []*vgraph.Graph {
	gopts := graphOpts(opts)
	graphs := make([]*vgraph.Graph, len(sub.FDs))
	if len(sub.FDs) == 1 {
		graphs[0] = vgraph.Build(rel, sub.FDs[0], cfg, sub.Tau[0], gopts)
		return graphs
	}
	// Per-FD graphs are independent and Build is deterministic regardless of
	// scheduling, so the builds always fan out; opts.Parallel only gates
	// component-repair concurrency, which does commit order-sensitive work.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sub.FDs) {
		workers = len(sub.FDs)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, f := range sub.FDs {
		i, f := i, f
		// Each concurrent build gets its own 1-based slot label so trace
		// viewers show per-FD builds on separate tracks.
		slot := gopts
		slot.Worker = i + 1
		if canceled(opts.Cancel) {
			// Canceled: fill the remaining slots inline. With a fired Cancel
			// threaded into gopts, Build stops verifying pairs immediately
			// and returns a vertex-only graph, so no slot is ever nil and
			// callers surface the cancellation themselves.
			graphs[i] = vgraph.Build(rel, f, cfg, sub.Tau[i], slot)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			graphs[i] = vgraph.Build(rel, f, cfg, sub.Tau[i], slot)
		}()
	}
	wg.Wait()
	return graphs
}

// exactComponent implements Algorithm 3 for one component.
func exactComponent(rel, out *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error {
	graphs := buildGraphs(rel, sub, cfg, opts)
	if len(sub.FDs) == 1 {
		// Single-FD component: the expansion algorithm is optimal
		// (Theorem 5) and far cheaper than enumeration + join.
		sp := obs.Begin(opts.Trace, obs.PhaseExpand)
		sp.SetFD(sub.FDs[0].String())
		res, err := mis.BestMIS(graphs[0], mis.Options{
			DisablePruning: opts.DisablePruning,
			NaturalOrder:   opts.NaturalOrder,
			MaxNodes:       opts.MaxNodes,
			Cancel:         opts.Cancel,
		})
		sp.Add("nodes", int64(res.NodesExplored))
		sp.End()
		if errors.Is(err, mis.ErrCanceled) {
			return ErrCanceled
		}
		if err != nil {
			return err
		}
		stats["nodes"] += res.NodesExplored
		ap := obs.Begin(opts.Trace, obs.PhaseApply)
		applyInPlace(out, graphs[0], repairTargets(graphs[0], res.Set), cfg, ev)
		ap.End()
		return nil
	}

	sp := obs.Begin(opts.Trace, obs.PhaseExpand)
	families := make([][][]int, len(sub.FDs))
	combos := 1
	for i, g := range graphs {
		if canceled(opts.Cancel) {
			sp.End()
			return ErrCanceled
		}
		families[i] = mis.EnumerateMaximal(g)
		if opts.MaxMISPerFD > 0 && len(families[i]) > opts.MaxMISPerFD {
			sp.End()
			return fmt.Errorf("%w: %d sets for %s (cap %d)", ErrTooManyMIS, len(families[i]), sub.FDs[i], opts.MaxMISPerFD)
		}
		combos *= len(families[i])
		if combos > maxCombos || combos <= 0 {
			sp.End()
			return fmt.Errorf("%w: combination count overflows budget", ErrTooManyMIS)
		}
	}
	sp.Add("combinations", int64(combos))
	sp.End()
	stats["combinations"] += combos

	groups := groupTuples(rel, unionAttrs(sub.FDs))
	// One worker per plan: the combination workers are ExactM's
	// parallelism, and pruning aborts a plan between groups.
	p := newPlanner(groups, graphs, cfg, opts.DisableTargetTree, opts.Cancel, 1)
	ts := obs.Begin(opts.Trace, obs.PhaseTargetSearch)
	best, visited, updates, err := searchCombos(graphs, families, combos, opts, p)
	ts.Add("treeVisited", int64(visited))
	ts.Add("incumbents", int64(updates))
	ts.End()
	stats["treeVisited"] += visited
	stats["bnbIncumbents"] += updates
	if err != nil {
		return err
	}
	if best == nil {
		return fmt.Errorf("repair: no feasible combination of independent sets joins into targets")
	}
	if ev != nil {
		ev.fdLabel = fdSetLabel(sub)
	}
	ap := obs.Begin(opts.Trace, obs.PhaseApply)
	applyPlan(out, groups, best, cfg, ev)
	ap.End()
	return nil
}

// approComponent implements §4.3 for one component.
func approComponent(rel, out *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error {
	graphs := buildGraphs(rel, sub, cfg, opts)
	sp := obs.Begin(opts.Trace, obs.PhaseGreedyGrow)
	sets := make([][]int, len(graphs))
	for i, g := range graphs {
		sets[i] = greedySet(g, opts.Cancel)
		if canceled(opts.Cancel) {
			sp.End()
			return ErrCanceled
		}
	}
	sp.End()
	return applyJoinedSets(rel, out, sub, cfg, opts, stats, graphs, sets, ev)
}

// greedyComponent implements §4.4 for one component.
func greedyComponent(rel, out *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error {
	graphs := buildGraphs(rel, sub, cfg, opts)
	sp := obs.Begin(opts.Trace, obs.PhaseGreedyGrow)
	js := jointGreedySets(rel, graphs, opts.Cancel)
	sp.Add("syncEvals", int64(js.syncEvals))
	sp.Add("violatorSearches", int64(js.violatorSearches))
	sp.End()
	if canceled(opts.Cancel) {
		// The joint growth stopped early; leave this component untouched
		// rather than applying a half-grown plan.
		return ErrCanceled
	}
	return applyJoinedSets(rel, out, sub, cfg, opts, stats, graphs, js.sets, ev)
}

// applyJoinedSets joins per-FD independent sets into targets and repairs
// every tuple whose projections fall outside them. When the join is empty
// (the chosen sets disagree on every shared value — possible for heuristic
// sets), it falls back to iterated per-FD greedy repair.
func applyJoinedSets(rel, out *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options, stats map[string]int, graphs []*vgraph.Graph, sets [][]int, ev *eventBuf) error {
	if len(graphs) == 1 {
		ap := obs.Begin(opts.Trace, obs.PhaseApply)
		applyInPlace(out, graphs[0], repairTargets(graphs[0], sets[0]), cfg, ev)
		ap.End()
		return nil
	}
	groups := groupTuples(rel, unionAttrs(sub.FDs))
	p := newPlanner(groups, graphs, cfg, opts.DisableTargetTree, opts.Cancel, runtime.GOMAXPROCS(0))
	ts := obs.Begin(opts.Trace, obs.PhaseTargetSearch)
	p.span = ts
	plan, _, visited, ok := p.costs(chosenBits(graphs, sets), levelsFor(graphs, sets), nil)
	ts.Add("treeVisited", int64(visited))
	ts.End()
	stats["treeVisited"] += visited
	if canceled(opts.Cancel) {
		return ErrCanceled
	}
	if !ok {
		stats["joinFallback"]++
		return sequentialFallback(out, sub, cfg, opts, ev)
	}
	if ev != nil {
		ev.fdLabel = fdSetLabel(sub)
	}
	ap := obs.Begin(opts.Trace, obs.PhaseApply)
	applyPlan(out, groups, plan, cfg, ev)
	ap.End()
	return nil
}

// sequentialFallback repairs the component FD by FD with the single-FD
// greedy algorithm, iterating until the component is FT-consistent or a
// round budget is exhausted. It is only used when the joined independent
// sets admit no target.
func sequentialFallback(out *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options, ev *eventBuf) error {
	const maxRounds = 5
	for round := 0; round < maxRounds; round++ {
		clean := true
		for i, f := range sub.FDs {
			if canceled(opts.Cancel) {
				return ErrCanceled
			}
			g := vgraph.Build(out, f, cfg, sub.Tau[i], graphOpts(opts))
			if g.NumEdges() == 0 {
				continue
			}
			clean = false
			applyInPlace(out, g, repairTargets(g, greedySet(g, opts.Cancel)), cfg, ev)
		}
		if clean {
			return nil
		}
	}
	return nil // best effort; verification reports any residual violations
}

// applyInPlace is applyVertexRepairs writing directly into out (whose rows
// align with the graph's source relation). When ev is non-nil, every cell
// whose value actually changes is recorded with the violation edge (from →
// to) that justified the repair; unchanged cells stay silent, so the ledger
// matches dataset.Diff exactly for single-write repairs.
func applyInPlace(out *dataset.Relation, g *vgraph.Graph, target map[int]int, cfg *fd.DistConfig, ev *eventBuf) {
	for from, to := range target {
		pattern := g.Vertices[to].Rep
		var tmpl ledger.RepairEvent
		if ev != nil {
			tmpl = vertexTemplate(g, from, to)
		}
		for _, row := range g.Vertices[from].Rows {
			for _, c := range g.FD.Attrs() {
				old := out.Tuples[row][c]
				out.Tuples[row][c] = pattern[c]
				if ev != nil && old != pattern[c] {
					ev.record(cellEvent(tmpl, out, cfg, row, c, old, pattern[c]))
				}
			}
		}
	}
}

// The joint greedy growth (jointGreedySets and its retained naive
// reference jointGreedySetsNaive) lives in joint.go alongside the shared
// jointState cost model.
