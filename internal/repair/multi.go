package repair

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ftrepair/internal/bitset"
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

// ErrEmptyJoin is returned, wrapped with the component's FD label, when a
// multi-FD component's independent sets join into no target: for ExactM no
// combination of maximal sets does, for ApproM and GreedyM the one
// combination they grew does not. No tuple can then take patterns of
// every FD's set at once, and repairing FD by FD writes projections absent
// from the input, which is not a valid repair (§2.2); so the run fails and
// returns no Result.
var ErrEmptyJoin = errors.New("repair: no feasible combination of independent sets joins into targets")

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
	return multiRepair(rel, set, cfg, opts, string(AlgoExactM), exactComponent, nil)
}

// ExactS repairs rel w.r.t. a single FD optimally (§3.1): it finds the best
// maximal independent set of the violation graph by expansion with
// lower/upper-bound pruning, then repairs every excluded pattern to its
// cheapest neighbor in the set. It is ExactM's one-FD component. The
// search is exponential in the worst case (the problem is NP-hard,
// Theorem 3); Options.MaxNodes bounds the tree and yields an error when
// exceeded.
func ExactS(rel *dataset.Relation, f *fd.FD, cfg *fd.DistConfig, tau float64, opts Options) (*Result, error) {
	return multiRepair(rel, oneFD(f, tau), cfg, opts, string(AlgoExactS), exactComponent, nil)
}

// GreedyS repairs rel w.r.t. a single FD with the greedy heuristic of §3.2
// (Algorithm 2): grow an expected-best independent set by repeatedly adding
// the pattern with the smallest incremental repair cost (Eq. 8), then
// repair excluded patterns to their cheapest chosen neighbor. It is
// ApproM's one-FD component.
func GreedyS(rel *dataset.Relation, f *fd.FD, cfg *fd.DistConfig, tau float64, opts Options) (*Result, error) {
	return multiRepair(rel, oneFD(f, tau), cfg, opts, string(AlgoGreedyS), approComponent, nil)
}

// oneFD is the constraint set {f} at tau.
func oneFD(f *fd.FD, tau float64) *fd.Set {
	return &fd.Set{FDs: []*fd.FD{f}, Tau: []float64{tau}}
}

// ApproM repairs rel w.r.t. a set of FDs with the §4.3 heuristic: the
// single-FD greedy algorithm picks one independent set per FD
// independently; the sets are joined and every tuple repairs to its nearest
// target.
func ApproM(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) (*Result, error) {
	return multiRepair(rel, set, cfg, opts, string(AlgoApproM), approComponent, nil)
}

// GreedyM repairs rel w.r.t. a set of FDs with the §4.4 joint greedy: the
// per-FD independent sets grow interleaved, each step adding the globally
// cheapest pattern where the cost includes a cross-FD synchronization term
// (patterns conflicting on shared attributes with already-chosen patterns
// of connected FDs are penalized by the extra repair distance they would
// force).
func GreedyM(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) (*Result, error) {
	return multiRepair(rel, set, cfg, opts, string(AlgoGreedyM), greedyComponent, nil)
}

// componentFunc repairs one connected component of the FD graph over its
// graphs, sub.FDs[i]'s at index i, and writes its repairs through out,
// holding out.mu over its apply phase, recording applied cells into ev
// when non-nil. A component that fails or is canceled writes nothing.
type componentFunc func(rel *dataset.Relation, out *output, sub *fd.Set, graphs []*vgraph.Graph, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error

// multiRepair is the one repair driver: it runs repairComp on every
// component of set, over the given graphs when set is one component and
// graphs is non-nil, else over the graphs buildGraphs builds per
// component, and reports the graphs' vertices and edges in Stats.
func multiRepair(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options, name string, repairComp componentFunc, graphs []*vgraph.Graph) (*Result, error) {
	start := time.Now()
	snap := snapCacheStats(cfg)
	out := newOutput(rel)
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
		return finish(out, cfg, name, time.Since(start), stats, opts.Ledger, gather()), ErrCanceled
	}
	compBuf := func(i int) *eventBuf {
		if bufs == nil {
			return nil
		}
		return bufs[i]
	}
	repairOne := func(sub *fd.Set, stats map[string]int, ev *eventBuf) error {
		gs := graphs
		if gs == nil {
			gs = buildGraphs(rel, sub, cfg, opts)
		}
		for _, g := range gs {
			stats["vertices"] += len(g.Vertices)
			stats["edges"] += g.NumEdges()
		}
		return repairComp(rel, out, sub, gs, cfg, opts, stats, ev)
	}
	if opts.Parallel >= 2 && len(comps) > 1 {
		if err := repairComponentsParallel(set, opts, stats, comps, repairOne, compBuf); err != nil {
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
			if err := repairOne(set.Subset(comp), stats, compBuf(i)); err != nil {
				if errors.Is(err, ErrCanceled) {
					return partial()
				}
				return nil, err
			}
		}
	}
	addCacheStats(stats, cfg, snap)
	return finish(out, cfg, name, time.Since(start), stats, opts.Ledger, gather()), nil
}

// repairComponentsParallel runs component repairs on up to opts.Parallel
// goroutines. Components write disjoint attribute columns of the output,
// so the repairs commute; their apply phases serialize on the output's
// lock, stats merge under a lock, and each worker records events into its
// own component buffer (fetched via compBuf by component index). Of
// several failures it returns the first component's, as the sequential
// loop would.
func repairComponentsParallel(set *fd.Set, opts Options, stats map[string]int, comps [][]int, repairOne func(*fd.Set, map[string]int, *eventBuf) error, compBuf func(int) *eventBuf) error {
	sem := make(chan struct{}, opts.Parallel)
	errs := make([]error, len(comps))
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
			if errs[ci] = repairOne(set.Subset(comp), local, compBuf(ci)); errs[ci] != nil {
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
	// Prefer a real failure over a cancellation when both occurred.
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
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

// buildGraphs builds the component's violation graphs in one vgraph call,
// which shares the column encoding and probe joins among the FDs and fans
// the builds out itself: the graphs a run uses unless RunOnGraphs supplies
// them. With a fired Cancel it still returns every graph, vertex-only where
// verification never ran, so callers surface the cancellation themselves.
func buildGraphs(rel *dataset.Relation, sub *fd.Set, cfg *fd.DistConfig, opts Options) []*vgraph.Graph {
	return vgraph.BuildSet(rel, sub.FDs, cfg, sub.Tau, graphOpts(opts))
}

// exactComponent implements Algorithm 3 for one component.
func exactComponent(rel *dataset.Relation, out *output, sub *fd.Set, graphs []*vgraph.Graph, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error {
	if len(sub.FDs) == 1 {
		// Single-FD component, ExactS: the expansion search (§3.1) is
		// optimal (Theorem 5) and far cheaper than enumeration + join.
		sp := obs.Begin(opts.Trace, obs.PhaseExpand)
		sp.SetFD(sub.FDs[0].String())
		res, err := mis.BestMIS(graphs[0], mis.Options{
			DisablePruning: opts.DisablePruning,
			NaturalOrder:   opts.NaturalOrder,
			MaxNodes:       opts.MaxNodes,
			Cancel:         opts.Cancel,
		})
		sp.Add("nodes", int64(res.NodesExplored))
		sp.Add("pruned", int64(res.Pruned))
		sp.End()
		if errors.Is(err, mis.ErrCanceled) {
			return ErrCanceled
		}
		if err != nil {
			return err
		}
		stats["nodes"] += res.NodesExplored
		stats["pruned"] += res.Pruned
		ap := obs.Begin(opts.Trace, obs.PhaseApply)
		out.mu.Lock()
		applyInPlace(out, graphs[0], repairTargets(graphs[0], res.Set), cfg, ev)
		out.mu.Unlock()
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

	groups := groupTuples(rel, graphs)
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
		return fmt.Errorf("%w: %s", ErrEmptyJoin, fdSetLabel(sub))
	}
	if ev != nil {
		ev.fdLabel = fdSetLabel(sub)
	}
	ap := obs.Begin(opts.Trace, obs.PhaseApply)
	out.mu.Lock()
	applyPlan(out, groups, best, cfg, ev)
	out.mu.Unlock()
	ap.End()
	return nil
}

// approComponent implements §4.3 for one component: GreedyS's set growth
// (§3.2) per FD, so a one-FD component is GreedyS.
func approComponent(rel *dataset.Relation, out *output, sub *fd.Set, graphs []*vgraph.Graph, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error {
	sp := obs.Begin(opts.Trace, obs.PhaseGreedyGrow)
	sp.SetFD(fdSetLabel(sub))
	sets := make([][]int, len(graphs))
	size := 0
	for i, g := range graphs {
		sets[i] = greedySet(g, opts.Cancel)
		if canceled(opts.Cancel) {
			// The growth stopped early; leave this component untouched
			// rather than applying a half-grown set.
			sp.End()
			return ErrCanceled
		}
		size += len(sets[i])
	}
	sp.Add("setSize", int64(size))
	sp.End()
	stats["setSize"] += size
	return applyJoinedSets(rel, out, sub, cfg, opts, stats, graphs, sets, ev)
}

// greedyComponent implements §4.4 for one component.
func greedyComponent(rel *dataset.Relation, out *output, sub *fd.Set, graphs []*vgraph.Graph, cfg *fd.DistConfig, opts Options, stats map[string]int, ev *eventBuf) error {
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
// every tuple whose projections fall outside them; one FD's set repairs
// each excluded pattern to its cheapest neighbor in it. When the join is
// empty (the chosen sets disagree on every shared value, which heuristic
// sets may), it returns ErrEmptyJoin and writes nothing.
func applyJoinedSets(rel *dataset.Relation, out *output, sub *fd.Set, cfg *fd.DistConfig, opts Options, stats map[string]int, graphs []*vgraph.Graph, sets [][]int, ev *eventBuf) error {
	if len(graphs) == 1 {
		ap := obs.Begin(opts.Trace, obs.PhaseApply)
		out.mu.Lock()
		applyInPlace(out, graphs[0], repairTargets(graphs[0], sets[0]), cfg, ev)
		out.mu.Unlock()
		ap.End()
		return nil
	}
	groups := groupTuples(rel, graphs)
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
		return fmt.Errorf("%w: %s", ErrEmptyJoin, fdSetLabel(sub))
	}
	if ev != nil {
		ev.fdLabel = fdSetLabel(sub)
	}
	ap := obs.Begin(opts.Trace, obs.PhaseApply)
	out.mu.Lock()
	applyPlan(out, groups, plan, cfg, ev)
	out.mu.Unlock()
	ap.End()
	return nil
}

// repairTargets maps every vertex outside the independent set to its
// cheapest neighbor inside it.
func repairTargets(g *vgraph.Graph, set []int) map[int]int {
	in := bitset.New(len(g.Vertices))
	for _, v := range set {
		in.Set(v)
	}
	target := make(map[int]int)
	for v := range g.Vertices {
		if in.Has(v) {
			continue
		}
		best, bestW := -1, math.Inf(1)
		for _, e := range g.Neighbors(v) {
			if in.Has(e.To) && e.W < bestW {
				best, bestW = e.To, e.W
			}
		}
		if best >= 0 {
			target[v] = best
		}
	}
	return target
}

// applyInPlace writes pattern repairs through out (whose rows align with
// the graph's source relation): each entry of target maps a vertex to the
// vertex whose pattern its rows adopt. Writes that change nothing are
// skipped, so a row is copied only when one of its cells changes. When ev
// is non-nil, every cell whose value actually changes is recorded with the
// violation edge (from → to) that justified the repair; unchanged cells
// stay silent, so the ledger matches Changed exactly.
func applyInPlace(out *output, g *vgraph.Graph, target map[int]int, cfg *fd.DistConfig, ev *eventBuf) {
	for from, to := range target {
		pattern := g.Vertices[to].Rep
		var tmpl ledger.RepairEvent
		if ev != nil {
			tmpl = vertexTemplate(g, from, to)
		}
		for _, row := range g.Vertices[from].Rows {
			for _, c := range g.FD.Attrs() {
				if old, changed := out.set(row, c, pattern[c]); changed && ev != nil {
					ev.record(cellEvent(tmpl, out.rel, cfg, row, c, old, pattern[c]))
				}
			}
		}
	}
}

// The joint greedy growth (jointGreedySets and its retained naive
// reference jointGreedySetsNaive) lives in joint.go alongside the shared
// jointState cost model.
