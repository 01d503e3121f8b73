// Package repair implements the paper's contribution: cost-based
// fault-tolerant data repairing. It provides the single-FD algorithms of §3
// (ExactS, the expansion-based optimal algorithm, and GreedyS, the greedy
// approximation) and the multi-FD algorithms of §4 (ExactM over joined
// maximal independent sets, ApproM joining per-FD greedy results, and
// GreedyM, the synchronization-aware joint greedy), together with validity
// and FT-consistency verification.
//
// Algorithm inventory (paper Table 2):
//
//	ExactS  §3.1  O(μ·|V|·|E|)    optimal, single FD
//	GreedyS §3.2  O(|Î|·|V|)      heuristic, single FD
//	ExactM  §4.2  O(|V|^(|Σ|+1))  optimal, multiple FDs
//	ApproM  §4.3  O(|V|²·|Σ|)     per-FD greedy + join
//	GreedyM §4.4  O(|Σ|·|V|²)     joint greedy with cross-FD synchronization
//
// Run is the one switch over them: the library, the CLI, repaird and the
// streaming engine name an Algorithm (ParseAlgorithm for user input) and
// call Run, which checks it against the FD set first.
package repair

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
	"ftrepair/internal/vgraph"
)

// Result reports a repair: the repaired relation plus accounting.
type Result struct {
	// Repaired is the repaired relation. It is copy-on-write over the
	// input: a row the repair left unchanged is the input's own row slice,
	// and only changed rows are fresh copies. Treat both relations as
	// read-only; Clone before mutating either. The input is never modified.
	Repaired *dataset.Relation
	// Cost is the Eq-4 repair cost between the input and the repaired
	// database (sum of per-cell distances).
	Cost float64
	// Changed lists the modified cells in row-major order.
	Changed []dataset.Cell
	// Algorithm names the algorithm that produced the repair.
	Algorithm string
	// Elapsed is the wall-clock repair time.
	Elapsed time.Duration
	// Stats carries algorithm-specific counters (expansion nodes, pruned
	// subtrees, targets considered, ...). Every Result this package returns
	// has a non-nil map. The run has already added each counter that
	// obs.FlushRunStats knows to the obs registry, exactly once; a key
	// written afterwards stays out of the registry. The distCache* and
	// distPlane* entries are the run's delta of the distance cache's
	// counters, which the cache itself adds to the registry.
	Stats map[string]int
}

// Options tunes the repair algorithms.
type Options struct {
	// Graph options (index on/off) for violation-graph construction.
	Graph vgraph.Options
	// DisablePruning turns off expansion-tree bound pruning (exact
	// algorithms; ablation).
	DisablePruning bool
	// NaturalOrder disables the frequency-descending access order
	// (ablation).
	NaturalOrder bool
	// MaxNodes caps expansion-tree width for the exact algorithms.
	MaxNodes int
	// DisableTargetTree makes the multi-FD algorithms search targets by
	// linear scan instead of the §5 target tree (ablation).
	DisableTargetTree bool
	// MaxMISPerFD caps how many maximal independent sets ExactM enumerates
	// per FD; 0 means unlimited. When the cap is hit ExactM returns an
	// error (the instance needs the greedy algorithms).
	MaxMISPerFD int
	// Parallel repairs up to this many FD-graph components concurrently.
	// Components have disjoint attribute sets (that is what makes them
	// components), so their repairs commute and the result is identical to
	// the sequential one. Values below 2 mean sequential.
	Parallel int
	// Cancel, when non-nil, makes the algorithms abandon the computation as
	// soon as the channel is closed: the hot loops (the ExactS/ExactM
	// expansion search, the greedy set growth, the GreedyM joint selection)
	// poll it and return the work committed so far together with
	// ErrCanceled. Long-running repairs driven by servers or CLIs close the
	// channel from a signal handler or a cancel endpoint.
	Cancel <-chan struct{}
	// Trace, when non-nil, collects phase-scoped spans (graph builds, MIS
	// expansion, greedy growth, target search, apply) for this run. Purely
	// observational: the algorithms never consult it, so tracing cannot
	// perturb repair decisions. Metrics flow into the obs default registry
	// whether or not a trace is attached.
	Trace *obs.Trace
	// Ledger, when non-nil, receives every applied cell repair as a
	// structured event with its justification (FD, violation edge or
	// join-target, per-cell cost delta). Each run commits exactly once, in
	// finish — the same single-flush-point pattern as FlushRunStats — and
	// partial (canceled) runs commit the work they applied. Like Trace,
	// purely observational: repair decisions never consult the sink, and
	// the committed event stream is bit-identical at any worker count.
	Ledger ledger.Sink
}

// ErrCanceled is returned when Options.Cancel fires mid-repair. The Result
// returned alongside it is a partial repair: the FD components repaired
// before the cancellation are applied, and the component it interrupted
// and every later one are untouched. Partial results are not FT-consistent
// in general.
var ErrCanceled = errors.New("repair: canceled")

// graphOpts returns the graph-construction options with the repair-level
// cancellation threaded through, so a cancel fired mid-build also stops
// pair verification instead of waiting for the whole graph.
func graphOpts(opts Options) vgraph.Options {
	g := opts.Graph
	if g.Cancel == nil {
		g.Cancel = opts.Cancel
	}
	if g.Trace == nil {
		g.Trace = opts.Trace
	}
	return g
}

// cacheSnap freezes the distance-cache counters at the start of a repair so
// per-run deltas can be reported even though the cache (and its cumulative
// counters) outlives individual runs. Plane counts are snapped separately:
// they split the cache totals into plane traffic and uncached computations.
type cacheSnap struct{ hits, misses, planeHits, planeMisses uint64 }

func snapCacheStats(cfg *fd.DistConfig) cacheSnap {
	if cfg.Cache == nil {
		return cacheSnap{}
	}
	h, m := cfg.Cache.Counters()
	ph, pm := cfg.Cache.PlaneCounters()
	return cacheSnap{hits: h, misses: m, planeHits: ph, planeMisses: pm}
}

// addCacheStats records the distance-cache hit/miss deltas since snap into
// the stats map under "distCacheHits"/"distCacheMisses", and the
// distance-plane share of that traffic under
// "distPlaneHits"/"distPlaneMisses".
func addCacheStats(stats map[string]int, cfg *fd.DistConfig, snap cacheSnap) {
	if cfg.Cache == nil {
		return
	}
	h, m := cfg.Cache.Counters()
	stats["distCacheHits"] += int(h - snap.hits)
	stats["distCacheMisses"] += int(m - snap.misses)
	ph, pm := cfg.Cache.PlaneCounters()
	stats["distPlaneHits"] += int(ph - snap.planeHits)
	stats["distPlaneMisses"] += int(pm - snap.planeMisses)
}

// canceled reports whether the cancel channel (possibly nil) has fired.
func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// finish takes the elapsed wall time rather than the start instant so that
// repair decision code never holds a clock reading as data — callers pass
// time.Since(start) at the return point (nondeterm invariant, DESIGN.md §15).
//
// It is also the run's single ledger flush point, mirroring FlushRunStats:
// every algorithm funnels its applied events here exactly once, canceled
// partial runs included, so a sink sees each applied cell exactly once.
func finish(out *output, cfg *fd.DistConfig, algorithm string, elapsed time.Duration, stats map[string]int, sink ledger.Sink, events []ledger.RepairEvent) *Result {
	changed, cost := out.diff(cfg)
	// The one flush point for run-level stats: every algorithm funnels its
	// finished (or canceled-partial) Result through finish, so registry
	// totals see each run exactly once. Graph vertex/edge totals are
	// excluded — vgraph flushes those where it builds or appends a graph.
	obs.FlushRunStats(stats)
	obs.ObserveRepair(algorithm, elapsed)
	if sink != nil && len(events) > 0 {
		for i := range events {
			events[i].Algorithm = algorithm
		}
		sink.Commit(events)
	}
	return &Result{
		Repaired:  out.rel,
		Cost:      cost,
		Changed:   changed,
		Algorithm: algorithm,
		Elapsed:   elapsed,
		Stats:     stats,
	}
}

// output is a repair's copy-on-write result. rel starts as a shallow copy
// of the input whose rows alias the input's; the first write that changes
// a row's cell copies that row. A repair thus copies only the rows it
// changes and never modifies the input, and diff reads Changed and Cost
// off the copied rows alone.
//
// Concurrent components (Options.Parallel >= 2) write disjoint columns of
// the same rows, and a first write replaces the row slice that another
// component may be reading. Each component therefore holds mu over its
// apply phase; the sequential loop takes the same (uncontended) lock, so
// both run one code path.
type output struct {
	in, rel *dataset.Relation
	// copied marks the rows rel no longer shares with in.
	copied bitset.Set
	mu     sync.Mutex
}

// newOutput starts an unchanged copy-on-write view of in.
func newOutput(in *dataset.Relation) *output {
	return &output{
		in:     in,
		rel:    &dataset.Relation{Schema: in.Schema, Tuples: slices.Clone(in.Tuples)},
		copied: bitset.New(len(in.Tuples)),
	}
}

// set writes v into the cell and returns the value it replaced. A write
// that changes nothing is skipped (changed is false); the first real write
// to a row copies it.
func (o *output) set(row, col int, v string) (old string, changed bool) {
	t := o.rel.Tuples[row]
	if old = t[col]; old == v {
		return old, false
	}
	if !o.copied.Has(row) {
		t = t.Clone()
		o.rel.Tuples[row] = t
		o.copied.Set(row)
	}
	t[col] = v
	return old, true
}

// diff returns the cells where rel differs from in, in row-major order,
// and their Eq-4 cost. Both equal dataset.Diff and DistConfig.DatabaseCost
// over (in, rel), bit for bit: the rows it skips are the input's own, and
// an unchanged cell's repair distance is exactly +0 (confidences are
// finite and positive), which leaves a float sum unchanged.
func (o *output) diff(cfg *fd.DistConfig) ([]dataset.Cell, float64) {
	var changed []dataset.Cell
	var cost float64
	o.copied.IterateOnes(func(row int) bool {
		a, b := o.in.Tuples[row], o.rel.Tuples[row]
		var rowCost float64
		for c := range a {
			if a[c] != b[c] {
				changed = append(changed, dataset.Cell{Row: row, Col: c})
				rowCost += cfg.RepairDist(c, a[c], b[c])
			}
		}
		cost += rowCost
		return true
	})
	return changed, cost
}

// Partial applies only the selected repaired cells onto the original
// relation, for human-in-the-loop workflows where a reviewer approves a
// subset of the proposed repairs (the user-guided complement the paper
// discusses). Cells not in res.Changed are ignored. The result may not be
// FT-consistent — it reflects exactly the approved subset.
func (res *Result) Partial(orig *dataset.Relation, approved []dataset.Cell) *dataset.Relation {
	proposed := make(map[dataset.Cell]bool, len(res.Changed))
	for _, c := range res.Changed {
		proposed[c] = true
	}
	out := orig.Clone()
	for _, c := range approved {
		if proposed[c] {
			out.Set(c, res.Repaired.Get(c))
		}
	}
	return out
}

// VerifyFTConsistent checks that rel is FT-consistent w.r.t. every FD in
// set, returning a descriptive error for the first violation found.
func VerifyFTConsistent(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig) error {
	for i, f := range set.FDs {
		patterns := fd.DistinctProjections(rel, f)
		for a := 0; a < len(patterns); a++ {
			for b := a + 1; b < len(patterns); b++ {
				if cfg.FTViolates(f, set.Tau[i], patterns[a], patterns[b]) {
					return fmt.Errorf("repair: FT-violation of %s between %v and %v (dist %.4f, tau %.4f)",
						f, patterns[a].Project(f.Attrs()), patterns[b].Project(f.Attrs()),
						cfg.Dist(f, patterns[a], patterns[b]), set.Tau[i])
				}
			}
		}
	}
	return nil
}

// VerifyValid checks the closed-world validity of a repair: for every tuple
// of repaired and every FD, the projected values must occur together in some
// tuple of the original database (§2.2, valid tuple repair).
func VerifyValid(orig, repaired *dataset.Relation, set *fd.Set) error {
	for _, f := range set.FDs {
		keys := make(map[string]bool, orig.Len())
		for _, t := range orig.Tuples {
			keys[t.Key(f.Attrs())] = true
		}
		for i, t := range repaired.Tuples {
			if !keys[t.Key(f.Attrs())] {
				return fmt.Errorf("repair: tuple %d has projection %v on %s absent from the original database",
					i, t.Project(f.Attrs()), f)
			}
		}
	}
	return nil
}
