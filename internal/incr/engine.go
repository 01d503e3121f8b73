// Package incr is the sharded incremental repair engine: a long-lived
// dataset session that keeps per-component repair state warm and, on each
// appended batch, re-detects and re-repairs only the shards the batch
// touches.
//
// A shard is a connected component of the link graph over per-FD pattern
// nodes: two patterns of the same FD are linked when they FT-violate each
// other (a violation-graph edge), and every row links its patterns across
// the FDs of one attribute component (Theorem 5 components repair
// independently, so the engine keeps one shard universe per FD component).
// The link set depends only on the rows ingested so far — never on batch
// boundaries or on repaired values — so the shard partition, each shard's
// sub-relation of original input values, and therefore each shard's repair
// are identical no matter how the stream was batched. Feeding the whole
// input as one batch to a fresh engine is the from-scratch reference;
// RepairAll exposes it as the equivalence oracle.
//
// Warm state per FD: the projection-key registry (pattern dedup), a q-gram
// probe index over the probe attribute (mirroring vgraph's candidate
// filter) so a new pattern's violations are found without an O(patterns)
// scan, and the shared distance cache in the DistConfig, which memoizes
// across batches. Repair itself reuses the existing algorithms (GreedyS /
// ExactS on single-FD sets, GreedyM / ApproM / ExactM otherwise) on the
// touched shard's sub-relation; shards with no violation edges skip the
// run entirely.
package incr

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
	"ftrepair/internal/strsim"
	"ftrepair/internal/vgraph"
)

// Options configures an Engine.
type Options struct {
	// Algorithm names the per-shard repair algorithm (ExactS, GreedyS,
	// ExactM, ApproM, GreedyM). Empty means GreedyM. The single-FD
	// algorithms require a single-FD set.
	Algorithm string
	// Workers bounds concurrent shard repairs per flush; values below 2
	// repair shards sequentially. Shard repairs are independent, so the
	// output is identical at any worker count.
	Workers int
	// Repair carries base options for the per-shard runs. Cancel, Trace,
	// Parallel and Ledger are managed per flush and ignored here.
	Repair repair.Options
	// Trace, when non-nil, collects shardselect/increpair spans.
	Trace *obs.Trace
	// Ledger, when non-nil, receives one committed batch of cell-repair
	// events per flush, describing exactly the cells the flush changed in
	// the repaired view (write-backs, not per-shard intermediate values).
	// Old values are the overwritten repaired-view values, so replaying the
	// ledger backwards restores the pre-flush view precisely. Events carry
	// the justification (FD, violation edge or join-target) recorded by the
	// shard's inner repair run where one exists for the cell.
	Ledger ledger.Sink
}

// RowResult is the outcome of one submitted row.
type RowResult struct {
	// Values is the row as it stands after the flush (repaired in place
	// when its shard's repair changed it). Nil when Err is set.
	Values dataset.Tuple
	// Repaired reports whether the flush modified the row.
	Repaired bool
	// Err carries a per-row rejection (arity, numeric parse); the row was
	// skipped.
	Err error
}

// BatchResult describes one processed flush.
type BatchResult struct {
	// Reason is the flush trigger: "size", "interval", "close", "manual",
	// or "init" for the batch NewEngine runs over the base relation.
	Reason string
	// Rows holds per-submitted-row outcomes, in submission order.
	Rows []RowResult
	// Accepted counts admitted rows; Repaired how many of them the flush
	// modified; Rewritten how many pre-existing rows the flush rewrote
	// (new evidence changed an old shard's repair).
	Accepted  int
	Repaired  int
	Rewritten int
	// ChangedCells counts cell writes that changed a value.
	ChangedCells int
	// ShardsTouched counts shards dirtied by the batch (including shards
	// left dirty by an earlier canceled flush); ShardsRepaired the subset
	// re-run through the algorithm; Merges the merge-on-edge events where
	// the batch linked two previously independent shards.
	ShardsTouched  int
	ShardsRepaired int
	Merges         int
	// MaxShardRows is the row count of the largest touched shard — the
	// quantity per-batch latency is bounded by.
	MaxShardRows int
	// TotalRows is the relation size after the flush.
	TotalRows int
	Elapsed   time.Duration
}

// Stats is a point-in-time snapshot of an engine.
type Stats struct {
	// Rows is the relation size (base + admitted appends).
	Rows int
	// Batches counts flushes, including the initial base flush.
	Batches int
	// Accepted and Repaired count appended rows after the base flush and
	// how many of them were modified on admission; Rewritten counts
	// pre-existing-row rewrites by later batches.
	Accepted  int
	Repaired  int
	Rewritten int
	// Shards is the live shard population; Merges the cumulative
	// merge-on-edge count.
	Shards int
	Merges int
}

// pattern is one distinct projection of an FD, with the first input tuple
// that carried it (original values; repairs never feed back into reps).
type pattern struct {
	elem int // union-find element id
	rep  dataset.Tuple
}

// perFD is the warm per-FD detection state of one component.
type perFD struct {
	phi *fd.FD
	tau float64
	// keys maps projection key -> union-find element of the pattern.
	keys map[string]int
	pats []pattern
	// probe/attrTau/ix/valID/byVal mirror vgraph's q-gram candidate
	// filter: probe < 0 means no eligible attribute (linear scan).
	probe   int
	attrTau float64
	ix      *strsim.Index
	valID   map[string]int
	byVal   [][]int // probe value id -> local pattern indices
}

// shard is one connected component of the link graph: the rows it owns and
// whether its repair is stale.
type shard struct {
	rows  []int
	edges int // violation edges inside the shard; 0 means consistent as-is
	dirty bool
}

// component is one FD-attribute component (Theorem 5): its FD subset, its
// union-find over pattern elements, and its live shards keyed by root.
type component struct {
	name   string
	sub    *fd.Set
	attrs  []int
	fds    []*perFD
	parent []int
	shards map[int]*shard
}

// Engine is the sharded incremental repair engine. mu serializes flushes
// and guards the registries/union-find/shards; stateMu guards the row
// storage and the stats snapshot, and is held only for brief appends,
// write-backs and reads — never across a repair computation — so readers
// (Stats, Snapshot, WriteCSV) do not block behind a slow batch.
type Engine struct {
	mu      sync.Mutex
	stateMu sync.RWMutex

	schema  *dataset.Schema
	set     *fd.Set
	cfg     *fd.DistConfig
	algo    string
	workers int
	ropts   repair.Options
	trace   *obs.Trace
	led     ledger.Sink

	// input holds admitted rows with their original values (what detection
	// and repair consume); out holds the repaired view, row-aligned.
	input *dataset.Relation
	out   *dataset.Relation

	comps []*component

	stats Stats
}

// NewEngine builds an engine over base and flushes the base rows as the
// initial batch (reason "init"), repairing them if they are inconsistent.
// The returned BatchResult describes that initial flush; its ChangedCells
// is the cost of making the base consistent. base itself is not modified.
func NewEngine(base *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) (*Engine, *BatchResult, error) {
	if base == nil || base.Schema == nil {
		return nil, nil, fmt.Errorf("incr: nil base relation or schema")
	}
	algo := opts.Algorithm
	if algo == "" {
		algo = "GreedyM"
	}
	switch algo {
	case "ExactS", "GreedyS":
		if len(set.FDs) != 1 {
			return nil, nil, fmt.Errorf("incr: %s repairs a single FD, set has %d", algo, len(set.FDs))
		}
	case "ExactM", "ApproM", "GreedyM":
	default:
		return nil, nil, fmt.Errorf("incr: unknown algorithm %q", opts.Algorithm)
	}
	if cfg.Cache == nil {
		// The cache is what keeps distance work warm across batches; give
		// the engine its own rather than mutating the caller's config.
		cc := *cfg
		cc.Cache = fd.NewDistCache()
		cc.AttachPlanes()
		cfg = &cc
	}
	e := &Engine{
		schema:  base.Schema,
		set:     set,
		cfg:     cfg,
		algo:    algo,
		workers: opts.Workers,
		ropts:   opts.Repair,
		trace:   opts.Trace,
		led:     opts.Ledger,
		input:   &dataset.Relation{Schema: base.Schema},
		out:     &dataset.Relation{Schema: base.Schema},
	}
	for ci, idx := range set.Components() {
		sub := set.Subset(idx)
		c := &component{
			name:   fmt.Sprintf("comp%d", ci),
			sub:    sub,
			attrs:  fd.UnionAttrs(sub.FDs),
			shards: make(map[int]*shard),
		}
		for i, phi := range sub.FDs {
			pf := &perFD{phi: phi, tau: sub.Tau[i], keys: make(map[string]int), probe: -1}
			// Index the probe column graph builds use: a violating pair's
			// probe values are within tau/w normalized edit distance, so a
			// q-gram index over them filters candidates.
			if probe, w := vgraph.ChooseProbe(base.Schema, phi, cfg, pf.tau); probe >= 0 {
				pf.probe, pf.attrTau = probe, pf.tau/w
				pf.ix = strsim.NewIndex(2)
				pf.valID = make(map[string]int)
			}
			c.fds = append(c.fds, pf)
		}
		e.comps = append(e.comps, c)
	}
	rows := make([][]string, base.Len())
	for i, t := range base.Tuples {
		rows[i] = t
	}
	br, err := e.append(rows, "init", nil, false)
	if err != nil {
		return nil, br, err
	}
	return e, br, nil
}

// RepairAll is the from-scratch reference: a fresh engine fed the entire
// relation as one batch. Bit-identical to any batched ingest of the same
// rows in the same order — the equivalence oracle for the incremental path.
func RepairAll(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) (*dataset.Relation, *BatchResult, error) {
	eng, br, err := NewEngine(rel, set, cfg, opts)
	if err != nil {
		return nil, br, err
	}
	return eng.Snapshot(), br, nil
}

// candidates returns the local indices of existing patterns that FT-violate
// t, via the probe index when available, else a linear scan. self is t's own
// just-appended pattern index, excluded from the scan.
func (pf *perFD) candidates(cfg *fd.DistConfig, t dataset.Tuple, self int) []int {
	var out []int
	pm := cfg.AcquirePairMatcher(pf.phi, t)
	defer pm.Release()
	if pf.ix != nil {
		for _, m := range pf.ix.SearchNormalized(t[pf.probe], pf.attrTau) {
			for _, qi := range pf.byVal[m.ID] {
				if qi == self {
					continue
				}
				if _, within := pm.DistWithin(pf.tau, pf.pats[qi].rep); within {
					out = append(out, qi)
				}
			}
		}
		return out
	}
	for qi := range pf.pats {
		if qi == self {
			continue
		}
		if _, within := pm.DistWithin(pf.tau, pf.pats[qi].rep); within {
			out = append(out, qi)
		}
	}
	return out
}

// indexPattern registers the pattern at local index li in the probe index.
func (pf *perFD) indexPattern(li int, t dataset.Tuple) {
	if pf.ix == nil {
		return
	}
	val := t[pf.probe]
	id, ok := pf.valID[val]
	if !ok {
		id = pf.ix.Add(val)
		pf.valID[val] = id
		pf.byVal = append(pf.byVal, nil)
	}
	pf.byVal[id] = append(pf.byVal[id], li)
}

func (c *component) find(x int) int {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// union links two elements. It keeps the root whose shard holds more rows
// (ties to the smaller id), merges row lists, edge counts and dirty flags,
// and reports whether two row-bearing shards were merged (merge-on-edge).
func (c *component) union(a, b int) (root int, merged bool) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return ra, false
	}
	sa, sb := c.shards[ra], c.shards[rb]
	if len(sb.rows) > len(sa.rows) || (len(sb.rows) == len(sa.rows) && rb < ra) {
		ra, rb = rb, ra
		sa, sb = sb, sa
	}
	merged = len(sa.rows) > 0 && len(sb.rows) > 0
	c.parent[rb] = ra
	sa.rows = append(sa.rows, sb.rows...)
	sa.edges += sb.edges
	sa.dirty = sa.dirty || sb.dirty
	delete(c.shards, rb)
	return ra, merged
}

// newElem allocates a union-find element with its own empty shard.
func (c *component) newElem() int {
	id := len(c.parent)
	c.parent = append(c.parent, id)
	c.shards[id] = &shard{}
	return id
}

// register routes one admitted row into the component: it interns the row's
// patterns, detects the new patterns' violations against the warm registry
// (linking on every edge), unions the row's patterns across FDs, and adds
// the row to the resulting shard, dirtying it. Returns merge-on-edge count.
func (c *component) register(cfg *fd.DistConfig, row int, t dataset.Tuple) int {
	merges := 0
	home := -1
	for _, pf := range c.fds {
		k := t.Key(pf.phi.Attrs())
		el, ok := pf.keys[k]
		if !ok {
			el = c.newElem()
			pf.keys[k] = el
			li := len(pf.pats)
			pf.pats = append(pf.pats, pattern{elem: el, rep: t})
			for _, qi := range pf.candidates(cfg, t, li) {
				r, m := c.union(el, pf.pats[qi].elem)
				c.shards[r].edges++
				if m {
					merges++
				}
			}
			pf.indexPattern(li, t)
		}
		if home < 0 {
			home = el
		} else if _, m := c.union(home, el); m {
			merges++
		}
		home = c.find(home)
	}
	sh := c.shards[home]
	sh.rows = append(sh.rows, row)
	sh.dirty = true
	return merges
}

// shardJob is one dirty shard scheduled for re-repair.
type shardJob struct {
	comp *component
	sh   *shard
	rows []int // sorted ascending
	res  *repair.Result
	err  error
	skip bool // no violation edges: consistent without a run
	// buf collects the inner repair run's ledger events (shard-local row
	// numbering); the write-back loop consumes them as justification for
	// the cells it actually changes.
	buf *ledger.Buffer
}

// Append admits a batch of rows: validates and stores them, routes them
// into shards, and re-repairs every dirty shard (including shards left
// dirty by an earlier canceled flush). reason labels the flush in metrics
// and events. When cancel fires mid-flush the remaining shards stay dirty
// and self-heal on the next flush; the error is repair.ErrCanceled and the
// BatchResult describes the partial work.
func (e *Engine) Append(rows [][]string, reason string, cancel <-chan struct{}) (*BatchResult, error) {
	if reason == "" {
		reason = "manual"
	}
	return e.append(rows, reason, cancel, true)
}

func (e *Engine) append(rows [][]string, reason string, cancel <-chan struct{}, countAppends bool) (*BatchResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	br := &BatchResult{Reason: reason, Rows: make([]RowResult, len(rows))}

	// Admit rows: validate + store under a brief write lock. Relation.Append
	// checks arity and numeric cells; rejected rows are skipped.
	batchStart := e.input.Len()
	admitted := make([]int, 0, len(rows))
	e.stateMu.Lock()
	for i, row := range rows {
		tp := dataset.Tuple(row).Clone()
		if err := e.input.Append(tp); err != nil {
			br.Rows[i].Err = err
			continue
		}
		if err := e.out.Append(tp.Clone()); err != nil {
			// Unreachable: out mirrors input's schema and tp just passed.
			br.Rows[i].Err = err
			continue
		}
		admitted = append(admitted, i)
	}
	e.stateMu.Unlock()
	br.Accepted = len(admitted)

	// Shard selection: route each admitted row into its shard. Touches only
	// engine-private structures (guarded by mu); input rows are immutable
	// once admitted, so no state lock is needed to read them.
	sel := obs.Begin(e.trace, obs.PhaseShardSelect)
	// The register loop is dominated by candidate scans (probe-index
	// searches plus bounded distance verification); the distance child span
	// makes that share visible under the shardselect phase.
	ds := sel.Child(obs.PhaseDistance)
	for _, c := range e.comps {
		for k := range admitted {
			row := batchStart + k
			br.Merges += c.register(e.cfg, row, e.input.Tuples[row])
		}
	}
	ds.End()
	sel.Add("rows", int64(len(admitted)))
	sel.End()

	// Collect dirty shards, deterministically ordered.
	var jobs []*shardJob
	for _, c := range e.comps {
		var roots []int
		for root, sh := range c.shards {
			if sh.dirty && len(sh.rows) > 0 {
				roots = append(roots, root)
			}
		}
		sort.Ints(roots)
		for _, root := range roots {
			sh := c.shards[root]
			srows := append([]int(nil), sh.rows...)
			sort.Ints(srows)
			jobs = append(jobs, &shardJob{comp: c, sh: sh, rows: srows, skip: sh.edges == 0})
		}
	}
	br.ShardsTouched = len(jobs)
	for _, j := range jobs {
		if len(j.rows) > br.MaxShardRows {
			br.MaxShardRows = len(j.rows)
		}
	}

	// Re-repair dirty shards in parallel. Shards are disjoint row sets per
	// component and components have disjoint attributes, so the jobs commute
	// and the outcome is identical at any worker count.
	var torun []*shardJob
	for _, j := range jobs {
		if !j.skip {
			torun = append(torun, j)
		}
	}
	within := 1
	if len(torun) == 1 {
		within = e.workers
	}
	workers := e.workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(torun) {
		workers = len(torun)
	}
	if len(torun) > 0 {
		var wg sync.WaitGroup
		next := make(chan *shardJob)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := range next {
					if canceled(cancel) {
						j.err = repair.ErrCanceled
						continue
					}
					sp := obs.Begin(e.trace, obs.PhaseIncRepair)
					sp.SetFD(j.comp.name)
					sp.SetWorker(w)
					j.res, j.err = e.repairShard(j, within, cancel)
					sp.Add("rows", int64(len(j.rows)))
					sp.End()
				}
			}(w)
		}
		for _, j := range torun {
			next <- j
		}
		close(next)
		wg.Wait()
	}

	// Write back under a brief state lock: repaired shards' values for
	// their component's attributes, stats, and per-row outcomes. Failed
	// shards stay dirty and retry on the next flush.
	var firstErr error
	rewrittenOld := make(map[int]bool)
	var pending *ledger.Buffer
	if e.led != nil {
		pending = &ledger.Buffer{}
	}
	e.stateMu.Lock()
	for ji, j := range jobs {
		if j.err != nil {
			if firstErr == nil {
				firstErr = j.err
			}
			continue
		}
		if !j.skip {
			// just maps (shard-local row, col) to the inner run's event so
			// write-back events inherit the justification (FD, edge,
			// join-target, algorithm). Cells the inner run did not touch —
			// possible when a re-repair reverts an earlier batch's change
			// back to the input value — get a bare event.
			var just map[[2]int]ledger.RepairEvent
			if j.buf != nil {
				inner := j.buf.Drain()
				just = make(map[[2]int]ledger.RepairEvent, len(inner))
				for _, ie := range inner {
					just[[2]int{ie.Row, ie.Col}] = ie
				}
			}
			for k, row := range j.rows {
				rep := j.res.Repaired.Tuples[k]
				for _, col := range j.comp.attrs {
					if e.out.Tuples[row][col] != rep[col] {
						if pending != nil {
							ev := just[[2]int{k, col}]
							ev.Row, ev.Col = row, col
							ev.Attr = e.schema.Attr(col).Name
							// Old is the overwritten repaired-view value
							// (not the inner run's input value): reverse
							// replay must restore exactly what stood here.
							ev.Old = e.out.Tuples[row][col]
							ev.New = rep[col]
							ev.CostDelta = e.cfg.RepairDist(col, ev.Old, ev.New)
							if ev.Algorithm == "" {
								ev.Algorithm = e.algo
							}
							// Worker records the deterministic job ordinal,
							// not the goroutine that ran the shard.
							ev.Worker = ji
							pending.Add(ev)
						}
						e.out.Tuples[row][col] = rep[col]
						br.ChangedCells++
						if row < batchStart {
							rewrittenOld[row] = true
						}
					}
				}
			}
			br.ShardsRepaired++
		}
		j.sh.dirty = false
	}
	br.Rewritten = len(rewrittenOld)
	for k, i := range admitted {
		row := batchStart + k
		br.Rows[i].Values = e.out.Tuples[row].Clone()
		br.Rows[i].Repaired = !tupleEqual(e.out.Tuples[row], e.input.Tuples[row])
		if br.Rows[i].Repaired {
			br.Repaired++
		}
	}
	br.TotalRows = e.input.Len()
	shards := 0
	for _, c := range e.comps {
		shards += len(c.shards)
	}
	e.stats.Rows = br.TotalRows
	e.stats.Batches++
	if countAppends {
		e.stats.Accepted += br.Accepted
		e.stats.Repaired += br.Repaired
	}
	e.stats.Rewritten += br.Rewritten
	e.stats.Shards = shards
	e.stats.Merges += br.Merges
	e.stateMu.Unlock()

	if pending != nil {
		// One ledger batch per flush — the same single-flush-point pattern
		// as ObserveIncrBatch below. Commit ignores empty flushes.
		e.led.Commit(pending.Drain())
	}

	br.Elapsed = time.Since(start)
	obs.ObserveIncrBatch(obs.IncrBatch{
		Reason:         reason,
		Rows:           br.Accepted,
		Repaired:       br.Repaired,
		ShardsTouched:  br.ShardsTouched,
		ShardsRepaired: br.ShardsRepaired,
		Merges:         br.Merges,
		Shards:         shards,
		MaxShardRows:   br.MaxShardRows,
		Dur:            br.Elapsed,
	})
	return br, firstErr
}

// repairShard runs the configured algorithm over one shard's sub-relation
// of original input values. Input tuples are immutable once admitted, so
// the sub-relation aliases them without locking.
func (e *Engine) repairShard(j *shardJob, parallel int, cancel <-chan struct{}) (*repair.Result, error) {
	sub := &dataset.Relation{Schema: e.schema, Tuples: make([]dataset.Tuple, len(j.rows))}
	for k, row := range j.rows {
		sub.Tuples[k] = e.input.Tuples[row]
	}
	opts := e.ropts
	opts.Cancel = cancel
	opts.Trace = e.trace
	opts.Parallel = parallel
	opts.Ledger = nil
	if e.led != nil {
		// Collect the inner run's events privately; the write-back loop
		// remaps rows and commits once per flush. The caller's sink never
		// sees shard-local row numbers.
		j.buf = &ledger.Buffer{}
		opts.Ledger = j.buf
	}
	set := j.comp.sub
	switch e.algo {
	case "ExactS":
		return repair.ExactS(sub, set.FDs[0], e.cfg, set.Tau[0], opts)
	case "GreedyS":
		return repair.GreedyS(sub, set.FDs[0], e.cfg, set.Tau[0], opts)
	case "ExactM":
		return repair.ExactM(sub, set, e.cfg, opts)
	case "ApproM":
		return repair.ApproM(sub, set, e.cfg, opts)
	default:
		return repair.GreedyM(sub, set, e.cfg, opts)
	}
}

func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func tupleEqual(a, b dataset.Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Stats returns a snapshot of the engine's counters without blocking on an
// in-flight flush.
func (e *Engine) Stats() Stats {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.stats
}

// Snapshot returns a deep copy of the repaired relation.
func (e *Engine) Snapshot() *dataset.Relation {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.out.Clone()
}

// InputSnapshot returns a deep copy of the admitted rows with their
// original (pre-repair) values.
func (e *Engine) InputSnapshot() *dataset.Relation {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.input.Clone()
}

// WriteCSV serializes the repaired relation. The read lock is held for the
// duration of the write; pass an in-memory writer.
func (e *Engine) WriteCSV(w *strings.Builder) error {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return dataset.WriteCSV(w, e.out)
}
