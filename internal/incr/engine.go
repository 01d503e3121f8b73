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
// Warm state: one appendable vgraph.State holds the violation graphs of
// every FD over all admitted rows — column encodings, pattern vertices,
// probe-column joins and edges — and each append extends it by the new
// rows alone. The new vertices and edges route the rows into shards, and a
// shard's run reads views of its component's graphs restricted to its
// rows, which equal a fresh build over the shard, so no flush rebuilds a
// graph. The shared distance cache in the DistConfig memoizes across
// batches. Repair runs the chosen algorithm through repair.RunOnGraphs on
// the touched shard's sub-relation; shards with no violation edges skip
// the run entirely.
package incr

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

// Options configures an Engine.
type Options struct {
	// Algorithm is the per-shard repair algorithm, resolved by
	// repair.ParseAlgorithm: empty means GreedyM. The single-FD algorithms
	// require a single-FD set.
	Algorithm repair.Algorithm
	// Workers bounds concurrent shard repairs per flush; values below 2
	// repair shards sequentially. Shard repairs are independent, so the
	// output is identical at any worker count.
	Workers int
	// Repair carries base options for the per-shard runs. Cancel, Trace,
	// Parallel and Ledger are managed per flush and ignored here. Its Graph
	// options configure the engine's graph state (DisableIndex, Workers,
	// Trace); NewEngine rejects DisableGrouping and Cancel, which a state
	// kept across flushes cannot honour.
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

// shard is one connected component of the link graph: the rows it owns and
// whether its repair is stale.
type shard struct {
	rows  []int
	edges int // violation edges inside the shard; 0 means consistent as-is
	dirty bool
}

// component is one FD-attribute component (Theorem 5): its FD subset, the
// indices of its FDs in the engine's set and graph state, its union-find
// over pattern elements, and its live shards keyed by root.
type component struct {
	name  string
	sub   *fd.Set
	attrs []int
	fds   []int
	// probe[i] is FD i's probe column (vgraph.ChooseProbe), -1 when it has
	// none; elem[i][v] is FD i's vertex v's union-find element.
	probe   []int
	elem    [][]int
	parent  []int
	shards  map[int]*shard
	scratch []int
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
	algo    repair.Algorithm
	workers int
	ropts   repair.Options
	trace   *obs.Trace
	led     ledger.Sink

	// input holds admitted rows with their original values (what detection
	// and repair consume); out holds the repaired view, row-aligned.
	// diverged marks the rows where out differs from input.
	input    *dataset.Relation
	out      *dataset.Relation
	diverged bitset.Set
	// state holds every FD's violation graph over input's rows.
	state *vgraph.State

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
	algo, err := repair.ParseAlgorithm(string(opts.Algorithm))
	if err == nil {
		err = algo.Check(set)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("incr: %w", err)
	}
	gopts := opts.Repair.Graph
	if gopts.DisableGrouping || gopts.Cancel != nil {
		return nil, nil, fmt.Errorf("incr: Repair.Graph.DisableGrouping and Repair.Graph.Cancel are not supported: the graph state outlives every flush; cancel a flush through Append")
	}
	if gopts.Trace == nil {
		gopts.Trace = opts.Trace
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
		state:   vgraph.NewState(base.Schema, set.FDs, cfg, set.Tau, gopts),
	}
	for ci, idx := range set.Components() {
		sub := set.Subset(idx)
		c := &component{
			name:   fmt.Sprintf("comp%d", ci),
			sub:    sub,
			attrs:  fd.UnionAttrs(sub.FDs),
			fds:    idx,
			elem:   make([][]int, len(idx)),
			shards: make(map[int]*shard),
		}
		for i, phi := range sub.FDs {
			probe, _ := vgraph.ChooseProbe(base.Schema, phi, cfg, sub.Tau[i])
			c.probe = append(c.probe, probe)
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

// register routes one admitted row, already in the graph state, into the
// component: each of the row's patterns first seen at this row gets an
// element linked to every older pattern it FT-violates (its state edges to
// lower vertices), the row's patterns are unioned across FDs, and the row
// joins the resulting shard, dirtying it. Returns the merge-on-edge count.
// The partition does not depend on the link order, but a shard's root
// does, and roots order the flush's jobs and ledger events; links follow
// the order in which the probe column's values first occurred, vertex
// order within a value, so roots stay what the engine's former per-FD
// probe-index scans made them.
func (c *component) register(state *vgraph.State, row int) int {
	merges := 0
	home := -1
	for i, fi := range c.fds {
		g := state.Graphs()[fi]
		v := g.RowVertex(row)
		if v == len(c.elem[i]) {
			el := c.newElem()
			c.elem[i] = append(c.elem[i], el)
			older := c.scratch[:0]
			for _, e := range g.Neighbors(v) {
				if e.To < v {
					older = append(older, e.To)
				}
			}
			if p := c.probe[i]; p >= 0 {
				slices.SortStableFunc(older, func(a, b int) int {
					return cmp.Compare(state.ValueID(p, g.Vertices[a].Rows[0]), state.ValueID(p, g.Vertices[b].Rows[0]))
				})
			}
			for _, u := range older {
				r, m := c.union(el, c.elem[i][u])
				c.shards[r].edges++
				if m {
					merges++
				}
			}
			c.scratch = older
		}
		el := c.elem[i][v]
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
	if w := bitset.WordsFor(e.input.Len()); w > len(e.diverged) {
		e.diverged = append(e.diverged, make(bitset.Set, w-len(e.diverged))...)
	}
	e.stateMu.Unlock()
	br.Accepted = len(admitted)

	// Shard selection: extend the graph state by the admitted rows and
	// route each into its shard from the state's new vertices and edges.
	// Touches only engine-private structures (guarded by mu); input rows
	// are immutable once admitted, so no state lock is needed to read them.
	sel := obs.Begin(e.trace, obs.PhaseShardSelect)
	e.state.Append(e.input.Tuples[batchStart:])
	for _, c := range e.comps {
		for row := batchStart; row < e.input.Len(); row++ {
			br.Merges += c.register(e.state, row)
		}
	}
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
			// A cell can differ from the shard's new repair only where the
			// run changed it (the run repairs input values, and a row
			// outside diverged still holds them) or in a row an earlier
			// flush left diverged, which this run may revert. Both are
			// visited in row-major order, the order of the events.
			changed := j.res.Changed
			var scratch []int
			for k, row := range j.rows {
				scratch = scratch[:0]
				for ; len(changed) > 0 && changed[0].Row == k; changed = changed[1:] {
					scratch = append(scratch, changed[0].Col)
				}
				cols := j.comp.attrs
				if !e.diverged.Has(row) {
					if len(scratch) == 0 {
						continue
					}
					cols = scratch
				}
				rep := j.res.Repaired.Tuples[k]
				for _, col := range cols {
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
								ev.Algorithm = string(e.algo)
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
				if tupleEqual(e.out.Tuples[row], e.input.Tuples[row]) {
					e.diverged.Clear(row)
				} else {
					e.diverged.Set(row)
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
		br.Rows[i].Repaired = e.diverged.Has(row)
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
// of original input values, on views of the component's graphs restricted
// to the shard's rows. Input tuples are immutable once admitted, so the
// sub-relation aliases them without locking, and the state does not grow
// while shards run.
func (e *Engine) repairShard(j *shardJob, parallel int, cancel <-chan struct{}) (*repair.Result, error) {
	sub := &dataset.Relation{Schema: e.schema, Tuples: make([]dataset.Tuple, len(j.rows))}
	for k, row := range j.rows {
		sub.Tuples[k] = e.input.Tuples[row]
	}
	views := make([]*vgraph.Graph, len(j.comp.fds))
	for i, fi := range j.comp.fds {
		views[i] = e.state.Graphs()[fi].View(j.rows)
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
	return repair.RunOnGraphs(sub, j.comp.sub, e.cfg, e.algo, views, opts)
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
