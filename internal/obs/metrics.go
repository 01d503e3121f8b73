package obs

import (
	"maps"
	"time"
)

// std is the process-wide default registry. Pipeline instrumentation and
// the repaird /metrics endpoint share it, so one scrape sees every repair
// the process ran regardless of which subsystem drove it.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Pipeline bundles the pre-registered pipeline metrics. Handles are fetched
// once at init, so instrumentation sites pay one atomic add per flush and
// never touch the registry lock.
//
// Naming scheme: ftrepair_<subsystem>_<thing>_total for counters,
// ftrepair_<what>_seconds for duration histograms. Units always in the
// name; labels only where cardinality is fixed (phase, algorithm).
var Pipeline = struct {
	// GraphBuilds / GraphVertices / GraphEdges flush once per vgraph.Build:
	// builds run, pattern vertices grouped, violation edges verified.
	GraphBuilds   *Counter
	GraphVertices *Counter
	GraphEdges    *Counter
	// DistCacheHits / DistCacheMisses are per-run distance-cache deltas
	// (the "distCacheHits"/"distCacheMisses" Stats entries).
	DistCacheHits   *Counter
	DistCacheMisses *Counter
	// DistPlaneHits / DistPlaneMisses are the per-run distance-plane deltas
	// (the "distPlaneHits"/"distPlaneMisses" Stats entries): plane lookups
	// answered without filling a cell versus lookups that filled an empty
	// cell. The plane counts are also folded into the distcache totals
	// above, whose misses add the uncached computations, so these split the
	// cache traffic, they do not add to it.
	DistPlaneHits   *Counter
	DistPlaneMisses *Counter
	// MISNodes / MISPruned count expansion-tree nodes explored and subtrees
	// pruned by the exact single-FD search.
	MISNodes  *Counter
	MISPruned *Counter
	// BnBCombos counts branch-and-bound combinations evaluated by ExactM;
	// BnBIncumbents counts incumbent-watermark updates during the search.
	BnBCombos     *Counter
	BnBIncumbents *Counter
	// TreeVisited counts target-tree nodes visited across nearest-target
	// searches (targettree.Nearest / NearestScan).
	TreeVisited *Counter
	// GreedySetSize accumulates grown independent-set sizes; JoinFallbacks
	// counts empty joined-set fallbacks to sequential per-FD repair.
	GreedySetSize *Counter
	JoinFallbacks *Counter
}{
	GraphBuilds: std.Counter("ftrepair_graph_builds_total",
		"Violation-graph constructions (vgraph.Build calls)."),
	GraphVertices: std.Counter("ftrepair_graph_vertices_total",
		"Pattern vertices grouped across violation-graph builds."),
	GraphEdges: std.Counter("ftrepair_graph_edges_built_total",
		"FT-violation edges verified across violation-graph builds."),
	DistCacheHits: std.Counter("ftrepair_distcache_hits_total",
		"Distance-cache hits reported by finished repair runs."),
	DistCacheMisses: std.Counter("ftrepair_distcache_misses_total",
		"Distance-cache misses reported by finished repair runs."),
	DistPlaneHits: std.Counter("ftrepair_distplane_hits_total",
		"Distance-plane hits (one-atomic-load answers) reported by finished repair runs."),
	DistPlaneMisses: std.Counter("ftrepair_distplane_misses_total",
		"Distance-plane lookups that filled an empty cell reported by finished repair runs."),
	MISNodes: std.Counter("ftrepair_mis_nodes_explored_total",
		"Expansion-tree nodes explored by the exact MIS search."),
	MISPruned: std.Counter("ftrepair_mis_subtrees_pruned_total",
		"Expansion subtrees cut by bound pruning in the exact MIS search."),
	BnBCombos: std.Counter("ftrepair_bnb_combinations_total",
		"Independent-set combinations evaluated by ExactM branch-and-bound."),
	BnBIncumbents: std.Counter("ftrepair_bnb_incumbent_updates_total",
		"Incumbent-watermark improvements during ExactM branch-and-bound."),
	TreeVisited: std.Counter("ftrepair_targettree_nodes_visited_total",
		"Target-tree nodes visited across nearest-target searches."),
	GreedySetSize: std.Counter("ftrepair_greedy_set_vertices_total",
		"Vertices admitted into greedily grown independent sets."),
	JoinFallbacks: std.Counter("ftrepair_join_fallbacks_total",
		"Empty joined-set fallbacks to sequential per-FD greedy repair."),
}

// Incr bundles the incremental-engine metrics. The batcher/engine flush one
// IncrBatch per processed append batch, so every counter here moves once per
// flush, never per tuple. The ftrepair_incr_ prefix marks the
// streaming-ingest subsystem; the smoke tests grep for these names.
var Incr = struct {
	// Rows / RowsRepaired count appended rows admitted and how many of them
	// their flush modified.
	Rows         *Counter
	RowsRepaired *Counter
	// ShardsTouched counts shards dirtied by a batch; ShardsRepaired counts
	// the subset actually re-run through a repair algorithm (shards with no
	// violation edges skip the run); ShardMerges counts merge-on-edge events
	// where a batch linked two previously independent shards.
	ShardsTouched  *Counter
	ShardsRepaired *Counter
	ShardMerges    *Counter
	// Shards / MaxTouchedRows are point-in-time gauges refreshed per flush:
	// the live shard population and the row count of the largest shard the
	// last batch touched.
	Shards         *Gauge
	MaxTouchedRows *Gauge
	// BatchSeconds is the per-flush wall-clock histogram — the latency the
	// locality claim is about (bounded by the touched components, not N).
	BatchSeconds *Histogram
}{
	Rows: std.Counter("ftrepair_incr_rows_total",
		"Rows admitted by incremental-engine batches."),
	RowsRepaired: std.Counter("ftrepair_incr_rows_repaired_total",
		"Admitted rows modified by their flush."),
	ShardsTouched: std.Counter("ftrepair_incr_shards_touched_total",
		"Shards dirtied by incremental batches."),
	ShardsRepaired: std.Counter("ftrepair_incr_shard_repairs_total",
		"Touched shards re-run through a repair algorithm."),
	ShardMerges: std.Counter("ftrepair_incr_shard_merges_total",
		"Merge-on-edge events (a batch linked two shards)."),
	Shards: std.Gauge("ftrepair_incr_shards",
		"Live shards in the incremental engine."),
	MaxTouchedRows: std.Gauge("ftrepair_incr_max_touched_shard_rows",
		"Rows in the largest shard the last batch touched."),
	BatchSeconds: std.Histogram("ftrepair_incr_batch_duration_seconds",
		"Wall-clock duration of incremental-engine flushes.",
		DurationBuckets()),
}

// IncrBatch is one processed append batch, as reported to the registry.
type IncrBatch struct {
	Reason         string // why the batch flushed: size, interval, close, manual
	Rows           int
	Repaired       int
	ShardsTouched  int
	ShardsRepaired int
	Merges         int
	Shards         int // live shard population after the flush
	MaxShardRows   int // largest touched shard, in rows
	Dur            time.Duration
}

// ObserveIncrBatch flushes one batch's numbers into the default registry.
// Called once per flush, so the labeled-counter lookup for the reason is
// off any hot path.
func ObserveIncrBatch(b IncrBatch) {
	std.Counter("ftrepair_incr_batches_total",
		"Incremental-engine batches flushed, by trigger.",
		Label{Key: "reason", Value: b.Reason}).Inc()
	Incr.Rows.AddInt(b.Rows)
	Incr.RowsRepaired.AddInt(b.Repaired)
	Incr.ShardsTouched.AddInt(b.ShardsTouched)
	Incr.ShardsRepaired.AddInt(b.ShardsRepaired)
	Incr.ShardMerges.AddInt(b.Merges)
	Incr.Shards.Set(float64(b.Shards))
	Incr.MaxTouchedRows.Set(float64(b.MaxShardRows))
	Incr.BatchSeconds.Observe(b.Dur.Seconds())
}

// phaseDurations maps each pipeline phase to its pre-created duration
// histogram, so Span.End observes without a registry lookup.
var phaseDurations = func() map[Phase]*Histogram {
	m := make(map[Phase]*Histogram, len(Phases()))
	for _, p := range Phases() {
		m[p] = std.Histogram("ftrepair_phase_duration_seconds",
			"Wall-clock duration of pipeline phases.",
			DurationBuckets(), Label{Key: "phase", Value: string(p)})
	}
	return m
}()

// ObservePhase records one phase duration in the default registry.
func ObservePhase(p Phase, d time.Duration) {
	if h := phaseDurations[p]; h != nil {
		h.Observe(d.Seconds())
	}
}

// ObserveRepair records one finished repair run: a per-algorithm run
// counter and duration histogram. Called once per Result, far from hot
// loops, so the registry lookup for the algorithm label is fine.
func ObserveRepair(algorithm string, d time.Duration) {
	std.Counter("ftrepair_repairs_total",
		"Finished repair runs by algorithm.",
		Label{Key: "algorithm", Value: algorithm}).Inc()
	std.Histogram("ftrepair_repair_duration_seconds",
		"End-to-end repair wall-clock by algorithm.",
		DurationBuckets(), Label{Key: "algorithm", Value: algorithm}).Observe(d.Seconds())
}

// runStatCounters maps repair Stats keys to their registry counters. The
// "vertices"/"edges" keys are deliberately absent: vgraph.Build flushes
// those itself (covering builds outside finished Results too), and a second
// flush here would double count.
var runStatCounters = map[string]*Counter{
	"nodes":           Pipeline.MISNodes,
	"pruned":          Pipeline.MISPruned,
	"combinations":    Pipeline.BnBCombos,
	"bnbIncumbents":   Pipeline.BnBIncumbents,
	"treeVisited":     Pipeline.TreeVisited,
	"setSize":         Pipeline.GreedySetSize,
	"joinFallback":    Pipeline.JoinFallbacks,
	"distCacheHits":   Pipeline.DistCacheHits,
	"distCacheMisses": Pipeline.DistCacheMisses,
	"distPlaneHits":   Pipeline.DistPlaneHits,
	"distPlaneMisses": Pipeline.DistPlaneMisses,
}

// Ledger bundles the repair-ledger metrics. internal/ledger flushes the
// first three once per Commit (never per event); VerifyFailures moves when
// a replay verification or proof check fails — in a healthy deployment it
// stays at zero, which is exactly what makes it worth alerting on.
var Ledger = struct {
	Events         *Counter
	Batches        *Counter
	Bytes          *Counter
	VerifyFailures *Counter
}{
	Events: std.Counter("ftrepair_ledger_events_total",
		"Repair events committed to ledgers."),
	Batches: std.Counter("ftrepair_ledger_batches_total",
		"Ledger batches committed (one Merkle tree each)."),
	Bytes: std.Counter("ftrepair_ledger_bytes_total",
		"Canonical encoded bytes of committed ledger events."),
	VerifyFailures: std.Counter("ftrepair_ledger_verify_failures_total",
		"Ledger replay or proof verifications that failed."),
}

// RunStatCounters returns a copy of the map from the Stats keys that
// FlushRunStats folds into the registry to their counters.
func RunStatCounters() map[string]*Counter { return maps.Clone(runStatCounters) }

// FlushRunStats folds a finished run's Stats map into the registry. This is
// what makes the Stats maps a thin view over the registry: the algorithms
// keep accumulating into their deterministic per-run maps, and the totals
// land here exactly once, when the run's Result is finalized.
func FlushRunStats(stats map[string]int) {
	for k, v := range stats {
		if c := runStatCounters[k]; c != nil {
			c.AddInt(v)
		}
	}
}
