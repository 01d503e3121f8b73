package eval

import (
	"fmt"
	"slices"
	"time"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/incr"
	"ftrepair/internal/repair"
)

// incrBenchFDs limits the FD subset the stream is checked against. The full
// HOSP set contains low-cardinality FDs whose shared patterns chain every
// row into one shard (locality degrades to from-scratch by design); the
// first three FDs have real locality, which is the regime the sharded
// engine exists for.
const incrBenchFDs = 3

// IncrBench replays a timed ingest stream (gen.Stream) against the sharded
// incremental engine and against monolithic per-batch recomputation, at
// N/4, N/2 and N total rows; ns/op is per ingest batch. The arrival batch
// size is fixed across sizes, so comparing per-batch latencies across sizes
// isolates the standing relation's contribution. At N the engine's relation
// must equal its from-scratch oracle, or the run fails.
//
// Entries: "incremental/n<size>" (warm sharded engine, one flush per
// arrival batch), "spot/n<size>" (small localized batches into the warm
// engine — the direct probe of the touched-component bound) and
// "fromscratch/n<size>" (GreedyM over the whole accumulated relation per
// batch). Ratios: "fromscratch-vs-incremental-n<size>", and
// "incremental-n<max>-vs-n<min>" and "spot-n<max>-vs-n<min>" — how batch
// latency grows with the standing relation; near 1 means a batch pays for
// the components it touches, not the relation.
func IncrBench(c BenchConfig) (*BenchDoc, error) {
	r := newBenchRun("incr", c)
	workers := r.doc.GOMAXPROCS
	sizes := []int{c.N / 4, c.N / 2, c.N}
	const batches = 8
	for _, size := range sizes {
		if r.canceled() {
			return nil, repair.ErrCanceled
		}
		if size < 100 {
			continue
		}
		// Fixed arrival size across relation sizes (capped only when the
		// whole instance is tiny), so the cross-size comparison is fair.
		batchRows := max(min(100, size*2/(3*batches)), 1)
		base, stream, fds, err := gen.Stream(gen.StreamConfig{
			Workload: c.Workload, Base: size - batches*batchRows,
			Batches: batches, BatchSize: batchRows,
			FDs: incrBenchFDs, Rate: 0.05, Seed: c.Seed,
		})
		if err != nil {
			return nil, err
		}
		set, err := fd.NewSet(fds, BenchTau)
		if err != nil {
			return nil, err
		}
		// Both modes share one distance model derived from the full stream,
		// so their repairs see identical numeric spans.
		full := base.Clone()
		for _, b := range stream {
			for _, row := range b.Rows {
				if err := full.Append(row); err != nil {
					return nil, err
				}
			}
		}
		cfg, err := fd.NewDistConfig(full, BenchWL, BenchWR)
		if err != nil {
			return nil, err
		}
		eng, _, err := incr.NewEngine(base, set, cfg, incr.Options{Workers: workers})
		if err != nil {
			return nil, err
		}

		// ingest times n batches into the warm engine and records its shard
		// telemetry: live shards after the batches, mean shards touched per
		// batch, and the largest row count any touched shard had — the
		// quantity that bounds per-batch work — and the distance lookups
		// (cache hits plus misses) per batch, which do not depend on timing
		// or scheduling.
		ingest := func(name string, n, rowsPer int, rows func(i int) [][]string) error {
			touched, maxRows := 0, 0
			hits, misses := cfg.Cache.Counters()
			e, err := r.time(name, n, 1, func(i int) error {
				br, err := eng.Append(rows(i), "bench", c.Cancel)
				if err != nil {
					return err
				}
				touched += br.ShardsTouched
				maxRows = max(maxRows, br.MaxShardRows)
				return nil
			})
			if err != nil {
				return err
			}
			e.Counters = batchCounters(e, rowsPer)
			h, m := cfg.Cache.Counters()
			e.Counters["lookupsPerBatch"] = float64(h-hits+m-misses) / float64(n)
			e.Counters["shards"] = float64(eng.Stats().Shards)
			e.Counters["avgShardsTouched"] = float64(touched) / float64(n)
			e.Counters["maxTouchedShardRows"] = float64(maxRows)
			return nil
		}
		incName := fmt.Sprintf("incremental/n%d", size)
		if err := ingest(incName, len(stream), batchRows, func(i int) [][]string { return stream[i].Rows }); err != nil {
			return nil, err
		}
		if size == sizes[len(sizes)-1] {
			oracle, _, err := incr.RepairAll(eng.InputSnapshot(), set, cfg, incr.Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			if !slices.EqualFunc(eng.Snapshot().Tuples, oracle.Tuples, slices.Equal[dataset.Tuple]) {
				return nil, fmt.Errorf("eval: %s: the engine's relation differs from its from-scratch oracle", incName)
			}
		}

		// Spot latency: small batches of rows the relation already holds, so
		// each lands in a handful of existing shards. Its cost must track
		// those shards' sizes, staying near-flat as the relation grows.
		const spotReps, spotRows = 5, 10
		if err := ingest(fmt.Sprintf("spot/n%d", size), spotReps, spotRows, func(i int) [][]string {
			rows := make([][]string, spotRows)
			for j := range rows {
				rows[j] = full.Tuples[(i*spotRows+j*97)%full.Len()]
			}
			return rows
		}); err != nil {
			return nil, err
		}

		// From scratch: each arrival triggers a monolithic repair of the
		// whole accumulated (original, dirty) relation.
		accum := base.Clone()
		fsName := fmt.Sprintf("fromscratch/n%d", size)
		e, err := r.time(fsName, len(stream), 1, func(i int) error {
			for _, row := range stream[i].Rows {
				if err := accum.Append(row); err != nil {
					return err
				}
			}
			_, err := repair.GreedyM(accum, set, cfg, repair.Options{Parallel: workers, Cancel: c.Cancel})
			return err
		})
		if err != nil {
			return nil, err
		}
		e.Counters = batchCounters(e, batchRows)
		r.ratio(fmt.Sprintf("fromscratch-vs-incremental-n%d", size), fsName, incName)
	}
	lo, hi := sizes[0], sizes[len(sizes)-1]
	r.ratio(fmt.Sprintf("incremental-n%d-vs-n%d", hi, lo), fmt.Sprintf("incremental/n%d", hi), fmt.Sprintf("incremental/n%d", lo))
	r.ratio(fmt.Sprintf("spot-n%d-vs-n%d", hi, lo), fmt.Sprintf("spot/n%d", hi), fmt.Sprintf("spot/n%d", lo))
	return r.doc, nil
}

// batchCounters are the figures every ingest entry carries besides ns/op:
// the FD subset, the rows per batch, and the slowest batch.
func batchCounters(e *BenchEntry, batchRows int) map[string]float64 {
	return map[string]float64{
		"fds":        incrBenchFDs,
		"batchRows":  float64(batchRows),
		"maxBatchMs": float64(e.slowest) / float64(time.Millisecond),
	}
}
