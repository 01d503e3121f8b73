// Streaming: repair a batch once, then keep the relation FT-consistent as
// new (dirty) tuples arrive in small batches, through the sharded streaming
// engine. Each flush reruns GreedyM on the shards its rows touch and may
// rewrite rows that earlier flushes accepted. Under all nine HOSP FDs the
// dirty appended rows merge shards until one holds nearly every row, so
// late flushes cost about a whole-relation repair (DESIGN.md §14).
//
//	go run ./examples/streaming [-base 1500] [-stream 500]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ftrepair"
	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/gen"
)

// batchRows is the append size, the same as perfbench's repaird-stream
// workload.
const batchRows = 20

func main() {
	base := flag.Int("base", 1500, "tuples repaired in the initial batch")
	stream := flag.Int("stream", 500, "tuples streamed afterwards")
	seed := flag.Int64("seed", 6, "RNG seed")
	flag.Parse()

	total := *base + *stream
	clean := gen.HOSP{Seed: *seed}.Generate(total)
	fds := gen.HOSPFDs(clean.Schema)
	dirty, _ := gen.Inject(clean, fds, 0.04, *seed+1)

	set, err := ftrepair.NewSet(fds, eval.BenchTau)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := ftrepair.NewDistConfig(dirty, eval.BenchWL, eval.BenchWR)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: batch-repair the standing data.
	prefix := &dataset.Relation{Schema: dirty.Schema, Tuples: dirty.Tuples[:*base]}
	start := time.Now()
	res, err := ftrepair.Repair(prefix, set, cfg, ftrepair.GreedyM, ftrepair.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: repaired %d cells across %d tuples in %v\n", len(res.Changed), *base, time.Since(start).Round(time.Millisecond))

	// Phase 2: open the engine over the repaired data and append the
	// remainder in fixed-size batches.
	eng, _, err := ftrepair.NewIncremental(res.Repaired, set, cfg, ftrepair.IncrementalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	rest := dirty.Tuples[*base:]
	for lo := 0; lo < len(rest); lo += batchRows {
		batch := make([][]string, 0, batchRows)
		for _, t := range rest[lo:min(lo+batchRows, len(rest))] {
			batch = append(batch, t)
		}
		if _, err := eng.Append(batch, "", nil); err != nil {
			log.Fatal(err)
		}
	}
	st := eng.Stats()
	elapsed := time.Since(start)
	fmt.Printf("stream: %d tuples in %v (%.2f ms/tuple, %d-row batches), %d needed repair, %d earlier rows rewritten\n",
		st.Accepted, elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/1000/float64(st.Accepted), batchRows, st.Repaired, st.Rewritten)

	out := eng.Snapshot()
	if err := ftrepair.VerifyFTConsistent(out, set, cfg); err != nil {
		log.Fatal(err)
	}
	q, err := eval.Evaluate(clean, dirty, out, eval.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overall quality vs ground truth: P=%.3f R=%.3f\n", q.Precision, q.Recall)
}
