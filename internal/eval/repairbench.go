package eval

import (
	"errors"
	"fmt"

	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

// RepairBench times the repair-phase hot paths on generated HOSP/Tax
// instances: Algorithm-2 greedy growth at N/4, N/2 and N on both the naive
// full-rescan reference and the indexed-heap path, exact branch-and-bound
// over MIS combinations at several worker counts, Algorithm-4 joint growth
// on the heap path, and multi-FD plan evaluation (target-tree build +
// nearest searches) at several worker counts. ns/op is per growth, per
// ExactM run and per plan evaluation.
func RepairBench(c BenchConfig) (*BenchDoc, error) {
	r := newBenchRun("repair", c)
	procs := r.doc.GOMAXPROCS

	// Greedy growth N-scaling. Single-FD instances isolate the growth loop;
	// the graph is built once per size and reused, so each iteration times
	// growth alone.
	for _, size := range []int{c.N / 4, c.N / 2, c.N} {
		if r.canceled() {
			return nil, repair.ErrCanceled
		}
		if size < 50 {
			continue
		}
		// ErrorRate 0.1 (vs the pipeline default 0.04) doubles the violation
		// graph: growth over dense graphs is the regime the heap exists for,
		// and the naive rescan's cost there is what Fig. 9/10-scale runs pay.
		inst, err := Prepare(Setup{Workload: c.Workload, N: size, FDs: 1, ErrorRate: 0.1, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		f, tau := inst.Set.FDs[0], inst.Set.Tau[0]
		g := vgraph.Build(inst.Dirty, f, inst.Cfg, tau,
			vgraph.Options{Workers: procs, Cancel: c.Cancel})
		for _, mode := range []string{"greedy-naive", "greedy-heap"} {
			naive := mode == "greedy-naive"
			// One untimed warm-up run primes the grower/scratch pools and the
			// reused result buffer, so the heap entry's allocs/op reports the
			// steady state the pools exist for (the naive reference allocates
			// fresh state per run by design).
			set := repair.GrowGreedyInto(g, naive, nil)
			e, err := r.time(fmt.Sprintf("%s/n%d", mode, size), 0, 1, func(int) error {
				set = repair.GrowGreedyInto(g, naive, set)
				return nil
			})
			if err != nil {
				return nil, err
			}
			e.Counters = map[string]float64{
				"vertices": float64(len(g.Vertices)),
				"edges":    float64(g.NumEdges()),
				"setSize":  float64(len(set)),
			}
		}
		r.ratio(fmt.Sprintf("greedy-heap-n%d", size),
			fmt.Sprintf("greedy-naive/n%d", size), fmt.Sprintf("greedy-heap/n%d", size))
	}

	// Exact branch-and-bound combination throughput. The instance is fixed
	// small (the combination budget, not N, bounds exact repair). MIS
	// family sizes vary wildly across workloads, so the first rung of a
	// shrinking ladder whose combination count fits the budget is used —
	// each rung is probed with one untimed run. On HOSP the first rung
	// enumerates ~18k combinations (~1s per run); tiny scales start lower
	// (shape over stable timings, like the experiment runner's MinTime
	// cut).
	ladder := []Setup{
		{Workload: c.Workload, N: 120, FDs: 4, ErrorRate: 0.03, Seed: c.Seed},
		{Workload: c.Workload, N: 120, FDs: 3, ErrorRate: 0.05, Seed: c.Seed},
		{Workload: c.Workload, N: 120, FDs: 3, ErrorRate: 0.03, Seed: c.Seed},
		{Workload: c.Workload, N: 120, FDs: 2, ErrorRate: 0.05, Seed: c.Seed},
		{Workload: c.Workload, N: 100, FDs: 2, ErrorRate: 0.03, Seed: c.Seed},
	}
	if c.N < 1000 {
		ladder = ladder[1:]
	}
	var exactInst *Instance
	for _, s := range ladder {
		if r.canceled() {
			return nil, repair.ErrCanceled
		}
		inst, err := Prepare(s)
		if err != nil {
			return nil, err
		}
		_, err = repair.ExactM(inst.Dirty, inst.Set, inst.Cfg, repair.Options{Cancel: c.Cancel})
		if errors.Is(err, repair.ErrTooManyMIS) {
			continue
		}
		if err != nil {
			return nil, err
		}
		exactInst = inst
		break
	}
	// exactInst == nil means every rung overflowed: leave the exact entries
	// out rather than fail the greedy/plan measurements.
	if exactInst != nil {
		for _, workers := range []int{1, 2, procs} {
			if r.canceled() {
				return nil, repair.ErrCanceled
			}
			var res *repair.Result
			e, err := r.time(fmt.Sprintf("exact/w%d", workers), 0, 1, func(int) error {
				var err error
				res, err = repair.ExactM(exactInst.Dirty, exactInst.Set, exactInst.Cfg,
					repair.Options{Parallel: workers, Cancel: c.Cancel})
				return err
			})
			if err != nil {
				return nil, err
			}
			if e == nil {
				continue
			}
			combos := res.Stats["combinations"]
			e.Counters = map[string]float64{
				"n":            float64(exactInst.Dirty.Len()),
				"combos":       float64(combos),
				"combosPerSec": e.perSec(combos),
			}
		}
		if procs > 1 {
			r.ratio("exact-workers", "exact/w1", fmt.Sprintf("exact/w%d", procs))
		}
	}

	// Joint growth and plan evaluation run on the largest multi-FD
	// component of the full FD set at N.
	full, err := Prepare(Setup{Workload: c.Workload, N: c.N, ErrorRate: 0.04, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	// Joint growth (GreedyM's §4.4 selection, heap path): the graphs are
	// built once, so each iteration times one growth.
	graphs, err := repair.ComponentGraphs(full.Dirty, full.Set, full.Cfg)
	if err != nil {
		return nil, err
	}
	var sets [][]int
	e, err := r.time(fmt.Sprintf("joint/%dfds", len(graphs)), 0, 1, func(int) error {
		sets = repair.GrowJoint(full.Dirty, graphs, false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e != nil {
		var vertices, edges, chosen int
		for i, g := range graphs {
			vertices += len(g.Vertices)
			edges += g.NumEdges()
			chosen += len(sets[i])
		}
		e.Counters = map[string]float64{
			"vertices": float64(vertices),
			"edges":    float64(edges),
			"setSize":  float64(chosen),
		}
	}

	// Plan-evaluation throughput: one target-tree build plus a
	// nearest-target search per repairing tuple group.
	pb, err := repair.NewPlanBench(full.Dirty, full.Set, full.Cfg, false)
	if err != nil {
		return nil, err
	}
	for _, workers := range []int{1, procs} {
		e, err := r.time(fmt.Sprintf("plan/%dfds/w%d", pb.FDs, workers), 0, 1, func(int) error {
			_, _, err := pb.Run(workers)
			return err
		})
		if err != nil {
			return nil, err
		}
		if e == nil {
			continue
		}
		e.Counters = map[string]float64{
			"groups":       float64(pb.Groups),
			"groupsPerSec": e.perSec(pb.Groups),
			"treeExplored": float64(pb.Explored),
			"treeNodes":    float64(pb.Nodes),
		}
	}
	if procs > 1 {
		r.ratio("plan-workers", fmt.Sprintf("plan/%dfds/w1", pb.FDs), fmt.Sprintf("plan/%dfds/w%d", pb.FDs, procs))
	}
	return r.doc, nil
}
