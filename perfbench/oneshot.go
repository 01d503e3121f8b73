package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"ftrepair"
	"ftrepair/internal/gen"
	"ftrepair/internal/obs"
)

// The hosp-oneshot setting: Table 3 / Fig. 8 of the paper.
const (
	oneshotRows   = 5000
	oneshotRate   = 0.04
	oneshotTau    = 0.3
	oneshotWL     = 0.7
	oneshotWR     = 0.3
	oneshotRoster = 4
)

// oneshotInstances generates the roster: HOSP generator seeds 1..4 with the
// repo's noise-seed convention, every instance's rows permuted by the run
// seed. The roster is fixed because GreedyM's cost on one N=5000 draw swings
// about tenfold between draws (target-tree join order, see README); a
// seed-drawn instance would make the workload's spread exceed any bound.
func oneshotInstances(seed int64) ([]*instance, error) {
	out := make([]*instance, oneshotRoster)
	for j := range out {
		genSeed := int64(j + 1)
		clean := gen.HOSP{Seed: genSeed}.Generate(oneshotRows)
		inst, err := newInstance(fmt.Sprintf("hosp-%d", genSeed), clean, gen.HOSPFDs(clean.Schema),
			oneshotRate, genSeed+1, seed*oneshotRoster+int64(j)+1)
		if err != nil {
			return nil, err
		}
		out[j] = inst
	}
	return out, nil
}

// oneshotOp is one timed op and what the benchmark learned from it.
type oneshotOp struct {
	inst    *instance
	procs   int
	traced  bool
	ms      float64
	cpuMs   float64
	res     *ftrepair.Result
	input   *ftrepair.Relation
	spans   []obs.SpanSummary
	readMs  float64
	cfgMs   float64
	span    float64 // the Repair call, ms
	allocMB float64
}

// runOneshotOp parses the CSV, builds a fresh distance model (cold cache,
// as every CLI run pays) and repairs with GreedyM. With traced set it also
// collects the program's phase spans and the benchmark's own spans.
func runOneshotOp(inst *instance, traced bool) (*oneshotOp, error) {
	op := &oneshotOp{inst: inst, traced: traced}
	var tr *obs.Trace
	var ms0 runtime.MemStats
	cpu0 := selfCPU()
	t0 := time.Now()
	rel, err := ftrepair.ReadCSV(bytes.NewReader(inst.csv), inst.types)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	fds, err := reparse(rel.Schema, inst.fds)
	if err != nil {
		return nil, err
	}
	set, err := ftrepair.NewSet(fds, oneshotTau)
	if err != nil {
		return nil, err
	}
	cfg, err := ftrepair.NewDistConfig(rel, oneshotWL, oneshotWR)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if traced {
		runtime.ReadMemStats(&ms0)
		tr = obs.NewTrace("hosp-oneshot")
	}
	t3 := time.Now()
	res, err := ftrepair.Repair(rel, set, cfg, ftrepair.GreedyM, ftrepair.Options{Trace: tr})
	t4 := time.Now()
	if err != nil {
		return nil, err
	}
	op.cpuMs = msOf(selfCPU() - cpu0)
	op.ms = msOf(t4.Sub(t0))
	op.res, op.input = res, rel
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		op.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		op.spans = tr.Summaries()
		op.readMs, op.cfgMs, op.span = msOf(t1.Sub(t0)), msOf(t2.Sub(t1)), msOf(t4.Sub(t3))
	}
	return op, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// oneshotChecker verifies outputs outside the timed region: every output
// must be FT-consistent and valid, and every op on one instance must yield
// the same relation whatever GOMAXPROCS or tracing was.
type oneshotChecker struct {
	ref  map[*instance]string
	qual map[*instance]quality
}

func (c *oneshotChecker) check(op *oneshotOp) error {
	d := digest(op.res.Repaired)
	if ref, ok := c.ref[op.inst]; ok {
		if d != ref {
			return fmt.Errorf("%s: output at GOMAXPROCS=%d traced=%v differs from the first op's", op.inst.name, op.procs, op.traced)
		}
		return nil
	}
	if err := verifyRepair(op.input, op.res.Repaired, op.inst.fds, oneshotTau, oneshotWL, oneshotWR); err != nil {
		return fmt.Errorf("%s: %w", op.inst.name, err)
	}
	var q quality
	if err := q.add(op.inst.clean, op.inst.dirty, op.res.Repaired); err != nil {
		return err
	}
	c.ref[op.inst] = d
	c.qual[op.inst] = q
	return nil
}

// runOneshot runs whole roster cycles while the next one fits in the run.
// Untraced, each instance runs once at GOMAXPROCS=nproc and once at 1;
// traced, once traced and once untraced at nproc.
func runOneshot(cfg runConfig) (*outcome, error) {
	var insts []*instance
	setup, err := medianSetup(oneshotSetups, func() (func(), error) {
		var err error
		insts, err = oneshotInstances(cfg.seed)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.setupS = setup
	chk := &oneshotChecker{ref: map[*instance]string{}, qual: map[*instance]quality{}}
	nproc := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(nproc)
	var ops []*oneshotOp
	start := time.Now()
	cycles := 0
	for {
		// Start another cycle while it should end within half a cycle of
		// the run's length; whole cycles weigh every instance alike.
		elapsed := time.Since(start).Seconds()
		if cycles > 0 && elapsed+0.5*elapsed/float64(cycles) > cfg.seconds {
			break
		}
		for _, inst := range insts {
			for k := 0; k < 2; k++ {
				procs, traced := nproc, cfg.trace && k == 0
				if !cfg.trace && k == 1 {
					procs = 1
				}
				// Each op starts from a collected heap, as a fresh CLI
				// process does, so no op pays for its predecessor's garbage.
				runtime.GC()
				runtime.GOMAXPROCS(procs)
				op, err := runOneshotOp(inst, traced)
				runtime.GOMAXPROCS(nproc)
				out.attempted++
				if err != nil {
					out.fail("%s: %v", inst.name, err)
					continue
				}
				op.procs = procs
				if err := chk.check(op); err != nil {
					out.fail("%v", err)
					continue
				}
				ops = append(ops, op)
			}
		}
		cycles++
	}
	out.note("hosp-oneshot: %d roster cycles of %d instances, %d ops in %.1f s", cycles, len(insts), len(ops), time.Since(start).Seconds())
	var q quality
	for _, inst := range insts {
		q.merge(chk.qual[inst])
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		oneshotLayers(out, ops)
		return out, nil
	}
	var full, single, cpu []float64
	byInst := func(procs int) [][]float64 {
		groups := make([][]float64, len(insts))
		for _, op := range ops {
			if op.procs != procs {
				continue
			}
			for j, inst := range insts {
				if op.inst == inst {
					groups[j] = append(groups[j], op.ms)
				}
			}
		}
		return groups
	}
	for _, op := range ops {
		cpu = append(cpu, op.cpuMs)
		if op.procs == 1 {
			single = append(single, op.ms)
		} else {
			full = append(full, op.ms)
		}
	}
	m := out.metrics
	m["p50_ms"] = medianOfMedians(byInst(nproc))
	m["cpu_ms_per_op"] = mean(cpu)
	if s := sum(full); s > 0 {
		m["max_rate_per_s"] = float64(len(full)) / (s / 1000)
	}
	m["peak_rss_mb"] = rss
	m["precision"], m["recall"] = q.precision(), q.recall()
	out.note("p50_1core_ms %.4f ms over %d ops at GOMAXPROCS=1 (p50_ms: %d ops at GOMAXPROCS=%d)", medianOfMedians(byInst(1)), len(single), len(full), nproc)
	for j, ms := range byInst(nproc) {
		out.note("%s: median %.1f ms over %d ops at GOMAXPROCS=%d", insts[j].name, median(ms), len(ms), nproc)
	}
	return out, nil
}

// oneshotLayers turns the traced ops into per-layer metrics, each the mean
// per traced op. The span-derived phase times plus repair.unattributed_ms
// add up to repair.span_ms.
func oneshotLayers(out *outcome, ops []*oneshotOp) {
	var traced, plain float64
	var n float64
	acc := make(map[string]float64)
	var hits, misses, planeHits, planeMisses float64
	for _, op := range ops {
		if !op.traced {
			plain += op.ms
			continue
		}
		traced += op.ms
		n++
		b := analyzeSpans(op.spans, op.span)
		acc["dataset.read_csv_ms"] += op.readMs
		acc["fd.dist_config_ms"] += op.cfgMs
		acc["repair.span_ms"] += op.span
		acc["repair.alloc_mb"] += op.allocMB
		b.addTo(acc)
		st := op.res.Stats
		hits += float64(st["distCacheHits"])
		misses += float64(st["distCacheMisses"])
		planeHits += float64(st["distPlaneHits"])
		planeMisses += float64(st["distPlaneMisses"])
		acc["targettree.visited"] += float64(st["treeVisited"])
	}
	if n == 0 {
		return
	}
	for k, v := range acc {
		out.metrics[k] = v / n
	}
	out.metrics["fd.lookups"] = (hits + misses) / n
	out.metrics["fd.cache_hit_ratio"] = ratio(hits, hits+misses)
	out.metrics["fd.plane_hit_ratio"] = ratio(planeHits, planeHits+planeMisses)
	if plain > 0 {
		out.metrics["obs.trace_overhead_pct"] = 100 * (traced/plain - 1)
	}
	parts := 0.0
	for _, k := range []string{"fd.distance_ms", "vgraph.graphbuild_ms", "repair.greedygrow_ms", "repair.targetsearch_ms", "repair.apply_ms", "repair.other_phases_ms", "repair.unattributed_ms"} {
		parts += out.metrics[k]
	}
	out.note("hosp-oneshot additivity: phase self times + unattributed = %.4f ms, Repair span = %.4f ms (other phases %.4f ms)",
		parts, out.metrics["repair.span_ms"], out.metrics["repair.other_phases_ms"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
