// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) plus the ablations DESIGN.md calls out. The repairbench
// command is a thin wrapper; keeping the experiment code here makes each
// experiment unit-testable.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

type Config struct {
	Scale     float64
	Seed      int64
	Workloads []string
	Exact     bool
	JSON      bool
	// Cancel stops in-flight repairs early (e.g. on SIGINT); measurements
	// taken after it fires report "repair: canceled" instead of numbers.
	Cancel <-chan struct{}
	// BenchOut, when non-empty, makes the graphbench, repairbench,
	// incrbench and distbench experiments also write their measurements as
	// JSON to this path (BENCH_vgraph.json, BENCH_repair.json,
	// BENCH_incremental.json, BENCH_strsim.json).
	BenchOut string
	// Trace, when non-nil, collects phase spans from every repair the
	// experiments run (observational only).
	Trace *obs.Trace
}

// opts is the baseline repair.Options every experiment starts from.
func (c Config) opts() repair.Options {
	return repair.Options{Cancel: c.Cancel, Trace: c.Trace}
}

// canceled reports whether the cancel channel has fired; a nil channel
// never cancels. Ablation sweeps poll it between measurements so a SIGINT
// stops the whole experiment, not just the repair in flight.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// paperN returns the paper's #-tuples sweep for a workload, scaled.
func (c Config) paperN(workload string) []float64 {
	var xs []int
	if workload == "hosp" {
		xs = []int{4000, 8000, 12000, 16000, 20000}
	} else {
		xs = []int{2000, 4000, 6000, 8000, 10000}
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		n := int(float64(x) * c.Scale)
		if n < 200 {
			n = 200
		}
		out[i] = float64(n)
	}
	return out
}

// defaultN is the paper's fixed size for non-N sweeps (HOSP 8k, Tax 4k).
func (c Config) defaultN(workload string) int {
	base := 8000
	if workload == "tax" {
		base = 4000
	}
	n := int(float64(base) * c.Scale)
	if n < 200 {
		n = 200
	}
	return n
}

type experiment struct {
	name string
	desc string
	run  func(c Config, w io.Writer) error
}

func list() []experiment {
	return []experiment{
		{"fig5", "precision/recall varying #-tuples", fig5},
		{"fig6", "precision/recall varying #-FDs", fig6},
		{"fig7", "precision/recall varying error rate", fig7},
		{"fig8", "runtime varying #-tuples (tree vs no tree)", fig8},
		{"fig9", "runtime varying #-FDs (tree vs no tree)", fig9},
		{"fig10", "runtime varying error rate (tree vs no tree)", fig10},
		{"table3", "algorithm comparison at the default configuration", table3},
		{"fig11", "quality vs baselines varying #-tuples", fig11},
		{"fig12", "quality vs baselines varying #-FDs", fig12},
		{"fig13", "quality vs baselines varying error rate", fig13},
		{"fig14", "runtime vs baselines varying #-tuples", fig14},
		{"fig15", "runtime vs baselines varying #-FDs", fig15},
		{"fig16", "runtime vs baselines varying error rate", fig16},
		{"ablation", "design-choice ablations (index, pruning, order, tree)", ablation},
		{"weights", "holistic (w_l,w_r) vs LHS-only (MD-like) vs equal split", weightsAblation},
		{"flavors", "string-distance flavor ablation (Levenshtein/OSA/Jaccard)", flavorAblation},
		{"tau", "FT-threshold sensitivity sweep", tauAblation},
		{"detection", "FT vs classic error localization", detectionAblation},
		{"autotau", "SelectTau heuristic vs fixed threshold", autotauAblation},
		{"graphbench", "construction-phase timings: parallel + memoized graph build", benchExp(eval.GraphBench, 200)},
		{"distbench", "distance-kernel timings: bit-parallel vs DP, matcher streams, plane hits", benchExp(eval.DistBench, 200)},
		{"repairbench", "repair-phase timings: heap greedy growth, parallel B&B, plan evaluation", benchExp(eval.RepairBench, 200)},
		{"incrbench", "incremental-ingest timings: sharded engine per-batch latency vs from-scratch", benchExp(eval.IncrBench, 400)},
	}
}

func (c Config) setup(workload string, n, fds int, rate float64) eval.Setup {
	return eval.Setup{Workload: workload, N: n, FDs: fds, ErrorRate: rate, Seed: c.Seed}
}

// qualitySweep prints one quality table per workload for the given sweep.
func qualitySweep(c Config, w io.Writer, title string, xs func(string) []float64, setup func(string, float64) eval.Setup, algos func() []eval.AlgoSpec) error {
	for _, wk := range c.Workloads {
		series, err := eval.Sweep(xs(wk), func(x float64) eval.Setup { return setup(wk, x) }, algos())
		if err != nil {
			return err
		}
		full := fmt.Sprintf("%s — %s", title, strings.ToUpper(wk))
		if c.JSON {
			if err := eval.WriteJSON(w, full, xLabel(title), series); err != nil {
				return err
			}
			continue
		}
		eval.PrintQuality(w, full, xLabel(title), series)
	}
	return nil
}

func timeSweep(c Config, w io.Writer, title string, xs func(string) []float64, setup func(string, float64) eval.Setup, algos func() []eval.AlgoSpec) error {
	for _, wk := range c.Workloads {
		series, err := eval.Sweep(xs(wk), func(x float64) eval.Setup { return setup(wk, x) }, algos())
		if err != nil {
			return err
		}
		full := fmt.Sprintf("%s — %s", title, strings.ToUpper(wk))
		if c.JSON {
			if err := eval.WriteJSON(w, full, xLabel(title), series); err != nil {
				return err
			}
			continue
		}
		eval.PrintTime(w, full, xLabel(title), series)
	}
	return nil
}

func xLabel(title string) string {
	switch {
	case strings.Contains(title, "#-tuples"):
		return "N"
	case strings.Contains(title, "#-FDs"):
		return "|Sigma|"
	default:
		return "e%"
	}
}

func (c Config) ourAlgos() []eval.AlgoSpec {
	return eval.OurAlgos(c.Exact, c.opts())
}

// treeContrast pairs each multi-FD heuristic with its no-tree variant, the
// paper's X vs X-Tree series.
func treeContrast(c Config) []eval.AlgoSpec {
	withTree := eval.OurAlgos(c.Exact, c.opts())
	noTreeOpts := c.opts()
	noTreeOpts.DisableTargetTree = true
	noTree := eval.OurAlgos(c.Exact, noTreeOpts)
	var out []eval.AlgoSpec
	for i := range withTree {
		wt := withTree[i]
		wt.Name += "-Tree"
		out = append(out, wt, noTree[i])
	}
	return out
}

func fig5(c Config, w io.Writer) error {
	// Single-constraint panel.
	if err := qualitySweep(c, w, "Fig 5 single FD: quality varying #-tuples", c.paperN,
		func(wk string, x float64) eval.Setup { return c.setup(wk, int(x), 1, 0.04) },
		func() []eval.AlgoSpec { return eval.SingleAlgos(true, c.opts()) },
	); err != nil {
		return err
	}
	// Multi-constraint panel.
	return qualitySweep(c, w, "Fig 5 multi FD: quality varying #-tuples", c.paperN,
		func(wk string, x float64) eval.Setup { return c.setup(wk, int(x), 0, 0.04) },
		c.ourAlgos,
	)
}

func fdSweep() []float64 { return []float64{1, 3, 5, 7, 9} }

func fig6(c Config, w io.Writer) error {
	return qualitySweep(c, w, "Fig 6: quality varying #-FDs",
		func(string) []float64 { return fdSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), int(x), 0.04) },
		c.ourAlgos,
	)
}

func rateSweep() []float64 { return []float64{0.02, 0.04, 0.06, 0.08, 0.10} }

func fig7(c Config, w io.Writer) error {
	return qualitySweep(c, w, "Fig 7: quality varying error rate",
		func(string) []float64 { return rateSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), 0, x) },
		c.ourAlgos,
	)
}

func fig8(c Config, w io.Writer) error {
	return timeSweep(c, w, "Fig 8: runtime varying #-tuples", c.paperN,
		func(wk string, x float64) eval.Setup { return c.setup(wk, int(x), 0, 0.04) },
		func() []eval.AlgoSpec { return treeContrast(c) },
	)
}

func fig9(c Config, w io.Writer) error {
	return timeSweep(c, w, "Fig 9: runtime varying #-FDs",
		func(string) []float64 { return fdSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), int(x), 0.04) },
		func() []eval.AlgoSpec { return treeContrast(c) },
	)
}

func fig10(c Config, w io.Writer) error {
	return timeSweep(c, w, "Fig 10: runtime varying error rate",
		func(string) []float64 { return rateSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), 0, x) },
		func() []eval.AlgoSpec { return treeContrast(c) },
	)
}

func withBaselines(ours []eval.AlgoSpec) []eval.AlgoSpec {
	return append(ours, eval.BaselineAlgos()...)
}

func table3(c Config, w io.Writer) error {
	for _, wk := range c.Workloads {
		inst, err := eval.Prepare(c.setup(wk, c.defaultN(wk), 0, 0.04))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Table 3 — %s (N=%d, 9 FDs, e%%=4)\n", strings.ToUpper(wk), c.defaultN(wk))
		fmt.Fprintf(w, "%-10s %10s %10s %12s\n", "algorithm", "precision", "recall", "time(ms)")
		for _, spec := range withBaselines(c.ourAlgos()) {
			p := eval.Measure(inst, spec)
			if p.Err != "" {
				fmt.Fprintf(w, "%-10s %10s %10s %12s  (%s)\n", spec.Name, "-", "-", "-", p.Err)
				continue
			}
			fmt.Fprintf(w, "%-10s %10.3f %10.3f %12.1f\n", spec.Name, p.Quality.Precision, p.Quality.Recall, p.Millis)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fig11(c Config, w io.Writer) error {
	return qualitySweep(c, w, "Fig 11: quality vs baselines varying #-tuples", c.paperN,
		func(wk string, x float64) eval.Setup { return c.setup(wk, int(x), 0, 0.04) },
		func() []eval.AlgoSpec { return withBaselines(c.ourAlgos()) },
	)
}

func fig12(c Config, w io.Writer) error {
	return qualitySweep(c, w, "Fig 12: quality vs baselines varying #-FDs",
		func(string) []float64 { return fdSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), int(x), 0.04) },
		func() []eval.AlgoSpec { return withBaselines(c.ourAlgos()) },
	)
}

func fig13(c Config, w io.Writer) error {
	return qualitySweep(c, w, "Fig 13: quality vs baselines varying error rate",
		func(string) []float64 { return rateSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), 0, x) },
		func() []eval.AlgoSpec { return withBaselines(c.ourAlgos()) },
	)
}

func fig14(c Config, w io.Writer) error {
	return timeSweep(c, w, "Fig 14: runtime vs baselines varying #-tuples", c.paperN,
		func(wk string, x float64) eval.Setup { return c.setup(wk, int(x), 0, 0.04) },
		func() []eval.AlgoSpec { return withBaselines(c.ourAlgos()) },
	)
}

func fig15(c Config, w io.Writer) error {
	return timeSweep(c, w, "Fig 15: runtime vs baselines varying #-FDs",
		func(string) []float64 { return fdSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), int(x), 0.04) },
		func() []eval.AlgoSpec { return withBaselines(c.ourAlgos()) },
	)
}

func fig16(c Config, w io.Writer) error {
	return timeSweep(c, w, "Fig 16: runtime vs baselines varying error rate",
		func(string) []float64 { return rateSweep() },
		func(wk string, x float64) eval.Setup { return c.setup(wk, c.defaultN(wk), 0, x) },
		func() []eval.AlgoSpec { return withBaselines(c.ourAlgos()) },
	)
}

func ablation(c Config, w io.Writer) error {
	wk := c.Workloads[0]
	n := c.defaultN(wk)
	variants := []eval.AlgoSpec{
		namedGreedyM("GreedyM", c.opts()),
		namedGreedyM("NoIndex", repair.Options{Graph: graphNoIndex(), Cancel: c.Cancel}),
		namedGreedyM("NoTree", repair.Options{DisableTargetTree: true, Cancel: c.Cancel}),
	}
	series, err := eval.Sweep([]float64{float64(n)},
		func(x float64) eval.Setup { return c.setup(wk, int(x), 0, 0.04) }, variants)
	if err != nil {
		return err
	}
	eval.PrintTime(w, fmt.Sprintf("Ablations — %s (GreedyM variants)", strings.ToUpper(wk)), "N", series)
	eval.PrintQuality(w, fmt.Sprintf("Ablations quality — %s", strings.ToUpper(wk)), "N", series)
	return nil
}

func namedGreedyM(name string, opts repair.Options) eval.AlgoSpec {
	specs := eval.OurAlgos(false, opts)
	spec := specs[0] // GreedyM
	spec.Name = name
	return spec
}

// weightsAblation compares the paper's holistic weighting (both sides
// contribute) against an MD-style LHS-only similarity and the equal split,
// supporting the paper's §2.3 argument against metric/differential
// dependencies. Every variant sees the same dirty instance.
func weightsAblation(c Config, w io.Writer) error {
	for _, wk := range c.Workloads {
		if canceled(c.Cancel) {
			return repair.ErrCanceled
		}
		n := c.defaultN(wk)
		variants := []struct {
			name        string
			wl, wr, tau float64
		}{
			{"Holistic(.7/.3)", 0.7, 0.3, 0.3},
			{"Equal(.5/.5)", 0.5, 0.5, 0.5},
			{"LHS-only(1/0)", 1.0, 0.0, 0.2},
		}
		fmt.Fprintf(w, "## Weight-split ablation — %s (N=%d, e%%=4, GreedyM)\n", strings.ToUpper(wk), n)
		fmt.Fprintf(w, "%-16s %10s %10s\n", "variant", "precision", "recall")
		for _, v := range variants {
			inst, err := eval.Prepare(eval.Setup{
				Workload: wk, N: n, ErrorRate: 0.04, Seed: c.Seed,
				WL: v.wl, WR: v.wr, Tau: v.tau,
			})
			if err != nil {
				return err
			}
			p := eval.Measure(inst, eval.OurAlgos(false, c.opts())[0])
			if p.Err != "" {
				fmt.Fprintf(w, "%-16s %10s %10s  (%s)\n", v.name, "-", "-", p.Err)
				continue
			}
			fmt.Fprintf(w, "%-16s %10.3f %10.3f\n", v.name, p.Quality.Precision, p.Quality.Recall)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func graphNoIndex() vgraph.Options {
	return vgraph.Options{DisableIndex: true}
}

// flavorAblation compares string-distance flavors on the same instance:
// Levenshtein (the paper's default), OSA (transpositions at unit cost,
// matching a quarter of the injected typos), and Jaccard over 2-grams.
func flavorAblation(c Config, w io.Writer) error {
	for _, wk := range c.Workloads {
		if canceled(c.Cancel) {
			return repair.ErrCanceled
		}
		n := c.defaultN(wk)
		fmt.Fprintf(w, "## Edit-flavor ablation — %s (N=%d, e%%=4, GreedyM)\n", strings.ToUpper(wk), n)
		fmt.Fprintf(w, "%-14s %10s %10s %12s\n", "flavor", "precision", "recall", "time(ms)")
		for _, fl := range []struct {
			name   string
			flavor fd.EditFlavor
		}{
			{"Levenshtein", fd.EditLevenshtein},
			{"OSA", fd.EditOSA},
			{"Jaccard", fd.EditJaccard},
		} {
			inst, err := eval.Prepare(eval.Setup{Workload: wk, N: n, ErrorRate: 0.04, Seed: c.Seed})
			if err != nil {
				return err
			}
			inst.Cfg.Edit = fl.flavor
			inst.Cfg.AttachPlanes()
			p := eval.Measure(inst, eval.OurAlgos(false, c.opts())[0])
			if p.Err != "" {
				fmt.Fprintf(w, "%-14s %10s %10s %12s  (%s)\n", fl.name, "-", "-", "-", p.Err)
				continue
			}
			fmt.Fprintf(w, "%-14s %10.3f %10.3f %12.1f\n", fl.name, p.Quality.Precision, p.Quality.Recall, p.Millis)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// tauAblation sweeps the FT threshold at fixed weights, exposing the
// sweet spot between missing errors (tau too small) and merging legitimate
// patterns (tau too large).
func tauAblation(c Config, w io.Writer) error {
	for _, wk := range c.Workloads {
		if canceled(c.Cancel) {
			return repair.ErrCanceled
		}
		n := c.defaultN(wk)
		fmt.Fprintf(w, "## Tau sensitivity — %s (N=%d, e%%=4, w=0.7/0.3, GreedyM)\n", strings.ToUpper(wk), n)
		fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "tau", "precision", "recall", "repairs")
		for _, tau := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
			inst, err := eval.Prepare(eval.Setup{
				Workload: wk, N: n, ErrorRate: 0.04, Seed: c.Seed,
				WL: 0.7, WR: 0.3, Tau: tau,
			})
			if err != nil {
				return err
			}
			p := eval.Measure(inst, eval.OurAlgos(false, c.opts())[0])
			if p.Err != "" {
				fmt.Fprintf(w, "%-8.2f %10s %10s %10s  (%s)\n", tau, "-", "-", "-", p.Err)
				continue
			}
			fmt.Fprintf(w, "%-8.2f %10.3f %10.3f %10d\n", tau, p.Quality.Precision, p.Quality.Recall, p.Quality.Repaired)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// detectionAblation contrasts FT (similarity-based) error localization
// against the classic equality semantics — the paper's central claim that
// the revised semantics detects errors equality cannot see (t8's Boton).
func detectionAblation(c Config, w io.Writer) error {
	for _, wk := range c.Workloads {
		if canceled(c.Cancel) {
			return repair.ErrCanceled
		}
		n := c.defaultN(wk)
		inst, err := eval.Prepare(eval.Setup{Workload: wk, N: n, ErrorRate: 0.04, Seed: c.Seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Detection quality — %s (N=%d, e%%=4)\n", strings.ToUpper(wk), n)
		fmt.Fprintf(w, "%-22s %10s %10s %10s %10s\n", "semantics", "precision", "recall", "flagged", "violations")
		ft := repair.Detect(inst.Dirty, inst.Set, inst.Cfg, c.opts())
		classic := eval.ClassicDetect(inst)
		for _, row := range []struct {
			name       string
			violations []repair.Violation
		}{
			{"fault-tolerant (FT)", ft},
			{"classic equality", classic},
		} {
			q := eval.DetectionQuality(inst, row.violations)
			fmt.Fprintf(w, "%-22s %10.3f %10.3f %10d %10d\n", row.name, q.Precision, q.Recall, q.Repaired, len(row.violations))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// autotauAblation validates the sudden-gap threshold heuristic end to end:
// per-FD SelectTau vs the fixed benchmark threshold.
func autotauAblation(c Config, w io.Writer) error {
	for _, wk := range c.Workloads {
		if canceled(c.Cancel) {
			return repair.ErrCanceled
		}
		n := c.defaultN(wk)
		fmt.Fprintf(w, "## Auto-tau vs fixed — %s (N=%d, e%%=4, GreedyM)\n", strings.ToUpper(wk), n)
		fmt.Fprintf(w, "%-24s %10s %10s\n", "threshold policy", "precision", "recall")
		for _, policy := range []string{"fixed 0.3", "SelectTau per FD"} {
			inst, err := eval.Prepare(eval.Setup{Workload: wk, N: n, ErrorRate: 0.04, Seed: c.Seed})
			if err != nil {
				return err
			}
			if policy != "fixed 0.3" {
				for i, f := range inst.Set.FDs {
					inst.Set.Tau[i] = fd.SelectTau(inst.Dirty, f, inst.Cfg, fd.TauOptions{Fallback: eval.BenchTau})
				}
			}
			p := eval.Measure(inst, eval.OurAlgos(false, c.opts())[0])
			if p.Err != "" {
				fmt.Fprintf(w, "%-24s %10s %10s  (%s)\n", policy, "-", "-", p.Err)
				continue
			}
			fmt.Fprintf(w, "%-24s %10.3f %10.3f\n", policy, p.Quality.Precision, p.Quality.Recall)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// benchExp wraps a benchmark family as an experiment: it prints the
// family's table and, when Config.BenchOut is set, writes the document there
// as JSON. The instance is sized from the scale so the default run lands at
// N=5000 (never below minN) — large enough for the all-pairs build and the
// naive greedy rescan to dominate.
func benchExp(family func(eval.BenchConfig) (*eval.BenchDoc, error), minN int) func(Config, io.Writer) error {
	return func(c Config, w io.Writer) error {
		n := int(25000 * c.Scale)
		minTime := 500 * time.Millisecond
		if n < 1000 {
			// Tiny scales (tests) need the shape, not stable timings.
			minTime = 10 * time.Millisecond
		}
		doc, err := family(eval.BenchConfig{
			Workload: c.Workloads[0],
			N:        max(n, minN),
			Seed:     c.Seed,
			MinTime:  minTime,
			Cancel:   c.Cancel,
		})
		if err != nil {
			return err
		}
		doc.Print(w)
		if c.BenchOut == "" {
			return nil
		}
		if err := doc.WriteFile(c.BenchOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n\n", c.BenchOut)
		return nil
	}
}

// Names lists the available experiment names in presentation order.
func Names() []string {
	var out []string
	for _, e := range list() {
		out = append(out, e.name)
	}
	return out
}

// Describe returns the one-line description of an experiment, or "".
func Describe(name string) string {
	for _, e := range list() {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Run executes one experiment by name.
func Run(name string, c Config, w io.Writer) error {
	for _, e := range list() {
		if canceled(c.Cancel) {
			return repair.ErrCanceled
		}
		if e.name == name {
			return e.run(c, w)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", name)
}
