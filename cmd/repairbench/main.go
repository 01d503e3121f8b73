// Command repairbench regenerates every table and figure of the paper's
// evaluation (§6) as text tables or JSON: the effectiveness figures
// (Fig. 5-7), the efficiency figures with and without the target tree
// (Fig. 8-10), the comparison against the NADEEF/URM/Llunatic/Holistic
// baselines (Table 3 and Fig. 11-16), and the ablations DESIGN.md calls
// out (index, tree, grouping, weights, flavors, tau, detection, autotau).
//
// Usage:
//
//	repairbench -exp all -scale 0.2
//	repairbench -exp fig5 -workloads hosp
//	repairbench -exp table3 -scale 0.5 -format json
//
// -scale multiplies the paper's data sizes (HOSP 4k-20k tuples, Tax
// 2k-10k); the default 0.2 finishes every experiment in minutes on a
// laptop. Absolute numbers differ from the paper's testbed; the shapes —
// who wins, trends across sweeps, the effect of the tree index — are the
// reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"ftrepair/internal/experiments"
	"ftrepair/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (all, fig5..fig16, table3, ablation, weights, flavors, tau, detection, autotau, graphbench, repairbench, incrbench, distbench)")
		scale     = flag.Float64("scale", 0.2, "fraction of the paper's data sizes")
		seed      = flag.Int64("seed", 7, "base RNG seed")
		workloads = flag.String("workloads", "hosp,tax", "comma-separated workloads (hosp, tax)")
		exact     = flag.Bool("exact", false, "include the exponential exact algorithms (small scales only)")
		format    = flag.String("format", "text", "output format: text or json")
		benchOut  = flag.String("benchout", "", "path for the graphbench/repairbench/incrbench/distbench JSON output (e.g. BENCH_vgraph.json, BENCH_repair.json, BENCH_incremental.json, BENCH_strsim.json); empty disables the file")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of every repair's phase spans to this path")
		metricsOn = flag.Bool("metrics", false, "dump the metrics registry (Prometheus text format) on stderr at the end")
	)
	flag.Parse()
	c := experiments.Config{Scale: *scale, Seed: *seed, Exact: *exact, JSON: *format == "json", BenchOut: *benchOut}
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("repairbench " + *exp)
		tr.SetMeta(obs.CollectMeta(*workloads))
		c.Trace = tr
	}
	for _, w := range strings.Split(*workloads, ",") {
		if w = strings.TrimSpace(strings.ToLower(w)); w != "" {
			c.Workloads = append(c.Workloads, w)
		}
	}

	// The first SIGINT cancels in-flight repairs through the library hook;
	// the sweep stops at the next experiment boundary. A second SIGINT kills
	// the process the default way.
	cancel := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "repairbench: interrupt — canceling")
		signal.Stop(sigCh)
		close(cancel)
	}()
	c.Cancel = cancel

	// flush exports the trace and metrics on every exit path (os.Exit skips
	// defers), so even a canceled sweep leaves an inspectable trace behind.
	flush := func() {
		if tr != nil {
			tr.CloseOpen()
			if f, err := os.Create(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "repairbench: trace: %v\n", err)
			} else {
				if err := tr.WriteChrome(f); err != nil {
					fmt.Fprintf(os.Stderr, "repairbench: trace: %v\n", err)
				}
				f.Close()
			}
		}
		if *metricsOn {
			_ = obs.Default().WritePrometheus(os.Stderr)
		}
	}

	names := experiments.Names()
	ran := false
	for _, name := range names {
		if *exp != "all" && *exp != name {
			continue
		}
		select {
		case <-cancel:
			fmt.Fprintln(os.Stderr, "repairbench: canceled")
			flush()
			os.Exit(130)
		default:
		}
		ran = true
		fmt.Printf("# %s — %s (scale %g)\n\n", name, experiments.Describe(name), c.Scale)
		if err := experiments.Run(name, c, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			flush()
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: all %s\n", *exp, strings.Join(names, " "))
		os.Exit(2)
	}
	flush()
}
