// Command perfbench is ftrepair's end-to-end benchmark. It drives the
// system only through its public surfaces: the ftrepair package in-process
// (hosp-oneshot) and the repaird binary as a child process over loopback
// HTTP (repaird-jobs, repaird-stream). Inputs come from internal/gen with the
// seed given on the command line; the program only sees CSV or JSON.
//
//	perfbench --workload hosp-oneshot --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Untraced runs (--trace 0) report the end-to-end
// metrics; a traced run (--trace 1) reports the per-layer metrics. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ftrepair/internal/obs"
)

// The metric sets, in BENCHMARK.json order. Every workload prints every
// metric of the set its run reports; a per-layer metric of a layer the
// workload does not exercise reads 0.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"p50_ms", "ms"}, {"cpu_ms_per_op", "ms"},
		{"max_rate_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
		{"precision", "ratio"}, {"recall", "ratio"},
	}
	perLayer = []metricDef{
		{"dataset.read_csv_ms", "ms"},
		{"fd.dist_config_ms", "ms"},
		{"fd.distance_ms", "ms"},
		{"fd.lookups", "count"},
		{"fd.cache_hit_ratio", "ratio"},
		{"fd.plane_hit_ratio", "ratio"},
		{"vgraph.graphbuild_ms", "ms"},
		{"vgraph.graphbuild_busy_ms", "ms"},
		{"vgraph.edges", "count"},
		{"repair.span_ms", "ms"},
		{"repair.greedygrow_ms", "ms"},
		{"repair.targetsearch_ms", "ms"},
		{"repair.apply_ms", "ms"},
		{"repair.other_phases_ms", "ms"},
		{"repair.unattributed_ms", "ms"},
		{"repair.alloc_mb", "MiB"},
		{"repair.bnb_ms", "ms"},
		{"repair.bnb_combinations", "count"},
		{"targettree.visited", "count"},
		{"mis.expand_ms", "ms"},
		{"mis.nodes", "count"},
		{"ledger.events_per_job", "count"},
		{"ledger.bytes_per_job", "bytes"},
		{"server.submit_ms", "ms"},
		{"server.queue_ms", "ms"},
		{"server.finalize_ms", "ms"},
		{"server.fetch_ms", "ms"},
		{"server.polls_per_job", "count"},
		{"server.append_http_ms", "ms"},
		{"incr.flush_ms", "ms"},
		{"incr.batch_wait_ms", "ms"},
		{"incr.rows_per_flush", "count"},
		{"incr.shards_touched", "count"},
		{"incr.max_shard_rows", "count"},
		{"incr.shardselect_ms", "ms"},
		{"incr.increpair_ms", "ms"},
		{"obs.trace_overhead_pct", "%"},
		{"loadgen.late_max_ms", "ms"},
		{"loadgen.cpu_ms_per_op", "ms"},
	}
)

type metricDef struct{ name, unit string }

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	repaird string
	workdir string
}

// outcome is what a workload measured and checked.
type outcome struct {
	setupS    float64
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	// meta joins the run metadata line (daemon settings).
	meta map[string]any
	// notes are printed before the result line: context a reader needs
	// next to the numbers, but no gated metric.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), meta: make(map[string]any)}
}

// fail counts one failed op and keeps its reason (the first few only).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"hosp-oneshot":   runOneshot,
	"repaird-jobs":   runJobs,
	"repaird-stream": runStream,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hosp-oneshot, repaird-jobs or repaird-stream")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 35, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	repaird := fs.String("repaird", ".bench_build/repaird", "repaird binary built from this checkout")
	workdir := fs.String("workdir", ".bench_build", "directory for daemon logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (hosp-oneshot, repaird-jobs, repaird-stream), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, repaird: *repaird, workdir: *workdir}
	cpu0, wall0 := readCPUTimes(), time.Now()
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	cpu1 := readCPUTimes()
	meta := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"run": obs.CollectMeta(*workload), "nproc": runtime.NumCPU(),
		"wallSeconds":     time.Since(wall0).Seconds(),
		"stealTicks":      cpu1.steal - cpu0.steal,
		"userTicks":       cpu1.user - cpu0.user,
		"stealPctOfUser":  pct(cpu1.steal-cpu0.steal, cpu1.user-cpu0.user),
		"clockTicksPerS":  clockTicks,
		"failureExamples": out.failures,
	}
	for k, v := range out.meta {
		meta[k] = v
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	if b, err := json.Marshal(map[string]any{"meta": meta}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	out.metrics["setup_s"] = out.setupS
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// How many times a run sets up, for the median setup_s: instance
// generation alone is cheap and noisy, so hosp-oneshot repeats it more
// often than the daemon workloads repeat theirs.
const (
	oneshotSetups = 15
	daemonSetups  = 7
)

// medianSetup runs setup n times and returns the median wall time in
// seconds. Every attempt starts from a collected heap, and every attempt
// but the last is torn down again; the last one's state is what the run
// measures.
func medianSetup(n int, setup func() (teardown func(), err error)) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(secs), nil
}
