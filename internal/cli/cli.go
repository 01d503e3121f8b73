// Package cli implements the ftrepair command: flag parsing, the
// repair/detect/discover flows, and reporting. It lives outside the main
// package so the whole command surface is unit-testable with injected
// streams.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"ftrepair"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
	"ftrepair/internal/report"
)

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, "; ") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// Main runs the ftrepair command with the given arguments and streams,
// returning the process exit code. The first SIGINT cancels the running
// repair through the library's cancellation hook; the partial repair is
// still written and the exit code is 130. A second SIGINT kills the
// process the default way.
func Main(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	cancel, stop := interruptChannel(stderr)
	defer stop()
	return run(args, stdin, stdout, stderr, cancel)
}

// interruptChannel converts the first SIGINT into a closed channel and
// then restores default signal handling.
func interruptChannel(stderr io.Writer) (<-chan struct{}, func()) {
	cancel := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		if _, ok := <-sigCh; !ok {
			return
		}
		fmt.Fprintln(stderr, "ftrepair: interrupt — canceling (partial output follows)")
		signal.Stop(sigCh)
		close(cancel)
	}()
	return cancel, func() { signal.Stop(sigCh); close(sigCh) }
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer, cancel <-chan struct{}) int {
	var fds stringList
	fs := flag.NewFlagSet("ftrepair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "input CSV path (required; '-' for stdin)")
		out       = fs.String("out", "-", "output CSV path ('-' for stdout)")
		types     = fs.String("types", "", "comma-separated attribute types aligned with the header (string|numeric); default inferred")
		algo      = fs.String("algo", "greedym", "repair algorithm: exacts, greedys, exactm, approm, greedym")
		tau       = fs.Float64("tau", 0.3, "FT-violation threshold for every FD")
		autoTau   = fs.Bool("auto-tau", false, "derive tau per FD with the sudden-gap heuristic")
		wl        = fs.Float64("wl", 0.7, "LHS distance weight")
		wr        = fs.Float64("wr", 0.3, "RHS distance weight")
		quiet     = fs.Bool("q", false, "suppress the summary on stderr")
		detect    = fs.Bool("detect", false, "only detect and print FT-violations; no repair")
		discover  = fs.Bool("discover", false, "profile the input for approximate FDs and exit (no -fd needed)")
		repReport = fs.Bool("report", false, "print a full repair report (violations before/after, edits by attribute) on stderr")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON of the repair's phase spans to this path (load via chrome://tracing or go tool trace -http)")
		metricsOn = fs.Bool("metrics", false, "dump the metrics registry (Prometheus text format) on stderr after the run")
		ledgerOut = fs.String("ledger", "", "write the tamper-evident repair ledger (JSONL, verifiable with ledgercheck) to this path")
	)
	fs.Var(&fds, "fd", "functional dependency spec, e.g. \"City,Street -> District\" (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := command{
		stdin: stdin, stdout: stdout, stderr: stderr, cancel: cancel,
		in: *in, out: *out, types: *types, algoName: *algo,
		fdSpecs: fds, tau: *tau, autoTau: *autoTau, wl: *wl, wr: *wr,
		quiet: *quiet, detect: *detect, report: *repReport,
		traceOut: *traceOut, metrics: *metricsOn, ledgerOut: *ledgerOut,
	}
	var err error
	if *discover {
		err = c.runDiscover()
	} else {
		err = c.run()
	}
	if errors.Is(err, ftrepair.ErrCanceled) {
		fmt.Fprintln(stderr, "ftrepair:", err)
		return 130
	}
	if err != nil {
		fmt.Fprintln(stderr, "ftrepair:", err)
		return 1
	}
	return 0
}

type command struct {
	stdin          io.Reader
	stdout, stderr io.Writer
	cancel         <-chan struct{}

	in, out, types, algoName string
	fdSpecs                  []string
	tau, wl, wr              float64
	autoTau                  bool
	quiet, detect, report    bool
	traceOut                 string
	metrics                  bool
	ledgerOut                string
}

// newTrace builds the run trace when -trace was given (nil otherwise) and
// returns a flush function that exports it; the trace is written even after
// a canceled run so partial repairs stay inspectable.
func (c *command) newTrace() (*obs.Trace, func() error) {
	if c.traceOut == "" {
		return nil, func() error { return nil }
	}
	tr := obs.NewTrace("ftrepair " + c.in)
	tr.SetMeta(obs.CollectMeta(c.in))
	return tr, func() error {
		tr.CloseOpen()
		f, err := os.Create(c.traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// writeLedger dumps the run's repair ledger as self-verifying JSONL and
// notes the run root on stderr so operators can pin it out of band.
func (c *command) writeLedger(led *ftrepair.Ledger) error {
	f, err := os.Create(c.ledgerOut)
	if err != nil {
		return err
	}
	if err := led.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !c.quiet {
		fmt.Fprintf(c.stderr, "ledger: %d events in %d batches, run root %s\n",
			led.Len(), len(led.Batches()), led.RunRootHex())
	}
	return nil
}

// dumpMetrics writes the default registry on stderr when -metrics was given.
func (c *command) dumpMetrics() {
	if c.metrics {
		_ = obs.Default().WritePrometheus(c.stderr)
	}
}

func (c *command) load() (*ftrepair.Relation, error) {
	reader := c.stdin
	if c.in != "-" {
		f, err := os.Open(c.in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		reader = f
	}
	rel, err := ftrepair.ReadCSV(reader, c.types)
	if err != nil {
		return nil, err
	}
	if c.types == "" {
		// No type spec: infer numeric columns from the data (fixed-width
		// digit identifiers stay strings).
		rel = ftrepair.Retype(rel)
	}
	return rel, nil
}

func (c *command) runDiscover() error {
	if c.in == "" {
		return fmt.Errorf("-in is required")
	}
	rel, err := c.load()
	if err != nil {
		return err
	}
	cfg, err := ftrepair.NewDistConfig(rel, c.wl, c.wr)
	if err != nil {
		return err
	}
	results := ftrepair.DiscoverFDs(rel, ftrepair.DiscoverOptions{MaxLHS: 2, MaxError: 0.1, MinSupport: 0.1})
	for _, r := range results {
		sep := ftrepair.SeparationCheck(rel, r.FD, cfg, c.tau, ftrepair.SeparationOptions{})
		safety := "ok"
		if sep.MergeMass > 0.15 {
			safety = "UNSAFE at this tau"
		}
		fmt.Fprintf(c.stdout, "g3=%.3f support=%.2f mergeMass=%.3f [%s]  %s\n", r.Error, r.Support, sep.MergeMass, safety, r.FD)
	}
	if !c.quiet {
		fmt.Fprintf(c.stderr, "%d candidate FDs (pass safe ones back as -fd specs)\n", len(results))
	}
	return nil
}

func (c *command) run() error {
	if c.in == "" {
		return fmt.Errorf("-in is required")
	}
	if len(c.fdSpecs) == 0 {
		return fmt.Errorf("at least one -fd is required")
	}
	algo, err := repair.ParseAlgorithm(c.algoName)
	if err != nil {
		return err
	}

	rel, err := c.load()
	if err != nil {
		return err
	}
	parsed := make([]*ftrepair.FD, len(c.fdSpecs))
	for i, spec := range c.fdSpecs {
		f, err := ftrepair.ParseFD(rel.Schema, spec)
		if err != nil {
			return err
		}
		parsed[i] = f
	}
	cfg, err := ftrepair.NewDistConfig(rel, c.wl, c.wr)
	if err != nil {
		return err
	}
	taus := make([]float64, len(parsed))
	for i, f := range parsed {
		if c.autoTau {
			taus[i] = ftrepair.SelectTau(rel, f, cfg, ftrepair.TauOptions{Fallback: c.tau})
		} else {
			taus[i] = c.tau
		}
	}
	set, err := ftrepair.NewSet(parsed, taus...)
	if err != nil {
		return err
	}

	tr, flushTrace := c.newTrace()
	if c.detect {
		report.WriteViolations(c.stdout, ftrepair.Detect(rel, set, cfg, ftrepair.Options{Cancel: c.cancel, Trace: tr}))
		c.dumpMetrics()
		return flushTrace()
	}

	opts := ftrepair.Options{Cancel: c.cancel, Trace: tr}
	var led *ftrepair.Ledger
	if c.ledgerOut != "" {
		// Assigned only when non-nil: a nil *Ledger inside the Sink
		// interface would read as an attached ledger.
		led = ftrepair.NewLedger()
		opts.Ledger = led
	}
	res, err := ftrepair.Repair(rel, set, cfg, algo, opts)
	if terr := flushTrace(); terr != nil && err == nil {
		err = terr
	}
	if led != nil {
		// Written even after a canceled run: the ledger records exactly the
		// cells the partial repair applied.
		if lerr := c.writeLedger(led); lerr != nil && err == nil {
			err = lerr
		}
	}
	c.dumpMetrics()
	canceled := errors.Is(err, ftrepair.ErrCanceled)
	if err != nil && !(canceled && res != nil) {
		return err
	}

	writer := c.stdout
	if c.out != "-" {
		f, err := os.Create(c.out)
		if err != nil {
			return err
		}
		defer f.Close()
		writer = f
	}
	if err := ftrepair.WriteCSV(writer, res.Repaired); err != nil {
		return err
	}
	if c.report {
		if err := report.Write(c.stderr, rel, res, set, cfg, report.Options{}); err != nil {
			return err
		}
	} else if !c.quiet {
		fmt.Fprintf(c.stderr, "%s repaired %d cells across %d tuples (cost %.3f) in %v\n",
			res.Algorithm, len(res.Changed), rel.Len(), res.Cost, res.Elapsed)
		for i, f := range parsed {
			fmt.Fprintf(c.stderr, "  %s  tau=%.3f\n", f, taus[i])
		}
	}
	if !c.quiet {
		if err := ftrepair.VerifyFTConsistent(res.Repaired, set, cfg); err != nil {
			fmt.Fprintf(c.stderr, "  warning: %v\n", err)
		}
	}
	if canceled {
		return fmt.Errorf("%w (wrote partial repair: %d cells)", ftrepair.ErrCanceled, len(res.Changed))
	}
	return nil
}
