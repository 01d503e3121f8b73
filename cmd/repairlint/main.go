// Command repairlint runs ftrepair's project-specific static analyzers
// (internal/analysis) over Go packages and reports findings in the usual
// file:line:col style. It exits 1 when any unsuppressed finding or type
// error is reported, so `go run ./cmd/repairlint ./...` gates CI.
//
//	repairlint ./...                          # whole module, text output
//	repairlint -analyzers cancelpoll ./...    # one analyzer
//	repairlint -format=sarif ./... > out.sarif# SARIF 2.1.0 for CI annotation
//	repairlint -list                          # describe the suite
//
// The module is loaded and type-checked once (`go list -export` + go/types)
// and that load is shared by every analyzer pass; packages are then
// analyzed in parallel, bounded by GOMAXPROCS. A wall-time line on stderr
// reports the split between loading and analysis.
//
// A finding is suppressed by `//lint:ignore <analyzer> <reason>` on its
// line or the line above; a directive without an analyzer and a reason is
// itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ftrepair/internal/analysis"
	"ftrepair/internal/analysis/load"
)

func main() {
	var (
		listFlag  = flag.Bool("list", false, "list available analyzers and exit")
		analyzers = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		format    = flag.String("format", "text", "output format: text or sarif")
		workers   = flag.Int("parallel", runtime.GOMAXPROCS(0), "max packages analyzed concurrently")
		quiet     = flag.Bool("quiet", false, "suppress the wall-time summary on stderr")
	)
	flag.Parse()
	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	res, err := run(os.Stdout, config{
		analyzerSpec: *analyzers,
		format:       *format,
		workers:      *workers,
		patterns:     flag.Args(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "repairlint:", err)
		os.Exit(2)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "repairlint: %d analyzer(s) × %d package(s) in %s (load %s, analyze %s); %d finding(s), %d suppressed\n",
			res.analyzers, res.packages, round(res.loadTime+res.analyzeTime),
			round(res.loadTime), round(res.analyzeTime), len(res.active), res.suppressed)
	}
	if len(res.active) > 0 {
		os.Exit(1)
	}
}

// config carries one driver invocation's settings.
type config struct {
	analyzerSpec string
	format       string
	workers      int
	patterns     []string
}

// finding is one diagnostic with its provenance, ready for either output
// format.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
	// Suppressed is true when a //lint:ignore directive covers the finding.
	Suppressed bool
}

// result aggregates a run for the summary line and the exit code.
type result struct {
	active      []finding
	suppressed  int
	analyzers   int
	packages    int
	loadTime    time.Duration
	analyzeTime time.Duration
}

// run loads the packages once, fans the analyzer suite out over them, and
// renders the findings in the requested format.
func run(w io.Writer, cfg config) (*result, error) {
	var names []string
	if cfg.analyzerSpec != "" {
		names = strings.Split(cfg.analyzerSpec, ",")
	}
	selected, err := analysis.ByName(names)
	if err != nil {
		return nil, err
	}
	switch cfg.format {
	case "":
		cfg.format = "text"
	case "text", "sarif":
	default:
		return nil, fmt.Errorf("unknown -format %q (want text or sarif)", cfg.format)
	}

	loadStart := time.Now()
	pkgs, err := load.Packages("", cfg.patterns...)
	if err != nil {
		return nil, err
	}
	loadTime := time.Since(loadStart)

	// Analyze packages in parallel: each package runs the full analyzer
	// suite on the one shared load. Findings are collected per package and
	// merged in deterministic order afterwards, so the output is identical
	// at any worker count — the same discipline the analyzers enforce.
	analyzeStart := time.Now()
	workers := cfg.workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	perPkg := make([][]finding, len(pkgs))
	errs := make([]error, len(pkgs))
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i], errs[i] = analyzePackage(pkgs[i], selected)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	var findings []finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	res := &result{
		analyzers:   len(selected),
		packages:    len(pkgs),
		loadTime:    loadTime,
		analyzeTime: time.Since(analyzeStart),
	}
	for _, f := range findings {
		if f.Suppressed {
			res.suppressed++
		} else {
			res.active = append(res.active, f)
		}
	}

	switch cfg.format {
	case "text":
		for _, f := range res.active {
			fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	case "sarif":
		if err := writeSARIF(w, selected, res.active); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// analyzePackage runs the selected analyzers over one loaded package and
// applies in-file suppression.
func analyzePackage(pkg *load.Package, selected []*analysis.Analyzer) ([]finding, error) {
	var findings []finding
	for _, terr := range pkg.TypeErrors {
		findings = append(findings, finding{
			File:     pkg.Path,
			Analyzer: "typecheck",
			Message:  terr.Error(),
		})
	}
	ignores := analysis.ParseIgnores(pkg.Fset, pkg.Files)
	for _, a := range selected {
		a := a
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Report: func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				f := finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				}
				f.Suppressed = ignores.Suppressed(pos.Filename, pos.Line, a.Name)
				findings = append(findings, f)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	// A directive that does not parse is itself a finding: suppressions
	// must name an analyzer and carry a reason.
	for _, d := range ignores.Malformed() {
		pos := pkg.Fset.Position(d.Pos)
		findings = append(findings, finding{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: "lintdirective",
			Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer> <reason>`",
		})
	}
	return findings, nil
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
