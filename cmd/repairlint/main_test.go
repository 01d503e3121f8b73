package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestCleanTree is the repo's lint gate in test form: the analyzer suite
// must report nothing on the current source tree beyond what in-file
// //lint:ignore directives justify.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var buf bytes.Buffer
	res, err := run(&buf, config{patterns: []string{"ftrepair/..."}})
	if err != nil {
		t.Fatalf("repairlint driver failed: %v", err)
	}
	if len(res.active) != 0 {
		t.Fatalf("repairlint reported %d finding(s) on a tree expected to be clean:\n%s", len(res.active), buf.String())
	}
}

// TestAnalyzerSelection exercises the -analyzers subset path.
func TestAnalyzerSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	var buf bytes.Buffer
	res, err := run(&buf, config{
		analyzerSpec: "floateq,errfmt",
		patterns:     []string{"ftrepair/internal/fd"},
	})
	if err != nil {
		t.Fatalf("repairlint driver failed: %v", err)
	}
	if len(res.active) != 0 {
		t.Fatalf("unexpected findings in internal/fd:\n%s", buf.String())
	}
	if res.analyzers != 2 {
		t.Fatalf("analyzer subset: got %d analyzers, want 2", res.analyzers)
	}
}

// TestUnknownAnalyzer: a typo in -analyzers must be a driver error, not a
// silently empty run.
func TestUnknownAnalyzer(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, config{analyzerSpec: "nosuch"}); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("want unknown-analyzer error naming it, got %v", err)
	}
}

// TestUnknownFormat: a bad -format is a driver error before any load.
// Only text and sarif exist.
func TestUnknownFormat(t *testing.T) {
	for _, format := range []string{"xml", "json"} {
		var buf bytes.Buffer
		if _, err := run(&buf, config{format: format}); err == nil || !strings.Contains(err.Error(), format) {
			t.Fatalf("want unknown-format error naming %q, got %v", format, err)
		}
	}
}

// TestSARIFOutput: -format=sarif emits a valid SARIF 2.1.0 skeleton with a
// rule per analyzer.
func TestSARIFOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	var buf bytes.Buffer
	_, err := run(&buf, config{
		format:   "sarif",
		patterns: []string{"ftrepair/internal/fd"},
	})
	if err != nil {
		t.Fatalf("repairlint driver failed: %v", err)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("sarif output does not parse: %v\n%s", err, buf.String())
	}
	if doc.Version != "2.1.0" || !strings.Contains(doc.Schema, "sarif-schema-2.1.0") {
		t.Fatalf("not a SARIF 2.1.0 log: version=%q schema=%q", doc.Version, doc.Schema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("want exactly one run, got %d", len(doc.Runs))
	}
	drv := doc.Runs[0].Tool.Driver
	if drv.Name != "repairlint" {
		t.Fatalf("driver name = %q", drv.Name)
	}
	ids := map[string]bool{}
	for _, r := range drv.Rules {
		ids[r.ID] = true
	}
	for _, want := range []string{"cancelpoll", "floateq", "errfmt", "mapiter", "nondeterm", "goguard", "spanend", "typecheck", "lintdirective"} {
		if !ids[want] {
			t.Fatalf("sarif rules missing %q (have %v)", want, ids)
		}
	}
	if doc.Runs[0].Results == nil {
		t.Fatalf("sarif results must be [] even when empty")
	}
}

// TestParallelDeterminism: the merged finding order must not depend on the
// worker count.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	var serial, parallel bytes.Buffer
	if _, err := run(&serial, config{workers: 1, patterns: []string{"ftrepair/internal/..."}}); err != nil {
		t.Fatalf("serial run failed: %v", err)
	}
	if _, err := run(&parallel, config{workers: 8, patterns: []string{"ftrepair/internal/..."}}); err != nil {
		t.Fatalf("parallel run failed: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("output differs between 1 and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s", serial.String(), parallel.String())
	}
}
