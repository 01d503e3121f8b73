package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc writes a bench document with the given ns/op per entry name.
func writeDoc(t *testing.T, name string, nsPerOp map[string]float64) string {
	t.Helper()
	var entries []string
	for _, k := range sortedKeys(nsPerOp) {
		entries = append(entries, fmt.Sprintf(`{"name": %q, "iters": 1, "nsPerOp": %g}`, k, nsPerOp[k]))
	}
	path := filepath.Join(t.TempDir(), name)
	doc := `{"layer": "test", "entries": [` + strings.Join(entries, ", ") + `], "ratios": {}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func check(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out strings.Builder
	code := run(args, &out)
	return code, out.String()
}

// reportLine returns the output line that reports entry.
func reportLine(out, entry string) string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == entry {
			return line
		}
	}
	return ""
}

func TestBenchcheckVerdicts(t *testing.T) {
	committed := map[string]float64{"build": 1000}
	cases := []struct {
		name     string
		fresh    map[string]float64
		code     int
		contains string
	}{
		{"over the threshold fails", map[string]float64{"build": 1300}, 1, "REGRESSED 1.30x"},
		{"under the threshold passes", map[string]float64{"build": 1200}, 0, "ok (1.20x)"},
		{"faster passes", map[string]float64{"build": 600}, 0, "ok (0.60x)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pair := writeDoc(t, "committed.json", committed) + "=" + writeDoc(t, "fresh.json", tc.fresh)
			code, out := check(t, pair)
			if code != tc.code || !strings.Contains(out, tc.contains) {
				t.Fatalf("exit %d, want %d; output lacks %q:\n%s", code, tc.code, tc.contains, out)
			}
		})
	}
}

func TestBenchcheckSkipsSubFloorEntries(t *testing.T) {
	pair := writeDoc(t, "committed.json", map[string]float64{"hit": 40}) + "=" +
		writeDoc(t, "fresh.json", map[string]float64{"hit": 90})
	code, out := check(t, pair)
	if code != 0 || !strings.Contains(out, "below 100 ns floor, skipped") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestBenchcheckSkipsUnsharedEntries(t *testing.T) {
	pair := writeDoc(t, "committed.json", map[string]float64{"shared": 1000, "old": 1000}) + "=" +
		writeDoc(t, "fresh.json", map[string]float64{"shared": 1000, "new": 9000})
	code, out := check(t, pair)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for entry, want := range map[string]string{"old": "only in committed file (skipped)", "new": "only in fresh file (skipped)"} {
		if line := reportLine(out, entry); !strings.Contains(line, want) {
			t.Errorf("entry %s reported as %q, want %q", entry, line, want)
		}
	}
}

func TestBenchcheckUsage(t *testing.T) {
	path := writeDoc(t, "committed.json", map[string]float64{"build": 1000})
	for _, args := range [][]string{
		nil,
		{path},
		{path + "=" + filepath.Join(t.TempDir(), "missing.json")},
		{"-threshold", "x", path + "=" + path},
	} {
		if code, out := check(t, args...); code != 2 {
			t.Errorf("args %q: exit %d, want 2:\n%s", args, code, out)
		}
	}
}

// TestCommittedBenchDocsLoad pins the committed documents to the schema the
// gate reads: every file has entries, each with a positive ns/op.
func TestCommittedBenchDocsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("found %d committed BENCH_*.json files, want at least 4: %v", len(paths), paths)
	}
	for _, path := range paths {
		entries, err := load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(entries) == 0 {
			t.Errorf("%s: no entries", path)
		}
		for name, ns := range entries {
			if !(ns > 0) {
				t.Errorf("%s: entry %s has nsPerOp %v", path, name, ns)
			}
		}
	}
}
