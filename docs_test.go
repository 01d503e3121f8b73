package ftrepair_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteDeclaredTests: every Test, Benchmark, Fuzz and Example name
// that DESIGN.md, EXPERIMENTS.md or README.md cites is declared in some
// _test.go file of the repository. A trailing * cites a prefix.
func TestDocsCiteDeclaredTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(src), -1) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			if !declared[prefix] && !(isPrefix && declaresPrefix(declared, prefix)) {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
	}
}

func declaresPrefix(declared map[string]bool, prefix string) bool {
	for name := range declared {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
