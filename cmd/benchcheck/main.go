// Command benchcheck compares committed benchmark JSON against freshly
// measured files and fails when a shared entry's ns/op regressed beyond the
// threshold. Every BENCH_*.json this repo emits shares one document schema
// (internal/eval's BenchDoc); the tool reads its "entries" array of
// {name, nsPerOp} objects, so it gates the vgraph, repair, incremental, and
// strsim families alike.
//
// Usage:
//
//	benchcheck [-threshold 1.25] committed.json=fresh.json ...
//
// Entries present in only one file are reported but never fail the check
// (benchmark families grow; renaming an entry should not break CI), and
// entries faster than 100ns/op are skipped — at that scale timer noise and
// cache effects dwarf real regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

type benchDoc struct {
	Entries []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"nsPerOp"`
	} `json:"entries"`
}

// minNsPerOp is the floor below which entries are too fast to compare
// reliably in shared CI runners.
const minNsPerOp = 100.0

func load(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(doc.Entries))
	for _, e := range doc.Entries {
		out[e.Name] = e.NsPerOp
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run performs the check and returns the exit code: 0 when no shared entry
// regressed, 1 when one did, 2 on a usage or read error. Every message goes
// to out.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(out)
	threshold := fs.Float64("threshold", 1.25, "fail when fresh ns/op exceeds committed ns/op by this ratio")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(out, "usage: benchcheck [-threshold 1.25] committed.json=fresh.json ...")
		return 2
	}
	limit := *threshold
	failed := false
	for _, pair := range fs.Args() {
		committedPath, freshPath, ok := strings.Cut(pair, "=")
		if !ok {
			fmt.Fprintf(out, "benchcheck: argument %q is not committed.json=fresh.json\n", pair)
			return 2
		}
		committed, err := load(committedPath)
		if err != nil {
			fmt.Fprintf(out, "benchcheck: %v\n", err)
			return 2
		}
		fresh, err := load(freshPath)
		if err != nil {
			fmt.Fprintf(out, "benchcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "%s vs %s:\n", committedPath, freshPath)
		for _, e := range sortedKeys(committed) {
			base := committed[e]
			now, shared := fresh[e]
			switch {
			case !shared:
				fmt.Fprintf(out, "  %-28s only in committed file (skipped)\n", e)
			case base < minNsPerOp || now < minNsPerOp:
				fmt.Fprintf(out, "  %-28s %12.0f -> %12.0f ns/op (below %v ns floor, skipped)\n", e, base, now, minNsPerOp)
			case now > base*limit:
				fmt.Fprintf(out, "  %-28s %12.0f -> %12.0f ns/op  REGRESSED %.2fx (limit %.2fx)\n",
					e, base, now, now/base, limit)
				failed = true
			default:
				fmt.Fprintf(out, "  %-28s %12.0f -> %12.0f ns/op  ok (%.2fx)\n", e, base, now, now/base)
			}
		}
		for _, e := range sortedKeys(fresh) {
			if _, shared := committed[e]; !shared {
				fmt.Fprintf(out, "  %-28s only in fresh file (skipped)\n", e)
			}
		}
	}
	if failed {
		fmt.Fprintln(out, "benchcheck: FAIL")
		return 1
	}
	fmt.Fprintln(out, "benchcheck: ok")
	return 0
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		//lint:ignore mapiter the collected keys are insertion-sorted below, so map order never reaches the output
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
