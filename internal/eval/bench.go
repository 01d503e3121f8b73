package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
)

// BenchConfig selects one benchmark family's run.
type BenchConfig struct {
	// Workload is "hosp" or "tax"; N the tuple count of the family's largest
	// instance. The distance family uses neither.
	Workload string
	N        int
	Seed     int64
	// MinTime is the minimum measured wall-clock per entry; each entry
	// repeats its operation until it elapses. Defaults to 200ms. The
	// incremental family replays a fixed stream instead.
	MinTime time.Duration
	Cancel  <-chan struct{}
}

// BenchEntry is one measured configuration. NsPerOp, AllocsPerOp and
// BytesPerOp are per operation in the family's unit — one graph build or
// greedy growth, one distance comparison, one ingest batch — and Iters
// counts the timed loop's iterations. Counters holds the entry's other
// figures (edges, cache hit rate, combinations/s, shard telemetry, ...).
type BenchEntry struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"nsPerOp"`
	AllocsPerOp float64            `json:"allocsPerOp"`
	BytesPerOp  float64            `json:"bytesPerOp"`
	Counters    map[string]float64 `json:"counters,omitempty"`
	// slowest is the longest single iteration.
	slowest time.Duration
}

// BenchDoc is the payload of every BENCH_*.json: one family's entries on one
// instance, the run environment so a committed file is self-describing, and
// Ratios — ns/op quotients between entries, such as speedups.
type BenchDoc struct {
	Layer      string             `json:"layer"`
	Workload   string             `json:"workload"`
	N          int                `json:"n,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Meta       obs.RunMeta        `json:"meta"`
	Entries    []*BenchEntry      `json:"entries"`
	Ratios     map[string]float64 `json:"ratios"`
}

// benchRun times one family's entries into its document.
type benchRun struct {
	doc     *BenchDoc
	minTime time.Duration
	cancel  <-chan struct{}
}

func newBenchRun(layer string, c BenchConfig) *benchRun {
	if c.MinTime <= 0 {
		c.MinTime = 200 * time.Millisecond
	}
	return &benchRun{
		doc: &BenchDoc{
			Layer:      layer,
			Workload:   c.Workload,
			N:          c.N,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Meta:       obs.CollectMeta(c.Workload),
			Ratios:     make(map[string]float64),
		},
		minTime: c.MinTime,
		cancel:  c.Cancel,
	}
}

// time measures op as the entry called name and returns it, or returns nil
// when name was measured before: a family's configurations can coincide,
// such as 1 and GOMAXPROCS workers on one core. op(i) runs for i = 0, 1, ...
// until MinTime has elapsed or, when iters > 0, exactly iters times; each
// call performs per operations, and the entry's figures are per operation.
// Allocations are the cumulative Mallocs/TotalAlloc deltas around the loop,
// the quantities `go test -benchmem` reports.
func (r *benchRun) time(name string, iters, per int, op func(i int) error) (*BenchEntry, error) {
	if r.doc.entry(name) != nil {
		return nil, nil
	}
	e := &BenchEntry{Name: name}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	last := start
	for (iters == 0 && last.Sub(start) < r.minTime) || e.Iters < iters {
		if r.canceled() {
			return nil, repair.ErrCanceled
		}
		if err := op(e.Iters); err != nil {
			return nil, err
		}
		now := time.Now()
		e.slowest = max(e.slowest, now.Sub(last))
		last = now
		e.Iters++
	}
	runtime.ReadMemStats(&after)
	ops := float64(e.Iters * per)
	e.NsPerOp = float64(last.Sub(start).Nanoseconds()) / ops
	e.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / ops
	e.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
	r.doc.Entries = append(r.doc.Entries, e)
	return e, nil
}

// canceled polls the run's cancel channel; families also poll it between
// set-up steps, so a cancel does not wait for the next timed entry.
func (r *benchRun) canceled() bool {
	select {
	case <-r.cancel:
		return true
	default:
		return false
	}
}

// ratio records ns/op of entry num over entry den as Ratios[key], when both
// were measured.
func (r *benchRun) ratio(key, num, den string) {
	a, b := r.doc.entry(num), r.doc.entry(den)
	if a != nil && b != nil && b.NsPerOp > 0 {
		r.doc.Ratios[key] = a.NsPerOp / b.NsPerOp
	}
}

func (d *BenchDoc) entry(name string) *BenchEntry {
	for _, e := range d.Entries {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// perSec converts a per-operation count into a per-second rate.
func (e *BenchEntry) perSec(count int) float64 {
	if e.NsPerOp <= 0 {
		return 0
	}
	return float64(count) / (e.NsPerOp / 1e9)
}

// Print renders the document as the text table the bench experiments emit.
func (d *BenchDoc) Print(w io.Writer) {
	size := ""
	if d.N > 0 {
		size = fmt.Sprintf("N=%d, ", d.N)
	}
	fmt.Fprintf(w, "## %s bench — %s (%sGOMAXPROCS=%d)\n", d.Layer, d.Workload, size, d.GOMAXPROCS)
	fmt.Fprintf(w, "%-24s %8s %14s %12s %12s %s\n", "config", "iters", "ns/op", "allocs/op", "B/op", "counters")
	for _, e := range d.Entries {
		fmt.Fprintf(w, "%-24s %8d %14.1f %12.3f %12.1f", e.Name, e.Iters, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		for _, k := range sortedKeys(e.Counters) {
			fmt.Fprintf(w, " %s=%.6g", k, e.Counters[k])
		}
		fmt.Fprintln(w)
	}
	for _, k := range sortedKeys(d.Ratios) {
		fmt.Fprintf(w, "ratio %-38s %8.2fx\n", k, d.Ratios[k])
	}
	fmt.Fprintln(w)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteFile writes the document to path as indented JSON.
func (d *BenchDoc) WriteFile(path string) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("eval: encoding %s bench: %w", d.Layer, err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
