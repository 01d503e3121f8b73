package repair

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/obs"
	"ftrepair/internal/vgraph"
)

// phasesOf collects the distinct phases of a trace's ended spans.
func phasesOf(tr *obs.Trace) map[obs.Phase]int {
	out := make(map[obs.Phase]int)
	for _, s := range tr.Summaries() {
		out[s.Phase]++
	}
	return out
}

// TestGreedySTraceSpans runs a traced single-FD greedy repair and checks
// the span taxonomy: one graph build, one greedy growth, one apply, all
// closed, and the whole thing exportable as Chrome-trace JSON.
func TestGreedySTraceSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := noisyPairRelation(t, rng, 120, 0.3)
	cfg := fd.DefaultDistConfig(rel)
	f := fd.MustParse(rel.Schema, "City->State")

	tr := obs.NewTrace("test")
	if _, err := GreedyS(rel, f, cfg, 0.3, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after repair = %d, want 0", n)
	}
	got := phasesOf(tr)
	for _, p := range []obs.Phase{obs.PhaseGraphBuild, obs.PhaseGreedyGrow, obs.PhaseApply} {
		if got[p] == 0 {
			t.Fatalf("no %s span; phases = %v", p, got)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.Summaries()) {
		t.Fatalf("events = %d, spans = %d", len(doc.TraceEvents), len(tr.Summaries()))
	}
}

// TestExactMTraceSpans runs a traced multi-FD exact repair over two
// overlapping FDs and expects expansion and target-search spans on top of
// the per-FD graph builds.
func TestExactMTraceSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := noisyTripleRelation(t, rng, 60, 0.3)
	cfg := fd.DefaultDistConfig(rel)
	set, err := fd.NewSet([]*fd.FD{
		fd.MustParse(rel.Schema, "City->State"),
		fd.MustParse(rel.Schema, "State->Country"),
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("test")
	res, err := ExactM(rel, set, cfg, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after repair = %d, want 0", n)
	}
	got := phasesOf(tr)
	if got[obs.PhaseGraphBuild] < 2 || got[obs.PhaseExpand] == 0 || got[obs.PhaseTargetSearch] == 0 {
		t.Fatalf("phases = %v, want >=2 graphbuild, >=1 expand, >=1 targetsearch", got)
	}
	if res.Stats["combinations"] == 0 {
		t.Fatalf("no combinations recorded: %v", res.Stats)
	}
}

// TestTraceClosesOnCancel fires the cancel mid-greedy-growth (via the
// test hook the determinism suite uses) and asserts the ErrCanceled
// partial leaves no dangling open spans.
func TestTraceClosesOnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := noisyPairRelation(t, rng, 150, 0.35)
	cfg := fd.DefaultDistConfig(rel)
	f := fd.MustParse(rel.Schema, "City->State")

	cancel := make(chan struct{})
	fired := false
	greedyStepHook = func(n int) {
		if n >= 1 && !fired {
			fired = true
			close(cancel)
		}
	}
	defer func() { greedyStepHook = nil }()

	tr := obs.NewTrace("test")
	_, err := GreedyS(rel, f, cfg, 0.3, Options{Cancel: cancel, Trace: tr})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after canceled repair = %d, want 0", n)
	}
}

// TestExactSTraceClosesOnCancel covers the exact path: a pre-fired cancel
// aborts the expansion immediately and every span still closes.
func TestExactSTraceClosesOnCancel(t *testing.T) {
	rel, set, cfg := pathInstance(t, 60)
	cancel := make(chan struct{})
	close(cancel)
	tr := obs.NewTrace("test")
	_, err := ExactS(rel, set.FDs[0], cfg, set.Tau[0], Options{Cancel: cancel, Trace: tr})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after canceled repair = %d, want 0", n)
	}
}

// TestTraceDoesNotChangeOutput is the read-only guarantee: the same input
// repaired with and without a trace attached produces bit-identical
// relations, costs, and stats. The greedygrow span's counters are serial
// counts of the joint growth, so traced runs at any GOMAXPROCS must report
// them identically.
func TestTraceDoesNotChangeOutput(t *testing.T) {
	rel, set := twoFDInstance(t)
	cfg := fd.DefaultDistConfig(rel)
	plain, err := GreedyM(rel, set, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh config for the traced run: a shared one would warm the distance
	// cache and shift hit/miss stats for reasons unrelated to tracing.
	traced, err := GreedyM(rel, set, fd.DefaultDistConfig(rel), Options{Trace: obs.NewTrace("t")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Repaired.Tuples, traced.Repaired.Tuples) {
		t.Fatal("tracing changed the repaired relation")
	}
	if plain.Cost != traced.Cost {
		t.Fatalf("tracing changed cost: %v != %v", plain.Cost, traced.Cost)
	}
	if !reflect.DeepEqual(plain.Stats, traced.Stats) {
		t.Fatalf("tracing changed stats: %v != %v", plain.Stats, traced.Stats)
	}

	// The pair above runs no violator search, so the counters are checked
	// on a HOSP draw, where both are nonzero.
	clean := gen.HOSP{Seed: 1}.Generate(200)
	fds := gen.HOSPFDs(clean.Schema)
	hosp, _ := gen.Inject(clean, fds, 0.1, 2)
	hset, err := fd.NewSet(fds, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first map[string]int64
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1, 2} {
		runtime.GOMAXPROCS(procs)
		hcfg, err := fd.NewDistConfig(hosp, 0.7, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("t")
		if _, err := GreedyM(hosp, hset, hcfg, Options{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		grow := make(map[string]int64)
		for _, s := range tr.Summaries() {
			if s.Phase == obs.PhaseGreedyGrow {
				for _, a := range s.Attrs {
					grow[a.Key] += a.Value
				}
			}
		}
		if first == nil {
			if grow["syncEvals"] == 0 || grow["violatorSearches"] == 0 {
				t.Fatalf("greedygrow counters %v: want nonzero syncEvals and violatorSearches", grow)
			}
			first = grow
		} else if !reflect.DeepEqual(first, grow) {
			t.Fatalf("greedygrow counters %v at GOMAXPROCS=%d differ from the first run's %v", grow, procs, first)
		}
	}
}

// twoFDInstance is the noisy City/State/Country relation with its two
// chained FDs that the Stats-equality tests repair.
func twoFDInstance(t *testing.T) (*dataset.Relation, *fd.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	rel := noisyTripleRelation(t, rng, 80, 0.3)
	set, err := fd.NewSet([]*fd.FD{
		fd.MustParse(rel.Schema, "City->State"),
		fd.MustParse(rel.Schema, "State->Country"),
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return rel, set
}

// TestCacheStatsScheduleIndependent repairs the same input with fresh
// configs under eight concurrent graph-build workers, then HOSP draws at
// GOMAXPROCS 1, 2 and 4: the distance-cache counters in Stats must not
// depend on which worker reaches a value pair first, nor on how many
// goroutines search targets, so every run reports the same map. GreedyM's
// plan has more than 2×4 repairing groups, so its target searches fan out
// on 2 and 4 workers; ExactM at Parallel 0 evaluates each combination's
// plan on one goroutine, whatever GOMAXPROCS is.
func TestCacheStatsScheduleIndependent(t *testing.T) {
	rel, set := twoFDInstance(t)
	var first map[string]int
	for run := 0; run < 20; run++ {
		res, err := GreedyM(rel, set, fd.DefaultDistConfig(rel), Options{Graph: vgraph.Options{Workers: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Stats
		} else if !reflect.DeepEqual(first, res.Stats) {
			t.Fatalf("run %d stats %v differ from run 0 %v", run, res.Stats, first)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		run  func(*dataset.Relation, *fd.Set, *fd.DistConfig, Options) (*Result, error)
		n    int
		fds  int // 0: all nine
		rate float64
	}{
		{"GreedyM", GreedyM, 400, 0, 0.06},
		{"ExactM", ExactM, 120, 4, 0.03},
	} {
		clean := gen.HOSP{Seed: 17}.Generate(c.n)
		fds := gen.HOSPFDs(clean.Schema)
		if c.fds > 0 {
			fds = fds[:c.fds]
		}
		dirty, _ := gen.Inject(clean, fds, c.rate, 18)
		hset, err := fd.NewSet(fds, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		var first map[string]int
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			cfg, err := fd.NewDistConfig(dirty, 0.7, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.run(dirty, hset, cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Stats
				if c.name == "GreedyM" {
					if n := repairedGroups(dirty, hset, res); n < 2*4 {
						t.Fatalf("GreedyM repaired %d tuple groups of its largest component; the planner needs 8 to search on 4 workers", n)
					}
				}
			} else if !reflect.DeepEqual(first, res.Stats) {
				t.Fatalf("%s at GOMAXPROCS=%d: stats %v differ from GOMAXPROCS=1 %v", c.name, procs, res.Stats, first)
			}
		}
	}
}

// repairedGroups counts the tuple groups of the set's largest component
// (rows sharing a projection over its attributes) that res changed: each
// one needed a target search, so the count bounds the planner's repairing
// groups from below.
func repairedGroups(rel *dataset.Relation, set *fd.Set, res *Result) int {
	var comp []int
	for _, c := range set.Components() {
		if len(c) > len(comp) {
			comp = c
		}
	}
	attrs := fd.UnionAttrs(set.Subset(comp).FDs)
	groups := make(map[string]bool)
	for _, c := range res.Changed {
		if slices.Contains(attrs, c.Col) {
			groups[rel.Tuples[c.Row].Key(attrs)] = true
		}
	}
	return len(groups)
}

// TestMetricsFlowFromRepair checks the registry view: one greedy run must
// bump graph-build and set-size counters in obs.Default() (the Stats map
// is flushed by finish, the graph totals by vgraph.Build).
func TestMetricsFlowFromRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rel := noisyPairRelation(t, rng, 100, 0.3)
	cfg := fd.DefaultDistConfig(rel)
	f := fd.MustParse(rel.Schema, "City->State")

	builds := obs.Pipeline.GraphBuilds.Value()
	setSize := obs.Pipeline.GreedySetSize.Value()
	res, err := GreedyS(rel, f, cfg, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Pipeline.GraphBuilds.Value() - builds; d != 1 {
		t.Fatalf("graph-build counter delta = %d, want 1", d)
	}
	if d := int(obs.Pipeline.GreedySetSize.Value() - setSize); d != res.Stats["setSize"] {
		t.Fatalf("set-size counter delta = %d, want %d", d, res.Stats["setSize"])
	}
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ftrepair_phase_duration_seconds_bucket",
		`phase="greedygrow"`,
		"ftrepair_graph_edges_built_total",
		`ftrepair_repairs_total{algorithm="GreedyS"}`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
