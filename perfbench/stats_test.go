package main

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if _, ok := tailPercentile(xs, 0.95); ok {
		t.Fatal("p95 of 199 samples has 9 beyond it and must not be reported")
	}
	xs = append(xs, 200)
	v, ok := tailPercentile(xs, 0.95)
	if !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v (reportable %v), want 190 with 10 beyond", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.5); ok {
		t.Fatal("no samples, nothing to report")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestMedianOfMediansIgnoresTheGapBetweenGroups(t *testing.T) {
	// Three groups of three ops: the pooled median is the slow op of the
	// 100 ms group until one noisy op of the fast group moves it across
	// the gap to 200 ms. Per-group medians do not move.
	groups := [][]float64{{50, 51, 52}, {100, 101, 102}, {200, 201, 202}}
	want := geomean([]float64{51, 101, 201})
	if m := medianOfMedians(groups); !near(m, want) {
		t.Fatalf("medianOfMedians = %v, want %v", m, want)
	}
	groups[0][2] = 150
	if m := medianOfMedians(groups); !near(m, want) {
		t.Fatalf("one noisy op moved medianOfMedians to %v, want %v", m, want)
	}
	if m := geomean([]float64{2, 8}); !near(m, 4) {
		t.Fatalf("geomean(2, 8) = %v, want 4", m)
	}
	if m := geomean([]float64{2, 0}); m != 0 {
		t.Fatalf("geomean with a zero = %v, want 0", m)
	}
	if m := medianOfMedians([][]float64{nil, {3}}); !near(m, 3) {
		t.Fatalf("an empty group must be skipped, got %v", m)
	}
}

func TestSelfTimesCountsOverlappingParallelSpansOnce(t *testing.T) {
	spans := []phaseSpan{
		// Two per-FD graph builds running in parallel on two cores.
		{"graphbuild", 0, interval{0, 10}},
		{"graphbuild", 0, interval{5, 15}},
		// Target search with a nested distance phase.
		{"targetsearch", 0, interval{15, 30}},
		{"distance", 1, interval{20, 25}},
	}
	self, un := selfTimes(spans, 0, 40)
	want := map[string]float64{"graphbuild": 15, "targetsearch": 10, "distance": 5}
	for k, v := range want {
		if !near(self[k], v) {
			t.Errorf("%s self = %v, want %v", k, self[k], v)
		}
	}
	if !near(un, 10) {
		t.Errorf("unattributed = %v, want 10", un)
	}
	total := un
	for _, v := range self {
		total += v
	}
	if !near(total, 40) {
		t.Errorf("self times + unattributed = %v, want the root's 40", total)
	}
}

func TestSelfTimesParallelChildrenUnderParallelParents(t *testing.T) {
	// Two workers each search targets; their distance children overlap.
	spans := []phaseSpan{
		{"targetsearch", 0, interval{0, 20}},
		{"targetsearch", 0, interval{0, 20}},
		{"distance", 1, interval{2, 12}},
		{"distance", 1, interval{8, 18}},
	}
	self, un := selfTimes(spans, 0, 20)
	if !near(self["distance"], 16) || !near(self["targetsearch"], 4) || !near(un, 0) {
		t.Fatalf("self = %v, unattributed %v; want distance 16, targetsearch 4, 0", self, un)
	}
}

func TestUnattributedNeverNegative(t *testing.T) {
	// Spans that overrun the root (clock skew between the benchmark's span
	// and the program's) are clipped to it.
	spans := []phaseSpan{
		{"greedygrow", 0, interval{-5, 8}},
		{"apply", 0, interval{7, 50}},
	}
	self, un := selfTimes(spans, 0, 10)
	if un < 0 || !near(un, 0) {
		t.Fatalf("unattributed = %v, want 0", un)
	}
	if !near(self["greedygrow"]+self["apply"], 10) {
		t.Fatalf("self = %v, want the 10 ms root split between them", self)
	}
	if _, un := selfTimes(spans, 10, 10); un != 0 {
		t.Fatalf("empty root: unattributed = %v", un)
	}
	if _, un := selfTimes(nil, 0, 3); !near(un, 3) {
		t.Fatalf("no spans: unattributed = %v, want 3", un)
	}
}

func TestLatencyCountsFromDueWhenGeneratorIsLate(t *testing.T) {
	due := time.Unix(1000, 0)
	op := opTimes{due: due, sent: due.Add(30 * time.Millisecond), done: due.Add(42 * time.Millisecond), ok: true}
	if !near(op.latencyMs(), 42) {
		t.Fatalf("latency = %v ms, want 42 (from due, not from the late send)", op.latencyMs())
	}
	if !near(op.lateMs(), 30) {
		t.Fatalf("lateness = %v ms, want 30", op.lateMs())
	}
}

// phaseOps builds n ops due every 10 ms whose service time grows by growMs
// per op (0: the system keeps up).
func phaseOps(n int, serviceMs, growMs float64) []opTimes {
	t0 := time.Unix(2000, 0)
	ops := make([]opTimes, n)
	for i := range ops {
		due := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		lat := serviceMs + growMs*float64(i)
		ops[i] = opTimes{due: due, sent: due, done: due.Add(time.Duration(lat * float64(time.Millisecond))), ok: true}
	}
	return ops
}

func TestBacklogGrowing(t *testing.T) {
	if backlogGrowing(backlogOf(phaseOps(100, 35, 0)), 100) {
		t.Error("a steady backlog of about 3 ops was judged growing")
	}
	if !backlogGrowing(backlogOf(phaseOps(100, 5, 2)), 100) {
		t.Error("service falling 2 ms further behind per op was not judged growing")
	}
	r := evalPhase(100, 1, phaseOps(100, 5, 2), 1000)
	if r.pass || !r.growing {
		t.Errorf("growing phase passed: %+v", r)
	}
	r = evalPhase(100, 1, phaseOps(100, 35, 0), 1000)
	if !r.pass {
		t.Errorf("steady phase failed: %+v", r)
	}
	if r = evalPhase(100, 1, phaseOps(100, 35, 0), 30); r.pass {
		t.Errorf("phase over the latency limit passed: %+v", r)
	}
}

func TestAchievedRateCountsOnlyTheWindow(t *testing.T) {
	// 100 ops due every 10 ms over a 1 s phase, each taking 5 ms, then two
	// more sent after the phase to release a stuck op.
	ops := phaseOps(100, 5, 0)
	late := ops[99].due.Add(500 * time.Millisecond)
	ops = append(ops, opTimes{due: late, sent: late, done: late.Add(time.Millisecond), ok: true},
		opTimes{due: late, sent: late, done: late.Add(2 * time.Millisecond), ok: true})
	if r := evalPhase(100, 1, ops, 1000); !near(r.achieved, 100) {
		t.Fatalf("achieved = %v/s, want 100 (ops after the window do not count)", r.achieved)
	}
}

func TestMaxRateFallsBackToTheBaseRate(t *testing.T) {
	base := phaseResult{rate: 20, achieved: 19.9, pass: true}
	sat := phaseResult{achieved: 61.5, pass: true}
	if got := maxRate(base, sat); got != 61.5 {
		t.Fatalf("maxRate = %v, want the closed loop's 61.5", got)
	}
	sat.pass = false
	if got := maxRate(base, sat); got != 19.9 {
		t.Fatalf("closed loop over the limit: maxRate = %v, want the base rate's 19.9", got)
	}
	base.pass = false
	if got := maxRate(base, sat); got != 0 {
		t.Fatalf("nothing met the limit: maxRate = %v, want 0", got)
	}
}

func TestParseExposition(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nftrepair_ledger_events_total 42\n" +
		"ftrepair_phase_duration_seconds_sum{phase=\"distance\"} 0.25\n"
	m, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["ftrepair_ledger_events_total"] != 42 || m[`ftrepair_phase_duration_seconds_sum{phase="distance"}`] != 0.25 {
		t.Fatalf("parsed %v", m)
	}
}

func TestRunLoopRunsEveryActionAndFollowUp(t *testing.T) {
	var ran atomic.Int64
	start := time.Now()
	var acts []*action
	for i := 0; i < 50; i++ {
		at := start.Add(time.Duration(i) * 100 * time.Microsecond)
		acts = append(acts, &action{at: at, run: func() []*action {
			ran.Add(1)
			return []*action{{at: time.Now().Add(time.Millisecond), run: func() []*action {
				ran.Add(1)
				return nil
			}}}
		}})
	}
	runLoop(2, acts)
	if n := ran.Load(); n != 100 {
		t.Fatalf("ran %d actions, want 100", n)
	}
}
