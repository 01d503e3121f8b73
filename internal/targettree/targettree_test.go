package targettree_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/targettree"
)

// paperLevels returns the Fig-4 inputs: the chosen independent sets of phi2
// and phi3 over the Citizens schema (City=3, Street=4, District=5, State=6).
func paperLevels() []targettree.Level {
	return []targettree.Level{
		{ // phi3: City,Street -> District
			Attrs: []int{3, 4, 5},
			Patterns: [][]string{
				{"New York", "Main", "Manhattan"},
				{"New York", "Western", "Queens"},
				{"Boston", "Main", "Financial"},
				{"Boston", "Arlingto", "Brookside"},
			},
		},
		{ // phi2: City -> State
			Attrs: []int{3, 6},
			Patterns: [][]string{
				{"New York", "NY"},
				{"Boston", "MA"},
			},
		},
	}
}

// distFunc scores one attribute repair from strings: the distance between
// the query's value a and a candidate value b at schema column col.
type distFunc func(col int, a, b string) float64

// scores adapts a string distance to the search's dense score vector for
// the query t: one entry per tree value id.
func scores(tr *targettree.Tree, t dataset.Tuple, dist distFunc) []float64 {
	out := make([]float64, tr.NumValues())
	for id := range out {
		col, v := tr.Value(int32(id))
		out[id] = dist(col, t[col], v)
	}
	return out
}

func citizensDist() distFunc {
	dirty, _ := gen.Citizens()
	cfg := fd.DefaultDistConfig(dirty)
	return cfg.AttrDist
}

func TestBuildPaperTree(t *testing.T) {
	tr, err := targettree.Build(paperLevels())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Targets != 4 {
		t.Fatalf("targets = %d, want 4", tr.Targets)
	}
	if got := tr.Cols(); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Fatalf("cols = %v", got)
	}
	all := tr.All()
	if len(all) != 4 {
		t.Fatalf("All = %d targets", len(all))
	}
	// Every target joins a phi2 pattern with a compatible phi3 pattern.
	var rendered []string
	for _, tg := range all {
		rendered = append(rendered, tg.Vals[0]+"|"+tg.Vals[1]+"|"+tg.Vals[2]+"|"+tg.Vals[3])
	}
	sort.Strings(rendered)
	want := []string{
		"Boston|Arlingto|Brookside|MA",
		"Boston|Main|Financial|MA",
		"New York|Main|Manhattan|NY",
		"New York|Western|Queens|NY",
	}
	if !reflect.DeepEqual(rendered, want) {
		t.Fatalf("targets = %v", rendered)
	}
}

func TestNearestExample14(t *testing.T) {
	// Example 14: tuple t4 = (New York, Western, Queens, MA) resolves to
	// (New York, Western, Queens, NY): only State changes.
	tr, err := targettree.Build(paperLevels())
	if err != nil {
		t.Fatal(err)
	}
	dirty, _ := gen.Citizens()
	dist := citizensDist()
	t4 := dirty.Tuples[3]
	tg, cost, visited := tr.Nearest(scores(tr, t4, dist), nil)
	if tg.Vals[0] != "New York" || tg.Vals[1] != "Western" || tg.Vals[2] != "Queens" || tg.Vals[3] != "NY" {
		t.Fatalf("nearest = %v", tg.Vals)
	}
	// Cost: only State differs, dist(MA, NY) = 1 (two edits over two runes).
	if math.Abs(cost-1) > 1e-9 {
		t.Fatalf("cost = %v", cost)
	}
	if visited <= 0 {
		t.Fatal("no nodes visited")
	}
	// t5 = (Boston, Main, Manhattan, NY) resolves to the Manhattan target:
	// repairing City is cheapest and fixes both FDs (Example 3).
	t5 := dirty.Tuples[4]
	tg5, _, _ := tr.Nearest(scores(tr, t5, dist), nil)
	if tg5.Vals[0] != "New York" || tg5.Vals[2] != "Manhattan" {
		t.Fatalf("t5 nearest = %v", tg5.Vals)
	}
}

func TestNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := []string{"alpha", "beta", "gamma", "delta", "omega"}
	dist := func(col int, a, b string) float64 {
		if a == b {
			return 0
		}
		// Deterministic pseudo-distance independent of call order.
		h := 0
		for _, r := range a + "|" + b {
			h = h*31 + int(r)
		}
		if h < 0 {
			h = -h
		}
		return float64(h%100)/100 + 0.01
	}
	for trial := 0; trial < 25; trial++ {
		// Random levels over columns {0,1},{1,2},{2,3}: chained overlaps.
		mk := func(attrs []int, n int) targettree.Level {
			l := targettree.Level{Attrs: attrs}
			seen := map[string]bool{}
			for i := 0; i < n; i++ {
				p := make([]string, len(attrs))
				for j := range p {
					p[j] = vals[rng.Intn(len(vals))]
				}
				k := p[0] + "," + p[len(p)-1]
				if seen[k] {
					continue
				}
				seen[k] = true
				l.Patterns = append(l.Patterns, p)
			}
			return l
		}
		levels := []targettree.Level{
			mk([]int{0, 1}, 4),
			mk([]int{1, 2}, 5),
			mk([]int{2, 3}, 4),
		}
		tr, err := targettree.Build(levels)
		if err != nil {
			continue // empty join is a legal outcome of random inputs
		}
		tuple := dataset.Tuple{
			vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
			vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
		}
		tgFast, costFast, visitedFast := tr.Nearest(scores(tr, tuple, dist), nil)
		tgSlow, costSlow, scanned := tr.NearestScan(scores(tr, tuple, dist), nil)
		if math.Abs(costFast-costSlow) > 1e-9 {
			t.Fatalf("trial %d: Nearest = %v (%v), scan = %v (%v)", trial, costFast, tgFast.Vals, costSlow, tgSlow.Vals)
		}
		if visitedFast <= 0 || scanned != tr.Targets {
			t.Fatalf("trial %d: counters visited=%d scanned=%d targets=%d", trial, visitedFast, scanned, tr.Targets)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := targettree.Build(nil); err == nil {
		t.Fatal("no levels accepted")
	}
	if _, err := targettree.Build([]targettree.Level{{Attrs: nil}}); err == nil {
		t.Fatal("empty attrs accepted")
	}
	if _, err := targettree.Build([]targettree.Level{{Attrs: []int{0}, Patterns: [][]string{{"a", "b"}}}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// The pattern binds column 0 to both "a" and "b": no target can hold it.
	if _, err := targettree.Build([]targettree.Level{{Attrs: []int{0, 0}, Patterns: [][]string{{"a", "b"}}}}); err == nil {
		t.Fatal("repeated column accepted")
	}
	// Incompatible levels: shared column with disjoint values.
	_, err := targettree.Build([]targettree.Level{
		{Attrs: []int{0}, Patterns: [][]string{{"x"}}},
		{Attrs: []int{0, 1}, Patterns: [][]string{{"y", "z"}}},
	})
	if err == nil {
		t.Fatal("empty join accepted")
	}
}

func TestDeadBranchPruned(t *testing.T) {
	// Level 1 pattern "b" joins level 2, but then dies at level 3: the
	// (b,?) branch must be pruned and only targets through "a" remain.
	levels := []targettree.Level{
		{Attrs: []int{0}, Patterns: [][]string{{"a"}, {"b"}}},
		{Attrs: []int{0, 1}, Patterns: [][]string{{"a", "1"}, {"b", "2"}}},
		{Attrs: []int{1, 2}, Patterns: [][]string{{"1", "x"}}},
	}
	tr, err := targettree.Build(levels)
	if err != nil {
		t.Fatal(err)
	}
	all := tr.All()
	if len(all) != 1 {
		t.Fatalf("targets = %v", all)
	}
	if all[0].Vals[0] != "a" || all[0].Vals[2] != "x" {
		t.Fatalf("target = %v", all[0].Vals)
	}
	// Nearest on the pruned tree still works.
	dist := func(col int, a, b string) float64 {
		if a == b {
			return 0
		}
		return 1
	}
	_, cost, _ := tr.Nearest(scores(tr, dataset.Tuple{"a", "1", "x"}, dist), nil)
	if cost != 0 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestSingleLevelTree(t *testing.T) {
	levels := []targettree.Level{
		{Attrs: []int{2, 5}, Patterns: [][]string{{"p", "q"}, {"r", "s"}}},
	}
	tr, err := targettree.Build(levels)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Targets != 2 {
		t.Fatalf("targets = %d", tr.Targets)
	}
	dist := func(col int, a, b string) float64 {
		if a == b {
			return 0
		}
		return 1
	}
	tg, cost, _ := tr.Nearest(scores(tr, dataset.Tuple{"", "", "r", "", "", "zzz"}, dist), nil)
	if tg.Vals[0] != "r" || cost != 1 {
		t.Fatalf("nearest = %v cost %v", tg.Vals, cost)
	}
}

func TestNearestCanceled(t *testing.T) {
	tr, err := targettree.Build(paperLevels())
	if err != nil {
		t.Fatal(err)
	}
	dirty, _ := gen.Citizens()
	dist := citizensDist()
	cancel := make(chan struct{})
	close(cancel)
	// A fired channel stops the search before any node is dequeued, so no
	// incumbent exists and the cost is +Inf.
	if _, cost, _ := tr.Nearest(scores(tr, dirty.Tuples[3], dist), cancel); !math.IsInf(cost, 1) {
		t.Fatalf("canceled Nearest returned cost %v, want +Inf", cost)
	}
	if _, cost, _ := tr.NearestScan(scores(tr, dirty.Tuples[3], dist), cancel); !math.IsInf(cost, 1) {
		t.Fatalf("canceled NearestScan returned cost %v, want +Inf", cost)
	}
}

// randomLevels draws one level set for the differential test: 1–6 levels
// over at most 6 columns and a 2–4-letter alphabet, so columns are shared
// or not at random, duplicate patterns and dead branches are common, some
// joins are empty, and a few inputs are malformed (a repeated column, a
// level without attributes, a pattern of the wrong arity).
func randomLevels(rng *rand.Rand) []targettree.Level {
	ncols := 1 + rng.Intn(6)
	alpha := "abcd"[:2+rng.Intn(3)]
	levels := make([]targettree.Level, 1+rng.Intn(6))
	for i := range levels {
		attrs := rng.Perm(ncols)[:1+rng.Intn(min(3, ncols))]
		switch rng.Intn(40) {
		case 0:
			attrs = append(attrs, attrs[0])
		case 1:
			attrs = nil
		}
		n := 1 + rng.Intn(5)
		if rng.Intn(20) == 0 {
			n = 0
		}
		l := targettree.Level{Attrs: attrs}
		for len(l.Patterns) < n {
			if len(l.Patterns) > 0 && rng.Intn(5) == 0 {
				l.Patterns = append(l.Patterns, l.Patterns[rng.Intn(len(l.Patterns))])
				continue
			}
			p := make([]string, len(attrs))
			for j := range p {
				p[j] = string(alpha[rng.Intn(len(alpha))])
			}
			if len(p) > 0 && rng.Intn(100) == 0 {
				p = p[1:]
			}
			l.Patterns = append(l.Patterns, p)
		}
		levels[i] = l
	}
	return levels
}

// tieDist scores in quarters, so many paths tie on f; fracDist scores in
// tenths, so float sums depend on their order.
func tieDist(col int, a, b string) float64 {
	if a == b {
		return 0
	}
	return float64(1+(int(a[0])+2*int(b[0])+col)%3) / 4
}

func fracDist(col int, a, b string) float64 {
	if a == b {
		return 0
	}
	return 0.1 * float64(1+(7*int(a[0])+3*int(b[0])+5*col)%9)
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// matchReference holds Build and Nearest to the nested-loop reference
// (reference_test.go) on one level set: the same error, the same counts
// and targets in order, and for each query the same target, cost bits and
// visit count. It also checks that ColumnIDs tiles the value ids. queries runs only when the levels build; matchReference
// reports whether they did.
func matchReference(t *testing.T, name string, levels []targettree.Level, dist distFunc, queries func() []dataset.Tuple) bool {
	t.Helper()
	ref, refErr := refBuild(levels)
	tr, err := targettree.Build(levels)
	if errString(err) != errString(refErr) {
		t.Fatalf("%s: Build error %q, reference %q (levels %v)", name, errString(err), errString(refErr), levels)
	}
	if err != nil {
		return false
	}
	if tr.Targets != ref.targets || tr.Explored != ref.explored || tr.Nodes != ref.nodes {
		t.Fatalf("%s: targets/explored/nodes = %d/%d/%d, reference %d/%d/%d",
			name, tr.Targets, tr.Explored, tr.Nodes, ref.targets, ref.explored, ref.nodes)
	}
	if got, want := tr.All(), ref.all(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: All = %v, reference %v", name, got, want)
	}
	// The column id ranges tile the ids in column order.
	next := int32(0)
	for i, col := range tr.Cols() {
		lo, hi := tr.ColumnIDs(i)
		if lo != next || hi <= lo {
			t.Fatalf("%s: column %d ids [%d, %d), want a non-empty range from %d", name, col, lo, hi, next)
		}
		for id := lo; id < hi; id++ {
			if c, _ := tr.Value(id); c != col {
				t.Fatalf("%s: id %d in column %d's range is a value of column %d", name, id, col, c)
			}
		}
		next = hi
	}
	if int(next) != tr.NumValues() {
		t.Fatalf("%s: column ranges end at %d of %d ids", name, next, tr.NumValues())
	}
	for _, tuple := range queries() {
		tg, cost, visited := tr.Nearest(scores(tr, tuple, dist), nil)
		rtg, rcost, rvisited := ref.nearest(tuple, dist)
		if !reflect.DeepEqual(tg, rtg) || math.Float64bits(cost) != math.Float64bits(rcost) || visited != rvisited {
			t.Fatalf("%s query %v: Nearest = %v %v %d, reference %v %v %d",
				name, tuple, tg.Vals, cost, visited, rtg.Vals, rcost, rvisited)
		}
	}
	return true
}

// TestBuildMatchesNestedLoop pins Build and Nearest to the nested-loop
// reference on random level sets, five random queries each.
func TestBuildMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	built := 0
	for trial := 0; trial < 3000; trial++ {
		dist := distFunc(tieDist)
		if trial%2 == 1 {
			dist = fracDist
		}
		queries := func() []dataset.Tuple {
			out := make([]dataset.Tuple, 5)
			for q := range out {
				out[q] = make(dataset.Tuple, 6)
				for c := range out[q] {
					out[q][c] = string("abcde"[rng.Intn(5)])
				}
			}
			return out
		}
		if matchReference(t, fmt.Sprintf("trial %d", trial), randomLevels(rng), dist, queries) {
			built++
		}
	}
	if built < 500 {
		t.Fatalf("only %d of 3000 random level sets built; the generator no longer exercises Nearest", built)
	}
}

// FuzzBuildMatchesNestedLoop decodes its input into up to 6 levels of up to
// 6 patterns over up to 6 columns and a 2–4-letter alphabet, so shared
// columns, duplicate patterns, dead branches, empty joins and repeated
// columns all arise, and holds Build and Nearest to the reference as
// TestBuildMatchesNestedLoop does, for one query taken from the input.
func FuzzBuildMatchesNestedLoop(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 16+8*i)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		h := next()
		ncols, letters := 1+h%6, 2+h/6%3
		levels := make([]targettree.Level, 1+h/18%6)
		for i := range levels {
			h := next()
			attrs := make([]int, 1+h%3)
			for j := range attrs {
				attrs[j] = next() % ncols
			}
			levels[i].Attrs = attrs
			for n := h / 3 % 7; n > 0; n-- {
				p := make([]string, len(attrs))
				for j := range p {
					p[j] = string(rune('a' + next()%letters))
				}
				levels[i].Patterns = append(levels[i].Patterns, p)
			}
		}
		dist := distFunc(tieDist)
		if next()%2 == 1 {
			dist = fracDist
		}
		query := make(dataset.Tuple, 6)
		for c := range query {
			query[c] = string(rune('a' + next()%5))
		}
		matchReference(t, "input", levels, dist, func() []dataset.Tuple { return []dataset.Tuple{query} })
	})
}

// TestNearestConcurrent checks that goroutines sharing one tree, one
// query's score vector and the pooled search heaps get the answers a
// sequential caller gets.
func TestNearestConcurrent(t *testing.T) {
	tr, err := targettree.Build(hospLevels(40))
	if err != nil {
		t.Fatal(err)
	}
	queries := hospQueries(tr, 64)
	type answer struct {
		vals    []string
		cost    uint64
		visited int
	}
	vecs := make([][]float64, len(queries))
	for i, q := range queries {
		vecs[i] = scores(tr, q, toyDist)
	}
	ask := func(i int) answer {
		tg, cost, visited := tr.Nearest(vecs[i], nil)
		return answer{tg.Vals, math.Float64bits(cost), visited}
	}
	want := make([]answer, len(queries))
	for i := range queries {
		want[i] = ask(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range queries {
				i := (k + 8*g) % len(queries)
				if got := ask(i); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d query %d: %v, sequential %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBuildCapCountsExploredPaths joins a triangle A(x,y)·B(y,z)·C(z,x) of
// 1,500-pattern levels with no target: A and B share their single y, and
// every C pattern agrees with A on x or with B on z but never both. Any
// two of the levels join into 2.25 M partial paths, over MaxNodes, so the
// join reaches the cap in whatever order it takes them. The cap counts
// paths tried, not kept, so Build fails — and keeps none of those paths
// in memory on the way.
func TestBuildCapCountsExploredPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("tries 2.1 M partial paths")
	}
	const n = 1500
	levels := []targettree.Level{{Attrs: []int{0, 1}}, {Attrs: []int{1, 2}}, {Attrs: []int{2, 0}}}
	for i := 0; i < n; i++ {
		levels[0].Patterns = append(levels[0].Patterns, []string{"x", "y"})
		levels[1].Patterns = append(levels[1].Patterns, []string{"y", "z"})
		levels[2].Patterns = append(levels[2].Patterns, []string{"z", "x'"}, []string{"z'", "x"})
	}
	if 1+n+n*n <= targettree.MaxNodes {
		t.Fatalf("%d partial paths no longer exceed MaxNodes = %d", 1+n+n*n, targettree.MaxNodes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := targettree.Build(levels)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Build error = %v, want the MaxNodes cap", err)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 100 {
		t.Fatalf("Build allocated %d times before the cap fired; it should keep no dead path", allocs)
	}
}
