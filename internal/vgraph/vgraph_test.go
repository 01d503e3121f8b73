package vgraph_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/vgraph"
)

func citizensGraph(t *testing.T, which int, tau float64, opts vgraph.Options) (*vgraph.Graph, *dataset.Relation) {
	t.Helper()
	dirty, _ := gen.Citizens()
	f := gen.CitizensFDs(dirty.Schema)[which]
	cfg := fd.DefaultDistConfig(dirty)
	return vgraph.Build(dirty, f, cfg, tau, opts), dirty
}

// vertexByPattern finds the vertex whose representative carries the given
// Education/Level pattern.
func vertexByPattern(g *vgraph.Graph, edu, level string) int {
	for i, v := range g.Vertices {
		if v.Rep[1] == edu && v.Rep[2] == level {
			return i
		}
	}
	return -1
}

func TestCitizensPhi1GraphShape(t *testing.T) {
	// Fig. 2: the graph of phi1 over Table 1 groups into 7 pattern
	// vertices forming two triangles plus the isolated (HS-grad,9). Under
	// our exact distance constants this shape appears at tau = 0.2; at the
	// paper's illustrative 0.35, cross-cluster pairs like
	// (Bachelors,3)-(Masters,4) (weighted dist 0.34) join too.
	g, _ := citizensGraph(t, 0, 0.2, vgraph.Options{})
	if len(g.Vertices) != 7 {
		t.Fatalf("vertices = %d, want 7", len(g.Vertices))
	}
	bach3 := vertexByPattern(g, "Bachelors", "3")
	bach1 := vertexByPattern(g, "Bachelors", "1")
	bachTypo := vertexByPattern(g, "Bachelers", "3")
	mast4 := vertexByPattern(g, "Masters", "4")
	mast3 := vertexByPattern(g, "Masters", "3")
	masTypo := vertexByPattern(g, "Masers", "4")
	hs := vertexByPattern(g, "HS-grad", "9")
	for _, v := range []int{bach3, bach1, bachTypo, mast4, mast3, masTypo, hs} {
		if v < 0 {
			t.Fatal("missing expected pattern vertex")
		}
	}
	wantEdges := [][2]int{
		{bach3, bach1}, {bach3, bachTypo}, {bach1, bachTypo},
		{mast4, mast3}, {mast4, masTypo}, {mast3, masTypo},
	}
	for _, e := range wantEdges {
		if _, ok := g.Edge(e[0], e[1]); !ok {
			t.Errorf("missing edge %v-%v (%v / %v)", e[0], e[1], g.Vertices[e[0]].Rep, g.Vertices[e[1]].Rep)
		}
	}
	if g.NumEdges() != len(wantEdges) {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), len(wantEdges))
	}
	if g.Degree(hs) != 0 {
		t.Fatalf("HS-grad degree = %d, want 0", g.Degree(hs))
	}
	// Grouping: (Bachelors,3) covers t1,t2,t3.
	if g.Vertices[bach3].Mult() != 3 {
		t.Fatalf("Mult((Bachelors,3)) = %d", g.Vertices[bach3].Mult())
	}
	// Edge weights are symmetric and equal the Eq-3 repair cost between
	// patterns: for (Masters,4)-(Masers,4), one edit over 7 runes plus no
	// Level difference.
	w1, _ := g.Edge(mast4, masTypo)
	w2, _ := g.Edge(masTypo, mast4)
	if w1 != w2 {
		t.Fatal("asymmetric edge weight")
	}
	if math.Abs(w1-1.0/7) > 1e-9 {
		t.Fatalf("weight (Masters,4)-(Masers,4) = %v, want %v", w1, 1.0/7)
	}
	if pd := g.PatternDist(mast4, masTypo); math.Abs(pd-w1) > 1e-9 {
		t.Fatalf("PatternDist = %v, want %v", pd, w1)
	}
}

func TestRepairCostScalesByMultiplicity(t *testing.T) {
	g, _ := citizensGraph(t, 0, 0.2, vgraph.Options{})
	bach3 := vertexByPattern(g, "Bachelors", "3")
	bach1 := vertexByPattern(g, "Bachelors", "1")
	w, _ := g.Edge(bach3, bach1)
	// Repairing the 3 tuples of (Bachelors,3) into (Bachelors,1) costs 3w;
	// the reverse costs 1w.
	c1, ok1 := g.RepairCost(bach3, bach1)
	c2, ok2 := g.RepairCost(bach1, bach3)
	if !ok1 || !ok2 {
		t.Fatal("RepairCost missing edge")
	}
	if math.Abs(c1-3*w) > 1e-9 || math.Abs(c2-w) > 1e-9 {
		t.Fatalf("RepairCost = %v/%v, want %v/%v", c1, c2, 3*w, w)
	}
	if _, ok := g.RepairCost(bach3, vertexByPattern(g, "HS-grad", "9")); ok {
		t.Fatal("RepairCost invented an edge")
	}
}

func TestComponents(t *testing.T) {
	g, _ := citizensGraph(t, 0, 0.2, vgraph.Options{})
	comps := g.Components()
	if len(comps) != 3 { // two triangles + isolated HS-grad
		t.Fatalf("components = %d: %v", len(comps), comps)
	}
	sizes := []int{len(comps[0]), len(comps[1]), len(comps[2])}
	total := sizes[0] + sizes[1] + sizes[2]
	if total != 7 {
		t.Fatalf("component sizes = %v", sizes)
	}
}

func TestOrderByFrequency(t *testing.T) {
	g, _ := citizensGraph(t, 0, 0.2, vgraph.Options{})
	order := g.OrderByFrequency()
	if len(order) != len(g.Vertices) {
		t.Fatalf("order length = %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if g.Vertices[order[i-1]].Mult() < g.Vertices[order[i]].Mult() {
			t.Fatalf("order not by descending multiplicity at %d", i)
		}
	}
	if g.Vertices[order[0]].Rep[1] != "Bachelors" || g.Vertices[order[0]].Rep[2] != "3" {
		t.Fatalf("most frequent pattern = %v", g.Vertices[order[0]].Rep)
	}
}

func TestPhi2CapturesT8Typo(t *testing.T) {
	// Example 3: (Boton, MA) must be adjacent to (Boston, MA) in phi2's
	// graph even though it has no classic violation.
	g, _ := citizensGraph(t, 1, 0.35, vgraph.Options{})
	var boton, boston int = -1, -1
	for i, v := range g.Vertices {
		switch {
		case v.Rep[3] == "Boton":
			boton = i
		case v.Rep[3] == "Boston" && v.Rep[6] == "MA":
			boston = i
		}
	}
	if boton < 0 || boston < 0 {
		t.Fatal("missing pattern vertices")
	}
	if _, ok := g.Edge(boton, boston); !ok {
		t.Fatal("(Boton,MA)-(Boston,MA) edge missing")
	}
}

func graphsEqual(a, b *vgraph.Graph) error {
	if len(a.Vertices) != len(b.Vertices) {
		return fmt.Errorf("vertex counts differ: %d vs %d", len(a.Vertices), len(b.Vertices))
	}
	for i := range a.Vertices {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			return fmt.Errorf("vertex %d degree differs: %d vs %d", i, len(na), len(nb))
		}
		for j := range na {
			if na[j].To != nb[j].To || math.Abs(na[j].W-nb[j].W) > 1e-9 {
				return fmt.Errorf("vertex %d edge %d differs: %+v vs %+v", i, j, na[j], nb[j])
			}
		}
	}
	return nil
}

func TestIndexedMatchesAllPairs(t *testing.T) {
	// The q-gram-indexed construction must produce exactly the graph the
	// naive all-pairs construction does, across random noisy relations.
	rng := rand.New(rand.NewSource(42))
	cities := []string{"Boston", "New York", "Chicago", "Seattle", "Denver", "Austin"}
	states := []string{"MA", "NY", "IL", "WA", "CO", "TX"}
	for trial := 0; trial < 20; trial++ {
		schema := dataset.Strings("City", "State")
		rel := dataset.NewRelation(schema)
		for i := 0; i < 60; i++ {
			k := rng.Intn(len(cities))
			city, state := cities[k], states[k]
			if rng.Intn(4) == 0 { // typo in city
				b := []byte(city)
				b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
				city = string(b)
			}
			if rng.Intn(5) == 0 { // wrong state
				state = states[rng.Intn(len(states))]
			}
			if err := rel.Append(dataset.Tuple{city, state}); err != nil {
				t.Fatal(err)
			}
		}
		f := fd.MustParse(schema, "City->State")
		cfg := fd.DefaultDistConfig(rel)
		for _, tt := range []float64{0.1, 0.25, 0.4} {
			fast := vgraph.Build(rel, f, cfg, tt, vgraph.Options{})
			slow := vgraph.Build(rel, f, cfg, tt, vgraph.Options{DisableIndex: true})
			if err := graphsEqual(fast, slow); err != nil {
				t.Fatalf("trial %d tau %v: %v", trial, tt, err)
			}
		}
	}
}

func TestNumericOnlyFDFallsBackToAllPairs(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "A", Type: dataset.Numeric},
		dataset.Attribute{Name: "B", Type: dataset.Numeric},
	)
	rel, err := dataset.FromRows(schema, [][]string{
		{"1", "10"}, {"1.5", "10"}, {"100", "20"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := fd.MustParse(schema, "A->B")
	cfg := fd.DefaultDistConfig(rel)
	g := vgraph.Build(rel, f, cfg, 0.1, vgraph.Options{})
	// (1,10) and (1.5,10): dist = 0.5*(0.5/99) ~ 0.0025 <= 0.1.
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
}

func TestZeroWeightRHSOnlyDifference(t *testing.T) {
	// With w_l=1, w_r=0, tuples equal on X but different on Y are at
	// distance 0: a genuine FT-violation (this is how FT semantics
	// degrades to the classic semantics at tau=0).
	schema := dataset.Strings("X", "Y")
	rel, _ := dataset.FromRows(schema, [][]string{{"a", "1"}, {"a", "2"}})
	f := fd.MustParse(schema, "X->Y")
	cfg, err := fd.NewDistConfig(rel, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := vgraph.Build(rel, f, cfg, 0, vgraph.Options{})
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (classic violation at tau=0)", g.NumEdges())
	}
}

func TestEdgeLookupMissing(t *testing.T) {
	g, _ := citizensGraph(t, 0, 0.2, vgraph.Options{})
	if _, ok := g.Edge(0, 0); ok {
		t.Fatal("self edge reported")
	}
}

func TestDisableGrouping(t *testing.T) {
	dirty, _ := gen.Citizens()
	f := gen.CitizensFDs(dirty.Schema)[0]
	cfg := fd.DefaultDistConfig(dirty)
	g := vgraph.Build(dirty, f, cfg, 0.2, vgraph.Options{DisableGrouping: true})
	if len(g.Vertices) != dirty.Len() {
		t.Fatalf("ungrouped vertices = %d, want %d", len(g.Vertices), dirty.Len())
	}
	// No edge may connect vertices with equal projections, and every edge
	// of the grouped graph appears between the corresponding tuples.
	for u := range g.Vertices {
		for _, e := range g.Neighbors(u) {
			if f.ProjEqual(g.Vertices[u].Rep, g.Vertices[e.To].Rep) {
				t.Fatalf("edge between equal projections: %d-%d", u, e.To)
			}
		}
	}
	grouped := vgraph.Build(dirty, f, cfg, 0.2, vgraph.Options{})
	// Edge count relation: each grouped edge (u,v) expands to
	// mult(u)*mult(v) ungrouped edges.
	want := 0
	for u := range grouped.Vertices {
		for _, e := range grouped.Neighbors(u) {
			if e.To > u {
				want += grouped.Vertices[u].Mult() * grouped.Vertices[e.To].Mult()
			}
		}
	}
	if got := g.NumEdges(); got != want {
		t.Fatalf("ungrouped edges = %d, want %d", got, want)
	}
	// Both index paths agree in ungrouped mode too.
	slow := vgraph.Build(dirty, f, cfg, 0.2, vgraph.Options{DisableGrouping: true, DisableIndex: true})
	if err := graphsEqual(g, slow); err != nil {
		t.Fatal(err)
	}
}

func TestOSAFlavorGraph(t *testing.T) {
	// A transposed-typo pair is beyond the threshold under Levenshtein but
	// within it under OSA; the OSA graph must contain the edge and fall
	// back to all-pairs construction.
	schema := dataset.Strings("City", "State")
	rel, err := dataset.FromRows(schema, [][]string{
		{"boston", "MA"}, {"bsoton", "MA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := fd.MustParse(schema, "City->State")
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tau := 0.12 // 0.7*(1/6)=0.117 <= tau < 0.7*(2/6)=0.233
	lev := vgraph.Build(rel, f, cfg, tau, vgraph.Options{})
	if lev.NumEdges() != 0 {
		t.Fatalf("Levenshtein graph has %d edges, want 0", lev.NumEdges())
	}
	cfg.Edit = fd.EditOSA
	osa := vgraph.Build(rel, f, cfg, tau, vgraph.Options{})
	if osa.NumEdges() != 1 {
		t.Fatalf("OSA graph has %d edges, want 1", osa.NumEdges())
	}
}

// randomCityRelation builds a noisy City->State relation: city names with
// occasional typos, states occasionally shuffled.
func randomCityRelation(t *testing.T, rng *rand.Rand, rows int) *dataset.Relation {
	t.Helper()
	cities := []string{"Boston", "New York", "Chicago", "Seattle", "Denver", "Austin", "Portland", "Houston"}
	states := []string{"MA", "NY", "IL", "WA", "CO", "TX", "OR", "TX"}
	rel := dataset.NewRelation(dataset.Strings("City", "State"))
	for i := 0; i < rows; i++ {
		k := rng.Intn(len(cities))
		city, state := cities[k], states[k]
		if rng.Intn(4) == 0 {
			b := []byte(city)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			city = string(b)
		}
		if rng.Intn(5) == 0 {
			state = states[rng.Intn(len(states))]
		}
		if err := rel.Append(dataset.Tuple{city, state}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// graphsIdentical is the strict form of graphsEqual: adjacency, repair
// weights, and violation distances must match bit for bit, which is what
// Options.Workers promises for any worker count.
func graphsIdentical(a, b *vgraph.Graph) error {
	if len(a.Vertices) != len(b.Vertices) {
		return fmt.Errorf("vertex counts differ: %d vs %d", len(a.Vertices), len(b.Vertices))
	}
	if na, nb := a.NumEdges(), b.NumEdges(); na != nb {
		return fmt.Errorf("edge counts differ: %d vs %d", na, nb)
	}
	for i := range a.Vertices {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			return fmt.Errorf("vertex %d degree differs: %d vs %d", i, len(na), len(nb))
		}
		for j := range na {
			if na[j] != nb[j] { // To, W, and D all exact
				return fmt.Errorf("vertex %d edge %d differs: %+v vs %+v", i, j, na[j], nb[j])
			}
		}
	}
	return nil
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	// The parallel build must produce the identical graph — adjacency
	// order, weights, and violation distances bit for bit — for every
	// worker count, for both construction paths, with the distance cache
	// cold, warm, or absent, and across repeated runs.
	rng := rand.New(rand.NewSource(7))
	rel := randomCityRelation(t, rng, 150)
	f := fd.MustParse(rel.Schema, "City->State")
	tau := 0.3
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0), 13}

	shared := fd.DefaultDistConfig(rel)
	ref := vgraph.Build(rel, f, shared, tau, vgraph.Options{DisableIndex: true, Workers: 1})
	if ref.NumEdges() == 0 {
		t.Fatal("degenerate instance: no edges")
	}
	for _, disable := range []bool{false, true} {
		for _, w := range workerCounts {
			for rep := 0; rep < 2; rep++ {
				opts := vgraph.Options{DisableIndex: disable, Workers: w}
				// Warm shared cache.
				if err := graphsIdentical(ref, vgraph.Build(rel, f, shared, tau, opts)); err != nil {
					t.Fatalf("index=%v workers=%d rep=%d warm cache: %v", !disable, w, rep, err)
				}
				// Cold cache.
				if err := graphsIdentical(ref, vgraph.Build(rel, f, fd.DefaultDistConfig(rel), tau, opts)); err != nil {
					t.Fatalf("index=%v workers=%d rep=%d cold cache: %v", !disable, w, rep, err)
				}
				// No cache at all.
				bare := fd.DefaultDistConfig(rel)
				bare.Cache = nil
				if err := graphsIdentical(ref, vgraph.Build(rel, f, bare, tau, opts)); err != nil {
					t.Fatalf("index=%v workers=%d rep=%d no cache: %v", !disable, w, rep, err)
				}
			}
		}
	}
}

// recombined returns n tuples that each take one row's City, the probe
// value, and another row's State, keeping those whose projection is no
// vertex of g: the hypothetical patterns GreedyM's growth counts.
func recombined(t *testing.T, rng *rand.Rand, rel *dataset.Relation, g *vgraph.Graph, n int) []dataset.Tuple {
	t.Helper()
	var out []dataset.Tuple
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		tup := rel.Tuples[rng.Intn(rel.Len())].Clone()
		tup[1] = rel.Tuples[rng.Intn(rel.Len())][1]
		if _, ok := g.Lookup(tup); !ok {
			out = append(out, tup)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d recombined tuples are no vertex", len(out), n)
	}
	return out
}

func TestViolatorCountIndexMatchesScan(t *testing.T) {
	// On unseen tuples, the indexed graph answers ViolatorCount through the
	// q-gram probe index: the matches its build kept when the probe value
	// is a vertex's, a fresh search otherwise. The all-pairs graph scans
	// every vertex. The counts must agree exactly.
	rng := rand.New(rand.NewSource(11))
	rel := randomCityRelation(t, rng, 80)
	f := fd.MustParse(rel.Schema, "City->State")
	cfg := fd.DefaultDistConfig(rel)
	fast := vgraph.Build(rel, f, cfg, 0.3, vgraph.Options{})
	slow := vgraph.Build(rel, f, cfg, 0.3, vgraph.Options{DisableIndex: true})
	for i, tup := range recombined(t, rng, rel, fast, 50) {
		if got, want := fast.ViolatorCount(tup), slow.ViolatorCount(tup); got != want {
			t.Fatalf("recombined %d %v: indexed count %d, scan count %d", i, tup, got, want)
		}
	}
	for trial := 0; trial < 50; trial++ {
		tup := rel.Tuples[rng.Intn(rel.Len())].Clone()
		b := []byte(tup[0])
		for edits := 1 + rng.Intn(2); edits > 0; edits-- {
			switch rng.Intn(3) {
			case 0:
				b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			case 1:
				b = append(b, byte('a'+rng.Intn(26)))
			default:
				b = b[:len(b)-1]
			}
		}
		tup[0] = string(b)
		if got, want := fast.ViolatorCount(tup), slow.ViolatorCount(tup); got != want {
			t.Fatalf("trial %d %q: indexed count %d, scan count %d", trial, tup[0], got, want)
		}
	}
}

func TestBuildCancelReturnsPartialGraph(t *testing.T) {
	fired := make(chan struct{})
	close(fired)
	rng := rand.New(rand.NewSource(3))
	rel := randomCityRelation(t, rng, 200)
	f := fd.MustParse(rel.Schema, "City->State")
	cfg := fd.DefaultDistConfig(rel)
	full := vgraph.Build(rel, f, cfg, 0.3, vgraph.Options{})
	for _, opts := range []vgraph.Options{
		{Cancel: fired},
		{Cancel: fired, DisableIndex: true},
		{Cancel: fired, DisableIndex: true, Workers: 4},
	} {
		g := vgraph.Build(rel, f, cfg, 0.3, opts)
		if len(g.Vertices) != len(full.Vertices) {
			t.Fatalf("canceled build lost vertices: %d vs %d", len(g.Vertices), len(full.Vertices))
		}
		if g.NumEdges() > full.NumEdges() {
			t.Fatalf("canceled build invented edges: %d vs %d", g.NumEdges(), full.NumEdges())
		}
	}
	// The indexed path polls per probe value, so a pre-fired cancel stops
	// before any candidate verification.
	g := vgraph.Build(rel, f, cfg, 0.3, vgraph.Options{Cancel: fired, Workers: 1})
	if g.NumEdges() != 0 {
		t.Fatalf("pre-fired cancel still verified %d edges", g.NumEdges())
	}
	// It searched no probe value either, so ViolatorCount searches for
	// itself and still counts like the all-pairs scan.
	scan := vgraph.Build(rel, f, cfg, 0.3, vgraph.Options{DisableIndex: true})
	for i, tup := range recombined(t, rng, rel, full, 30) {
		if got, want := g.ViolatorCount(tup), scan.ViolatorCount(tup); got != want {
			t.Fatalf("recombined %d %v: canceled indexed build counts %d, scan %d", i, tup, got, want)
		}
	}
}

func TestLookupViolatorCountFTAdjacent(t *testing.T) {
	g, dirty := citizensGraph(t, 1, 0.35, vgraph.Options{}) // phi2 City->State
	// Lookup an existing tuple's pattern.
	v, ok := g.Lookup(dirty.Tuples[7]) // (Boton, MA)
	if !ok {
		t.Fatal("Lookup missed an existing pattern")
	}
	if g.Vertices[v].Rep[3] != "Boton" {
		t.Fatalf("Lookup returned %v", g.Vertices[v].Rep)
	}
	// ViolatorCount of an existing pattern equals its degree.
	if got, want := g.ViolatorCount(dirty.Tuples[7]), g.Degree(v); got != want {
		t.Fatalf("ViolatorCount = %d, degree = %d", got, want)
	}
	// A hypothetical pattern: one more typo of Boston.
	hyp := dirty.Tuples[6].Clone()
	hyp[3] = "Bostonn"
	if g.ViolatorCount(hyp) == 0 {
		t.Fatal("hypothetical typo has no violators")
	}
	if _, ok := g.Lookup(hyp); ok {
		t.Fatal("Lookup found a non-existent pattern")
	}
	// FTAdjacent for existing and hypothetical tuples.
	boston := -1
	for i, vv := range g.Vertices {
		if vv.Rep[3] == "Boston" && vv.Rep[6] == "MA" {
			boston = i
		}
	}
	if !g.FTAdjacent(dirty.Tuples[7], boston) {
		t.Fatal("(Boton,MA) not adjacent to (Boston,MA)")
	}
	if g.FTAdjacent(dirty.Tuples[6], boston) {
		t.Fatal("a tuple adjacent to its own pattern")
	}
	if !g.FTAdjacent(hyp, boston) {
		t.Fatal("hypothetical typo not adjacent to (Boston,MA)")
	}
}
