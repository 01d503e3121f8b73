package repair

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/vgraph"
)

// noisyPairRelation builds a City->State relation with tunable typo and
// shuffle noise. High noise yields dense violation graphs with many
// single-row typo vertices; repeated clean draws yield heavy
// multiplicities; the small alphabet of states makes exact score ties
// common — the shapes the heap/naive equivalence must survive.
func noisyPairRelation(t testing.TB, rng *rand.Rand, rows int, noise float64) *dataset.Relation {
	t.Helper()
	cities := []string{"Boston", "New York", "Chicago", "Seattle", "Denver", "Austin", "Portland", "Houston"}
	states := []string{"MA", "NY", "IL", "WA", "CO", "TX", "OR", "TX"}
	rel := dataset.NewRelation(dataset.Strings("City", "State"))
	for i := 0; i < rows; i++ {
		k := rng.Intn(len(cities))
		city, state := cities[k], states[k]
		if rng.Float64() < noise {
			b := []byte(city)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			city = string(b)
		}
		if rng.Float64() < noise/2 {
			state = states[rng.Intn(len(states))]
		}
		if err := rel.Append(dataset.Tuple{city, state}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// noisyTripleRelation adds a Country column depending on State, giving two
// FDs (City->State, State->Country) that share State — the overlap the
// joint greedy's syncDelta term exists for.
func noisyTripleRelation(t testing.TB, rng *rand.Rand, rows int, noise float64) *dataset.Relation {
	t.Helper()
	cities := []string{"Boston", "Toronto", "Chicago", "Vancouver", "Denver", "Montreal"}
	states := []string{"MA", "ON", "IL", "BC", "CO", "QC"}
	countries := []string{"USA", "Canada", "USA", "Canada", "USA", "Canada"}
	rel := dataset.NewRelation(dataset.Strings("City", "State", "Country"))
	for i := 0; i < rows; i++ {
		k := rng.Intn(len(cities))
		city, state, country := cities[k], states[k], countries[k]
		if rng.Float64() < noise {
			b := []byte(city)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			city = string(b)
		}
		if rng.Float64() < noise/2 {
			state = states[rng.Intn(len(states))]
		}
		if rng.Float64() < noise/3 {
			country = countries[rng.Intn(len(countries))]
		}
		if err := rel.Append(dataset.Tuple{city, state, country}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func sameIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGreedySetMatchesNaive grows sets on randomized graphs of varied
// density, multiplicity skew, and tie frequency, asserting the heap path
// picks the exact same vertices in the exact same order as the naive
// rescan.
func TestGreedySetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	taus := []float64{0.2, 0.3, 0.5}
	noises := []float64{0.1, 0.25, 0.5}
	edged := 0
	for trial := 0; trial < 30; trial++ {
		rows := 40 + rng.Intn(200)
		rel := noisyPairRelation(t, rng, rows, noises[trial%len(noises)])
		f := fd.MustParse(rel.Schema, "City->State")
		cfg := fd.DefaultDistConfig(rel)
		g := vgraph.Build(rel, f, cfg, taus[trial%len(taus)], vgraph.Options{})
		if g.NumEdges() > 0 {
			edged++
		}
		naive := greedySetNaive(g, nil)
		fast := greedySet(g, nil)
		if !sameIntSlice(naive, fast) {
			t.Fatalf("trial %d (%d rows, %d vertices, %d edges): heap set %v != naive set %v",
				trial, rows, len(g.Vertices), g.NumEdges(), fast, naive)
		}
	}
	if edged < 20 {
		t.Fatalf("only %d/30 trials had violation edges; fixtures too clean to exercise growth", edged)
	}
}

// TestGreedySetCancelParity cancels both growth paths after exactly k
// rounds (via greedyStepHook) and asserts the partial sets are identical
// for every k up to full growth.
func TestGreedySetCancelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := noisyPairRelation(t, rng, 180, 0.35)
	f := fd.MustParse(rel.Schema, "City->State")
	g := vgraph.Build(rel, f, fd.DefaultDistConfig(rel), 0.3, vgraph.Options{})
	full := greedySetNaive(g, nil)
	if len(full) < 3 {
		t.Fatalf("degenerate instance: full set has only %d vertices", len(full))
	}
	defer func() { greedyStepHook = nil }()
	grow := func(k int, f func(*vgraph.Graph, <-chan struct{}) []int) []int {
		cancel := make(chan struct{})
		fired := false
		greedyStepHook = func(added int) {
			if added >= k && !fired {
				fired = true
				close(cancel)
			}
		}
		return f(g, cancel)
	}
	for k := 0; k <= len(full); k++ {
		naive := grow(k, greedySetNaive)
		fast := grow(k, greedySet)
		if !sameIntSlice(naive, fast) {
			t.Fatalf("cancel after %d rounds: heap partial %v != naive partial %v", k, fast, naive)
		}
		if len(naive) != k {
			t.Fatalf("cancel after %d rounds: partial set has %d vertices", k, len(naive))
		}
	}
}

// jointGraphs builds the two overlapping per-FD violation graphs of a
// triple relation.
func jointGraphs(t testing.TB, rel *dataset.Relation, cfg *fd.DistConfig) []*vgraph.Graph {
	t.Helper()
	f1 := fd.MustParse(rel.Schema, "City->State")
	f2 := fd.MustParse(rel.Schema, "State->Country")
	return []*vgraph.Graph{
		vgraph.Build(rel, f1, cfg, 0.3, vgraph.Options{}),
		vgraph.Build(rel, f2, cfg, 0.3, vgraph.Options{}),
	}
}

// TestJointGreedySetsMatchNaive is the multi-FD equivalence: interleaved
// growth over overlapping FDs must pick identical (FD, vertex) sequences
// on heap and naive paths.
func TestJointGreedySetsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		rows := 50 + rng.Intn(150)
		rel := noisyTripleRelation(t, rng, rows, 0.15+0.3*float64(trial%3))
		cfg := fd.DefaultDistConfig(rel)
		graphs := jointGraphs(t, rel, cfg)
		naive := jointGreedySetsNaive(rel, graphs, nil).sets
		fast := jointGreedySets(rel, graphs, nil).sets
		if len(naive) != len(fast) {
			t.Fatalf("trial %d: set count %d != %d", trial, len(fast), len(naive))
		}
		for i := range naive {
			if !sameIntSlice(naive[i], fast[i]) {
				t.Fatalf("trial %d FD %d: heap set %v != naive set %v", trial, i, fast[i], naive[i])
			}
		}
	}
}

// TestJointGreedySetsCancelParity is the joint-growth analogue of
// TestGreedySetCancelParity: identical partial sets at every cancellation
// round.
func TestJointGreedySetsCancelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rel := noisyTripleRelation(t, rng, 160, 0.35)
	cfg := fd.DefaultDistConfig(rel)
	graphs := jointGraphs(t, rel, cfg)
	full := jointGreedySetsNaive(rel, graphs, nil).sets
	added := len(full[0]) + len(full[1])
	if added < 3 {
		t.Fatalf("degenerate instance: only %d joint additions", added)
	}
	defer func() { greedyStepHook = nil }()
	grow := func(k int, f func(*dataset.Relation, []*vgraph.Graph, <-chan struct{}) *jointState) [][]int {
		cancel := make(chan struct{})
		fired := false
		greedyStepHook = func(n int) {
			if n >= k && !fired {
				fired = true
				close(cancel)
			}
		}
		return f(rel, graphs, cancel).sets
	}
	for k := 0; k <= added; k++ {
		naive := grow(k, jointGreedySetsNaive)
		fast := grow(k, jointGreedySets)
		for i := range naive {
			if !sameIntSlice(naive[i], fast[i]) {
				t.Fatalf("cancel after %d additions, FD %d: heap partial %v != naive partial %v",
					k, i, fast[i], naive[i])
			}
		}
	}
}

// TestJointSyncMemoMatchesLiteral is the score-level check of the heap
// path's Eq-12 shortcuts (the single-target skip and the syncDelta memo):
// on the HOSP 7-FD component and the Tax 9-FD set, every candidate's
// initial tupleCost must equal the literal rule's bit for bit, both
// shortcuts must fire, and the grown sets must equal the naive
// reference's. Set equality alone would miss a wrong memo key, because
// the sync term only moves scores; the 3-column relation of
// TestJointGreedySetsMatchNaive rarely gives one doomed pattern rows that
// disagree on the overlapping FD's columns.
func TestJointSyncMemoMatchesLiteral(t *testing.T) {
	for _, workload := range []string{"hosp", "tax"} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s-%d", workload, seed)
			var clean *dataset.Relation
			var fds []*fd.FD
			if workload == "hosp" {
				clean = gen.HOSP{Seed: seed}.Generate(400)
				fds = gen.HOSPFDs(clean.Schema)
			} else {
				clean = gen.Tax{Seed: seed}.Generate(400)
				fds = gen.TaxFDs(clean.Schema)
			}
			rel, _ := gen.Inject(clean, fds, 0.1, seed+1)
			set, err := fd.NewSet(fds, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			graphs, err := ComponentGraphs(rel, set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			memo := newJointState(rel, graphs, true)
			literal := newJointState(rel, graphs, false)
			scores, differ := 0, 0
			for i, g := range graphs {
				for v := range g.Vertices {
					a, b := memo.tupleCost(i, v), literal.tupleCost(i, v)
					scores++
					if math.Float64bits(a) != math.Float64bits(b) {
						differ++
						if differ <= 3 {
							t.Errorf("%s: FD %d vertex %d: memoized score %v != literal %v", name, i, v, a, b)
						}
					}
				}
			}
			if differ > 0 {
				t.Fatalf("%s: %d of %d initial scores differ", name, differ, scores)
			}
			if memo.syncEvals == 0 || memo.singleTarget == 0 {
				t.Fatalf("%s: %d FDs, %d scores: %d memo fills, %d single-target skips; want both branches taken",
					name, len(graphs), scores, memo.syncEvals, memo.singleTarget)
			}
			t.Logf("%s: %d FDs, %d scores, %d memo fills, %d single-target skips",
				name, len(graphs), scores, memo.syncEvals, memo.singleTarget)
			naive := jointGreedySetsNaive(rel, graphs, nil).sets
			fast := jointGreedySets(rel, graphs, nil).sets
			for i := range naive {
				if !sameIntSlice(naive[i], fast[i]) {
					t.Fatalf("%s FD %d: heap set %v != naive set %v", name, i, fast[i], naive[i])
				}
			}
		}
	}
}

// TestPopClosureChains checks the eps-gap closure directly: entries chained
// within fd.Eps of each other are popped together even when the full chain
// spans more than one eps, and the closure stops at the first gap.
func TestPopClosureChains(t *testing.T) {
	var h scoreHeap
	scores := []float64{0, fd.Eps / 2, 1.4 * fd.Eps, 5 * fd.Eps, 5.5 * fd.Eps}
	for i, s := range scores {
		h.push(scoreEntry{score: s, id: i})
	}
	alive := func(scoreEntry) bool { return true }
	first := h.popClosure(alive)
	if len(first) != 3 {
		t.Fatalf("first closure popped %d entries, want 3 (chain 0, eps/2, 1.4eps)", len(first))
	}
	second := h.popClosure(alive)
	if len(second) != 2 {
		t.Fatalf("second closure popped %d entries, want 2 (5eps, 5.5eps)", len(second))
	}
	if h.popClosure(alive) != nil {
		t.Fatal("empty heap should yield nil closure")
	}
	// Stale entries hide live ones: a dead minimum must be skipped, not
	// anchor the closure.
	h.push(scoreEntry{score: 0, id: 0})
	h.push(scoreEntry{score: 10 * fd.Eps, id: 1})
	dead0 := func(e scoreEntry) bool { return e.id != 0 }
	got := h.popClosure(dead0)
	if len(got) != 1 || got[0].id != 1 {
		t.Fatalf("closure over stale minimum = %v, want only id 1", got)
	}
}
