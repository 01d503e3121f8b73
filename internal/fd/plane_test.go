package fd_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/strsim"
)

// TestPlaneDistancesBitwiseEqual drives the distance-plane path with the
// relation's own (interned) values and checks bitwise equality against an
// uncached config, for both unbounded and bounded queries, across the edit
// flavors the planes serve.
func TestPlaneDistancesBitwiseEqual(t *testing.T) {
	dirty, _ := gen.Citizens()
	f := gen.CitizensFDs(dirty.Schema)[1] // City -> State
	for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
		planed := fd.DefaultDistConfig(dirty)
		planed.Edit = flavor
		planed.AttachPlanes()
		bare := fd.DefaultDistConfig(dirty)
		bare.Edit = flavor
		bare.Cache = nil
		col := 3                          // City: a string attribute
		for pass := 0; pass < 2; pass++ { // second pass answers from the plane
			for _, t1 := range dirty.Tuples {
				for _, t2 := range dirty.Tuples {
					a, b := t1[col], t2[col]
					if got, want := planed.AttrDist(col, a, b), bare.AttrDist(col, a, b); got != want {
						t.Fatalf("flavor %d AttrDist(%q,%q) = %v, uncached %v", flavor, a, b, got, want)
					}
					for _, tau := range []float64{0, 0.05, 0.2, 0.5} {
						d1, ok1 := planed.DistWithin(f, tau, t1, t2)
						d2, ok2 := bare.DistWithin(f, tau, t1, t2)
						if ok1 != ok2 || d1 != d2 {
							t.Fatalf("flavor %d tau %v (%q,%q): plane (%v,%v) vs uncached (%v,%v)",
								flavor, tau, a, b, d1, ok1, d2, ok2)
						}
					}
				}
			}
		}
		if h, _ := planed.Cache.Counters(); h == 0 {
			t.Fatalf("flavor %d: no cache hits — plane never engaged", flavor)
		}
	}

	// An interned pair whose 2-gram intersection count (32999) does not fit
	// a Jaccard cell computes uncached: bitwise equal to JaccardDistance, a
	// miss per query, no cell filled. Jaccard only — the edit flavors' full
	// DP on 33000-rune values would dominate the test's run time.
	long := make([]rune, 33000)
	for i := range long {
		long[i] = rune(0x10000 + i) // distinct runes: 32999 distinct 2-grams
	}
	a, b := string(long), string(long)+"z"
	schema := dataset.Strings("A", "B")
	rel, err := dataset.FromRows(schema, [][]string{{a, "x"}, {b, "x"}})
	if err != nil {
		t.Fatal(err)
	}
	f = fd.MustParse(schema, "A->B")
	cfg := fd.DefaultDistConfig(rel)
	cfg.Edit = fd.EditJaccard
	cfg.AttachPlanes()
	want := strsim.JaccardDistance(a, b, 2)
	for pass := 0; pass < 2; pass++ {
		if got := cfg.AttrDist(0, a, b); got != want {
			t.Fatalf("pass %d: AttrDist = %v, want %v", pass, got, want)
		}
		if d, ok := cfg.DistWithin(f, 0.5, rel.Tuples[0], rel.Tuples[1]); !ok || d != cfg.WL*want {
			t.Fatalf("pass %d: DistWithin = %v,%v, want %v,true", pass, d, ok, cfg.WL*want)
		}
	}
	if h, m := cfg.Cache.Counters(); h != 0 || m != 4 {
		t.Fatalf("counters = %d/%d, want 0/4 (uncached)", h, m)
	}
	if n := cfg.Cache.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0: an overflowing pair must not fill a cell", n)
	}
}

// TestPairMatcherAgrees streams candidate tuples through PairMatchers and
// checks exact agreement with the config's direct methods, for every
// flavor (matchers engage on Levenshtein only but must be transparent
// everywhere), with the cache warm and cold and a confidence set so
// Score's scaling is covered: DistWithin against DistWithin, RepairDist
// and the code-addressed Score against RepairDist. Both sides make the
// same lookups in the same order, so once a matcher is released its
// tally must have brought the counters to the direct side's.
func TestPairMatcherAgrees(t *testing.T) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
		cfg := fd.DefaultDistConfig(dirty)
		cfg.Edit = flavor
		cfg.SetConfidence(3, 2.5)
		cfg.AttachPlanes()
		ref := fd.DefaultDistConfig(dirty)
		ref.Edit = flavor
		ref.SetConfidence(3, 2.5)
		ref.AttachPlanes()
		for _, f := range fds {
			for i, ti := range dirty.Tuples {
				pm := cfg.AcquirePairMatcher(f, ti)
				for j, tj := range dirty.Tuples {
					for _, tau := range []float64{0.05, 0.3} {
						d1, ok1 := pm.DistWithin(tau, tj)
						d2, ok2 := ref.DistWithin(f, tau, ti, tj)
						if ok1 != ok2 || d1 != d2 {
							t.Fatalf("flavor %d FD %v tau %v tuples %d,%d: matcher (%v,%v) vs plain (%v,%v)",
								flavor, f, tau, i, j, d1, ok1, d2, ok2)
						}
					}
					for col := range ti {
						want := ref.RepairDist(col, ti[col], tj[col])
						if got := pm.RepairDist(col, tj); got != want {
							t.Fatalf("flavor %d tuples %d,%d col %d: RepairDist %v, plain %v", flavor, i, j, col, got, want)
						}
						ref.RepairDist(col, ti[col], tj[col]) // Score's lookup, on the plain side
						if got := pm.Score(col, cfg.ValueCode(col, tj[col]), tj[col]); got != want {
							t.Fatalf("flavor %d tuples %d,%d col %d: Score %v, plain %v", flavor, i, j, col, got, want)
						}
					}
				}
				pm.Release()
				h, m := cfg.Cache.Counters()
				rh, rm := ref.Cache.Counters()
				ph, pmi := cfg.Cache.PlaneCounters()
				rph, rpm := ref.Cache.PlaneCounters()
				if h != rh || m != rm || ph != rph || pmi != rpm {
					t.Fatalf("flavor %d FD %v tuple %d: counters %d/%d (plane %d/%d), plain %d/%d (plane %d/%d)",
						flavor, f, i, h, m, ph, pmi, rh, rm, rph, rpm)
				}
			}
		}
	}
}

// TestRepairScorerAgrees scores repairs the way the planner does — a pooled
// PairMatcher acquired without an FD, candidates passed with their codes —
// and checks Score against cfg.RepairDist with confidences set.
func TestRepairScorerAgrees(t *testing.T) {
	dirty, _ := gen.Citizens()
	cfg := fd.DefaultDistConfig(dirty)
	cfg.SetConfidence(3, 2.5)
	ref := fd.DefaultDistConfig(dirty)
	ref.SetConfidence(3, 2.5)
	rng := rand.New(rand.NewSource(9))
	for i := range dirty.Tuples {
		tu := dirty.Tuples[i]
		pm := cfg.AcquirePairMatcher(nil, tu)
		for trial := 0; trial < 30; trial++ {
			other := dirty.Tuples[rng.Intn(len(dirty.Tuples))]
			for col := range tu {
				if got, want := pm.Score(col, cfg.ValueCode(col, other[col]), other[col]), ref.RepairDist(col, tu[col], other[col]); got != want {
					t.Fatalf("Score(%d,%q) for %q = %v, want RepairDist %v", col, other[col], tu[col], got, want)
				}
			}
		}
		pm.Release()
	}
}

// TestColumnDict covers interning basics: first-occurrence codes, memoized
// rune lengths, and misses for foreign values.
func TestColumnDict(t *testing.T) {
	schema := dataset.Strings("A")
	rel, err := dataset.FromRows(schema, [][]string{{"bb"}, {"aa"}, {"bb"}, {"日本語"}})
	if err != nil {
		t.Fatal(err)
	}
	d := rel.ColumnDict(0)
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for i, want := range []string{"bb", "aa", "日本語"} {
		c, ok := d.Code(want)
		if !ok || c != int32(i) {
			t.Fatalf("Code(%q) = %d,%v, want %d", want, c, ok, i)
		}
		if d.Value(c) != want {
			t.Fatalf("Value(%d) = %q, want %q", c, d.Value(c), want)
		}
	}
	if l := d.RuneLen(2); l != 3 {
		t.Fatalf("RuneLen(日本語) = %d, want 3", l)
	}
	if _, ok := d.Code("zz"); ok {
		t.Fatal("Code for foreign value unexpectedly interned")
	}
}

// TestPlanesAllocateOnFirstLookup runs the same HOSP queries through a
// lazily and an eagerly attached cache. Distances, counters and Len agree,
// and the lazy cache allocates planes only for the queried columns.
func TestPlanesAllocateOnFirstLookup(t *testing.T) {
	clean := gen.HOSP{Seed: 3}.Generate(300)
	fds := gen.HOSPFDs(clean.Schema)[:2] // Provider -> HospitalName, Provider -> Phone
	dirty, _ := gen.Inject(clean, fds, 0.1, 4)
	lazy, err := fd.NewDistConfig(dirty, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := fd.NewDistConfig(dirty, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eager.Cache.AttachPlanesEager(eager.Dicts, eager.Edit)
	queried := map[int]bool{}
	for _, f := range fds {
		for _, c := range f.Attrs() {
			queried[c] = true
		}
	}
	for col := 0; col < dirty.Schema.Len(); col++ {
		if lazy.Cache.PlaneAllocated(col) {
			t.Fatalf("column %d: plane allocated before any lookup", col)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < dirty.Len(); i += 3 {
			for j := i + 1; j < dirty.Len(); j += 7 {
				t1, t2 := dirty.Tuples[i], dirty.Tuples[j]
				for _, f := range fds {
					d1, ok1 := lazy.DistWithin(f, 0.3, t1, t2)
					d2, ok2 := eager.DistWithin(f, 0.3, t1, t2)
					if ok1 != ok2 || d1 != d2 {
						t.Fatalf("%s rows %d,%d: lazy (%v,%v), eager (%v,%v)", f, i, j, d1, ok1, d2, ok2)
					}
					if a, b := lazy.Dist(f, t1, t2), eager.Dist(f, t1, t2); a != b {
						t.Fatalf("%s rows %d,%d: Dist lazy %v, eager %v", f, i, j, a, b)
					}
				}
			}
		}
	}
	lh, lm := lazy.Cache.Counters()
	eh, em := eager.Cache.Counters()
	lph, lpm := lazy.Cache.PlaneCounters()
	eph, epm := eager.Cache.PlaneCounters()
	if lh != eh || lm != em || lph != eph || lpm != epm {
		t.Fatalf("counters: lazy %d/%d (plane %d/%d), eager %d/%d (plane %d/%d)", lh, lm, lph, lpm, eh, em, eph, epm)
	}
	if lpm == 0 || lph == 0 {
		t.Fatalf("plane counters %d/%d: the queries never reached a plane", lph, lpm)
	}
	if l, e := lazy.Cache.Len(), eager.Cache.Len(); l != e {
		t.Fatalf("Len: lazy %d, eager %d", l, e)
	}
	unqueried := 0
	for col := 0; col < dirty.Schema.Len(); col++ {
		got := lazy.Cache.PlaneAllocated(col)
		if got && !queried[col] {
			t.Fatalf("column %d: plane allocated although no query read it", col)
		}
		if got && !eager.Cache.PlaneAllocated(col) {
			t.Fatalf("column %d: lazy plane where the eager cache has none", col)
		}
		if !queried[col] && eager.Cache.PlaneAllocated(col) {
			unqueried++
		}
	}
	if unqueried == 0 {
		t.Fatal("no eligible column was left unqueried; the test shows nothing")
	}
}

// TestPlaneConcurrentFirstLookup races goroutines to the first lookups of
// one column's plane. Run it under -race: the cells are allocated once and
// published atomically, every answer equals the uncached distance, and the
// counters account every lookup.
func TestPlaneConcurrentFirstLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := randomWords(rng, 60)
	rows := make([][]string, len(words))
	for i, w := range words {
		rows[i] = []string{w, "x"}
	}
	rel, err := dataset.FromRows(dataset.Strings("A", "B"), rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(rel)
	bare := fd.DefaultDistConfig(rel)
	bare.Cache = nil
	const workers = 8
	start := make(chan struct{})
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := range words {
				a, b := words[i], words[(i+w+1)%len(words)]
				if got, want := cfg.AttrDist(0, a, b), bare.AttrDist(0, a, b); got != want {
					errs <- fmt.Sprintf("AttrDist(%q,%q) = %v, uncached %v", a, b, got, want)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if !cfg.Cache.PlaneAllocated(0) {
		t.Fatal("plane not allocated after lookups")
	}
	// Every query of two distinct values is one lookup, hit or miss.
	lookups := 0
	for w := 0; w < workers; w++ {
		for i := range words {
			if words[i] != words[(i+w+1)%len(words)] {
				lookups++
			}
		}
	}
	if h, m := cfg.Cache.Counters(); int(h+m) != lookups {
		t.Fatalf("counters %d hits + %d misses, want %d lookups", h, m, lookups)
	}
	if _, pm := cfg.Cache.PlaneCounters(); int(pm) != cfg.Cache.Len() {
		t.Fatalf("plane misses %d, occupied cells %d: a fill was lost or counted twice", pm, cfg.Cache.Len())
	}
}
