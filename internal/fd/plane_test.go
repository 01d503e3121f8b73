package fd_test

import (
	"math/rand"
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
// checks exact agreement with the plain DistWithin/Dist paths, for every
// flavor (matchers engage on Levenshtein only but must be transparent
// everywhere) and with the cache warm and cold.
func TestPairMatcherAgrees(t *testing.T) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
		cfg := fd.DefaultDistConfig(dirty)
		cfg.Edit = flavor
		cfg.AttachPlanes()
		ref := fd.DefaultDistConfig(dirty)
		ref.Edit = flavor
		ref.AttachPlanes()
		for _, f := range fds {
			for i := range dirty.Tuples {
				pm := cfg.AcquirePairMatcher(f, dirty.Tuples[i])
				for j := range dirty.Tuples {
					for _, tau := range []float64{0.05, 0.3} {
						d1, ok1 := pm.DistWithin(tau, dirty.Tuples[j])
						d2, ok2 := ref.DistWithin(f, tau, dirty.Tuples[i], dirty.Tuples[j])
						if ok1 != ok2 || d1 != d2 {
							t.Fatalf("flavor %d FD %v tau %v tuples %d,%d: matcher (%v,%v) vs plain (%v,%v)",
								flavor, f, tau, i, j, d1, ok1, d2, ok2)
						}
					}
					if d1, d2 := pm.Dist(dirty.Tuples[j]), ref.Dist(f, dirty.Tuples[i], dirty.Tuples[j]); d1 != d2 {
						t.Fatalf("flavor %d FD %v tuples %d,%d: matcher Dist %v vs plain %v", flavor, f, i, j, d1, d2)
					}
				}
				pm.Release()
			}
		}
	}
}

// TestRepairScorerAgrees checks the scorer's code-addressed Score against
// RepairDist with the fixed tuple's value on the left, with confidences set
// so the scaling path is covered too.
func TestRepairScorerAgrees(t *testing.T) {
	dirty, _ := gen.Citizens()
	cfg := fd.DefaultDistConfig(dirty)
	cfg.SetConfidence(3, 2.5)
	ref := fd.DefaultDistConfig(dirty)
	ref.SetConfidence(3, 2.5)
	rng := rand.New(rand.NewSource(9))
	for i := range dirty.Tuples {
		tu := dirty.Tuples[i]
		rs := cfg.AcquireRepairScorer(tu)
		for trial := 0; trial < 30; trial++ {
			other := dirty.Tuples[rng.Intn(len(dirty.Tuples))]
			for col := range tu {
				if got, want := rs.Score(col, cfg.ValueCode(col, other[col]), other[col]), ref.RepairDist(col, tu[col], other[col]); got != want {
					t.Fatalf("Score(%d,%q) for %q = %v, want RepairDist %v", col, other[col], tu[col], got, want)
				}
			}
		}
		rs.Release()
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
