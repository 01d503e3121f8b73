package strsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQGrams(t *testing.T) {
	g := QGrams("abab", 2)
	if g["ab"] != 2 || g["ba"] != 1 || len(g) != 2 {
		t.Fatalf("QGrams = %v", g)
	}
	short := QGrams("a", 2)
	if short["a"] != 1 || len(short) != 1 {
		t.Fatalf("short QGrams = %v", short)
	}
	if g := QGrams("ab", 0); len(g) != 1 {
		t.Fatalf("q<=0 default failed: %v", g)
	}
}

func TestJaccardDistanceKnown(t *testing.T) {
	if d := JaccardDistance("abc", "abc", 2); d != 0 {
		t.Fatalf("identical distance = %v", d)
	}
	// "abcd" grams {ab,bc,cd}; "abce" grams {ab,bc,ce}: inter 2, union 4.
	if d := JaccardDistance("abcd", "abce", 2); d != 0.5 {
		t.Fatalf("JaccardDistance = %v, want 0.5", d)
	}
	if d := JaccardDistance("xy", "pq", 2); d != 1 {
		t.Fatalf("disjoint distance = %v, want 1", d)
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 16 {
			a = a[:16]
		}
		if len(b) > 16 {
			b = b[:16]
		}
		d := JaccardDistance(a, b, 2)
		return d >= 0 && d <= 1 && JaccardDistance(b, a, 2) == d && JaccardDistance(a, a, 2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEuclidean(t *testing.T) {
	if d := Euclidean(3, 7, 10); d != 0.4 {
		t.Fatalf("Euclidean = %v", d)
	}
	if d := Euclidean(7, 3, 10); d != 0.4 {
		t.Fatalf("Euclidean symmetry = %v", d)
	}
	if d := Euclidean(5, 5, 0); d != 0 {
		t.Fatalf("zero-span identical = %v", d)
	}
	if d := Euclidean(5, 6, 0); d != 1 {
		t.Fatalf("zero-span distinct = %v", d)
	}
	// Values outside the observed span clip at 1.
	if d := Euclidean(0, 100, 10); d != 1 {
		t.Fatalf("clipping = %v", d)
	}
}

func TestIndexSearchMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		ix := NewIndex(2)
		var strs []string
		for i := 0; i < 40; i++ {
			s := randomWord(r, 9)
			strs = append(strs, s)
			if got := ix.Add(s); got != i {
				t.Fatalf("Add returned %d, want %d", got, i)
			}
		}
		q := randomWord(r, 9)
		for k := 0; k <= 3; k++ {
			got := ix.Search(q, k)
			var want []Match
			for id, s := range strs {
				if d := Levenshtein(q, s); d <= k {
					want = append(want, Match{ID: id, Dist: d})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Search(%q,%d) = %v, want %v (strs=%v)", q, k, got, want, strs)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Search(%q,%d)[%d] = %v, want %v", q, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestIndexSearchNormalizedMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ix := NewIndex(2)
	var strs []string
	for i := 0; i < 60; i++ {
		s := randomWord(r, 10)
		strs = append(strs, s)
		ix.Add(s)
	}
	for trial := 0; trial < 40; trial++ {
		q := randomWord(r, 10)
		tt := []float64{0, 0.2, 0.35, 0.5}[trial%4]
		got := ix.SearchNormalized(q, tt)
		gotSet := make(map[int]float64)
		for _, m := range got {
			gotSet[m.ID] = m.Dist
		}
		for id, s := range strs {
			d := NormalizedEdit(q, s)
			if d <= tt {
				if gd, ok := gotSet[id]; !ok || gd != d {
					t.Fatalf("SearchNormalized(%q,%v) missing id %d (%q, d=%v); got %v", q, tt, id, s, d, got)
				}
			} else if _, ok := gotSet[id]; ok {
				t.Fatalf("SearchNormalized(%q,%v) false positive id %d (%q, d=%v)", q, tt, id, s, d)
			}
		}
	}
}

func TestIndexEdgeCases(t *testing.T) {
	ix := NewIndex(0) // defaults to 2
	if ix.Q() != 2 {
		t.Fatalf("Q = %d", ix.Q())
	}
	ix.Add("")     // short string
	ix.Add("a")    // short string
	ix.Add("abcd") // normal
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.String(2) != "abcd" {
		t.Fatalf("String(2) = %q", ix.String(2))
	}
	// Short query scans with length filter.
	got := ix.Search("b", 1)
	if len(got) != 2 { // "" (d=1) and "a" (d=1)
		t.Fatalf("short query got %v", got)
	}
	// Long query must still reach short strings.
	got = ix.Search("ab", 2)
	want := 0
	for _, s := range []string{"", "a", "abcd"} {
		if Levenshtein("ab", s) <= 2 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("Search(ab,2) = %v, want %d matches", got, want)
	}
	if got := ix.Search("x", -1); got != nil {
		t.Fatal("negative maxDist returned matches")
	}
	if got := ix.SearchNormalized("x", -0.5); got != nil {
		t.Fatal("negative threshold returned matches")
	}
	// Threshold >= 1 matches everything.
	if got := ix.SearchNormalized("zzzz", 1); len(got) != 3 {
		t.Fatalf("t=1 matched %d, want 3", len(got))
	}
}

func TestSearchNormalizedKeepsBoundaryPair(t *testing.T) {
	// At t = 0.3/0.5, "ab" and "ab456" are 3 edits apart over 5 runes: 3/5
	// equals t, so each finds the other. Rounding the query's edit bound
	// down from t*2/(1-t) gave the 2-rune side bound 2 and lost the pair.
	ix := NewIndex(2)
	ix.Add("ab")
	ix.Add("ab456")
	tt := 0.3 / 0.5
	for id, want := range [][]NormMatch{
		{{ID: 0, Dist: 0}, {ID: 1, Dist: 3.0 / 5}},
		{{ID: 0, Dist: 3.0 / 5}, {ID: 1, Dist: 0}},
	} {
		got := ix.SearchNormalized(ix.String(id), tt)
		if len(got) != len(want) {
			t.Fatalf("SearchNormalized(%q, %v) = %v, want %v", ix.String(id), tt, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SearchNormalized(%q, %v) = %v, want %v", ix.String(id), tt, got, want)
			}
		}
	}
}

func TestNormBoundLosesNoPair(t *testing.T) {
	// For every query length and threshold, each (candidate length, edit
	// distance) pair within t must be inside the query's bound.
	for _, tt := range []float64{0, 0.1, 0.2, 0.25, 0.3, 0.3 / 0.5, 0.3 / 0.7, 0.3 / 0.9, 0.5, 0.6, 0.75, 0.99} {
		for ls := 0; ls <= 60; ls++ {
			bound := normBound(ls, tt)
			for lc := 0; lc <= 200; lc++ {
				mx := max(ls, lc)
				if mx == 0 {
					continue
				}
				for d := abs(ls - lc); d <= mx; d++ {
					if float64(d)/float64(mx) <= tt && d > bound {
						t.Fatalf("t=%v ls=%d: d=%d over %d runes is within t but bound is %d", tt, ls, d, mx, bound)
					}
				}
			}
		}
	}
}
