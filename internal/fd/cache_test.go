package fd_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
)

// randomWords returns noisy word pairs with plenty of repeats, so both the
// hit and miss paths of the cache get exercised.
func randomWords(rng *rand.Rand, n int) []string {
	base := []string{"boston", "chicago", "seattle", "denver", "austin", "houston", "", "a"}
	out := make([]string, n)
	for i := range out {
		w := base[rng.Intn(len(base))]
		if rng.Intn(3) == 0 && len(w) > 0 {
			b := []byte(w)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			w = string(b)
		}
		out[i] = w
	}
	return out
}

func TestCachedDistancesBitwiseEqual(t *testing.T) {
	// A cached config must return exactly — bitwise — the distances an
	// uncached config computes, for every edit flavor, including after
	// mutating Edit on the live config (the flavor is part of the key).
	dirty, _ := gen.Citizens()
	cached := fd.DefaultDistConfig(dirty)
	bare := fd.DefaultDistConfig(dirty)
	bare.Cache = nil
	if cached.Cache == nil {
		t.Fatal("DefaultDistConfig did not enable the cache")
	}
	rng := rand.New(rand.NewSource(1))
	words := randomWords(rng, 40)
	col := 3 // City: a string attribute
	for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
		cached.Edit, bare.Edit = flavor, flavor
		for range [2]struct{}{} { // second pass answers from the cache
			for _, a := range words {
				for _, b := range words {
					if got, want := cached.AttrDist(col, a, b), bare.AttrDist(col, a, b); got != want {
						t.Fatalf("flavor %d AttrDist(%q,%q) = %v, uncached %v", flavor, a, b, got, want)
					}
					if got, want := cached.RepairDist(col, a, b), bare.RepairDist(col, a, b); got != want {
						t.Fatalf("flavor %d RepairDist(%q,%q) = %v, uncached %v", flavor, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestCachedDistWithinAgrees(t *testing.T) {
	// DistWithin routes string attributes through the cache with a budget;
	// accept/reject decisions and accepted distances must match the
	// uncached evaluation exactly at every threshold.
	dirty, _ := gen.Citizens()
	f := gen.CitizensFDs(dirty.Schema)[1] // City -> State
	cached := fd.DefaultDistConfig(dirty)
	bare := fd.DefaultDistConfig(dirty)
	bare.Cache = nil
	for _, flavor := range []fd.EditFlavor{fd.EditLevenshtein, fd.EditOSA, fd.EditJaccard} {
		cached.Edit, bare.Edit = flavor, flavor
		for _, tau := range []float64{0, 0.05, 0.2, 0.35, 0.8} {
			for range [2]struct{}{} {
				for i := range dirty.Tuples {
					for j := range dirty.Tuples {
						d1, ok1 := cached.DistWithin(f, tau, dirty.Tuples[i], dirty.Tuples[j])
						d2, ok2 := bare.DistWithin(f, tau, dirty.Tuples[i], dirty.Tuples[j])
						if ok1 != ok2 || d1 != d2 {
							t.Fatalf("flavor %d tau %v tuples %d,%d: cached (%v,%v) vs uncached (%v,%v)",
								flavor, tau, i, j, d1, ok1, d2, ok2)
						}
					}
				}
			}
		}
	}
}

func TestDistCacheCounters(t *testing.T) {
	// Interned values answer from the plane: the first query fills the
	// pair's cell (one miss), the swapped query reads the same cell (a hit).
	schema := dataset.Strings("A")
	rel, err := dataset.FromRows(schema, [][]string{{"boston"}, {"bostom"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(rel)
	if h, m := cfg.Cache.Counters(); h != 0 || m != 0 {
		t.Fatalf("fresh cache counters = %d/%d", h, m)
	}
	cfg.AttrDist(0, "boston", "bostom") // miss: fills the cell
	if h, m := cfg.Cache.Counters(); h != 0 || m != 1 {
		t.Fatalf("after first query: hits %d, misses %d", h, m)
	}
	cfg.AttrDist(0, "bostom", "boston") // symmetric: same cell
	if h, m := cfg.Cache.Counters(); h != 1 || m != 1 {
		t.Fatalf("after symmetric query: hits %d, misses %d", h, m)
	}
	if cfg.Cache.Len() != 1 {
		t.Fatalf("Len = %d, want 1", cfg.Cache.Len())
	}
	// Equal strings short-circuit before the cache.
	cfg.AttrDist(0, "boston", "boston")
	if h, m := cfg.Cache.Counters(); h != 1 || m != 1 {
		t.Fatalf("equal-string query touched the cache: hits %d, misses %d", h, m)
	}
	// The planes serve the attached flavor only: an OSA query on the
	// Levenshtein planes computes uncached, counting a miss every time and
	// filling no cell.
	cfg.Edit = fd.EditOSA
	cfg.AttrDist(0, "boston", "bostom")
	cfg.AttrDist(0, "boston", "bostom")
	if h, m := cfg.Cache.Counters(); h != 1 || m != 3 {
		t.Fatalf("flavor mismatch: hits %d, misses %d, want 1/3", h, m)
	}
	if ph, pm := cfg.Cache.PlaneCounters(); ph != 1 || pm != 1 {
		t.Fatalf("flavor mismatch reached the plane: plane counters %d/%d", ph, pm)
	}
	if cfg.Cache.Len() != 1 {
		t.Fatalf("Len = %d, want 1", cfg.Cache.Len())
	}
}

func TestDistPlaneLowerBounds(t *testing.T) {
	// A bounded rejection is memoized as a lower bound: it answers repeat
	// queries at the same or smaller budget, and is superseded by an exact
	// cell once some query accepts the pair. Plane bounds live in integer
	// space — a rejection at band int(t*m) answers every later budget with
	// the same band — so tau 0.08 still yields band int(0.16*4) = 0,
	// covered by the stored bound. Only the query that fills the empty
	// cell counts a miss; the acceptance that upgrades the bound recomputes
	// but counts a hit.
	//
	// dist(A) = 1/4, weighted 0.125 under the default w_l = 0.5.
	schema := dataset.Strings("A", "B")
	rel, err := dataset.FromRows(schema, [][]string{{"abcd", "x"}, {"abce", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	f := fd.MustParse(schema, "A->B")
	cfg := fd.DefaultDistConfig(rel) // planes attached by NewDistConfig
	t1, t2 := rel.Tuples[0], rel.Tuples[1]
	check := func(step string, tau float64, wantOK bool, wantHits, wantMisses uint64) {
		t.Helper()
		if _, ok := cfg.DistWithin(f, tau, t1, t2); ok != wantOK {
			t.Fatalf("%s: DistWithin ok = %v, want %v", step, ok, wantOK)
		}
		if h, m := cfg.Cache.Counters(); h != wantHits || m != wantMisses {
			t.Fatalf("%s: counters = %d/%d, want %d/%d", step, h, m, wantHits, wantMisses)
		}
	}
	check("first rejection", 0.05, false, 0, 1)  // miss, bound L=0 fills the cell
	check("repeat rejection", 0.05, false, 1, 1) // answered by the bound
	check("same-band budget", 0.08, false, 2, 1) // band still 0: bound answers
	check("acceptance", 0.2, true, 3, 1)         // band 1: exact cell replaces bound
	check("reject via exact", 0.05, false, 4, 1)
	if d := cfg.AttrDist(0, "abcd", "abce"); !fd.FloatEq(d, 0.25) {
		t.Fatalf("AttrDist = %v, want 0.25", d)
	}
	if h, m := cfg.Cache.Counters(); h != 5 || m != 1 {
		t.Fatalf("final counters = %d/%d, want 5/1", h, m)
	}
	if cfg.Cache.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (one occupied plane cell)", cfg.Cache.Len())
	}
}

func TestDistCacheNumericBypass(t *testing.T) {
	schema := dataset.MustSchema(dataset.Attribute{Name: "N", Type: dataset.Numeric})
	rel, err := dataset.FromRows(schema, [][]string{{"1"}, {"100"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(rel)
	cfg.AttrDist(0, "1", "100")
	if h, m := cfg.Cache.Counters(); h != 0 || m != 0 {
		t.Fatalf("numeric comparison touched the cache: hits %d, misses %d", h, m)
	}
	// Unparseable numerics fall back to the string path. A numeric column
	// has no dictionary, hence no plane: each such query computes uncached
	// and counts one miss.
	cfg.AttrDist(0, "one", "two")
	cfg.AttrDist(0, "one", "two")
	if h, m := cfg.Cache.Counters(); h != 0 || m != 2 {
		t.Fatalf("unparseable numerics: hits %d, misses %d, want 0/2", h, m)
	}
}

func TestDistCacheConcurrent(t *testing.T) {
	// Hammer one shared cache from many goroutines with interned City values
	// (plane path) and un-interned noisy words (uncached path); correctness
	// is checked against an uncached config, and the race detector checks
	// the plane's atomics.
	dirty, _ := gen.Citizens()
	cached := fd.DefaultDistConfig(dirty)
	bare := fd.DefaultDistConfig(dirty)
	bare.Cache = nil
	words := randomWords(rand.New(rand.NewSource(2)), 30)
	for _, tu := range dirty.Tuples {
		words = append(words, tu[3])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				a, b := words[rng.Intn(len(words))], words[rng.Intn(len(words))]
				if got, want := cached.AttrDist(3, a, b), bare.AttrDist(3, a, b); got != want {
					select {
					case errs <- fmt.Errorf("AttrDist(%q,%q) = %v, want %v", a, b, got, want):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	ph, pm := cached.Cache.PlaneCounters()
	if ph == 0 || pm == 0 {
		t.Fatalf("plane never engaged: plane counters %d/%d", ph, pm)
	}
	if _, m := cached.Cache.Counters(); m == pm {
		t.Fatal("uncached path never engaged: every miss was a plane fill")
	}
}
