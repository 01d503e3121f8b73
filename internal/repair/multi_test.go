package repair_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/repair"
)

// citizensSet returns the Citizens instance with the full constraint set.
// Thresholds: phi1's Level distances are small, so tau=0.2 captures its
// errors; phi2/phi3 repair two-letter states (dist 1, weighted 0.5), so
// tau=0.5 is needed to cover classic violations (Theorem 1 boundary) — and
// reproduces the paper's Example 10 independent-set families exactly.
func citizensSet(t *testing.T) (*dataset.Relation, *dataset.Relation, *fd.Set, *fd.DistConfig) {
	t.Helper()
	dirty, clean := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	set, err := fd.NewSet(fds, 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return dirty, clean, set, fd.DefaultDistConfig(dirty)
}

type multiAlgo func(*dataset.Relation, *fd.Set, *fd.DistConfig, repair.Options) (*repair.Result, error)

func TestExactMCitizensFullRepair(t *testing.T) {
	// The headline end-to-end result: on the paper's Table 1 with all
	// three FDs, the exact multi-FD algorithm recovers the ground truth on
	// every constrained attribute (8 erroneous cells, all fixed, nothing
	// else touched).
	dirty, clean, set, cfg := citizensSet(t)
	res, err := repair.ExactM(dirty, set, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := dataset.Diff(res.Repaired, clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		for _, c := range cells {
			t.Errorf("cell %v: got %q, want %q", c, res.Repaired.Get(c), clean.Get(c))
		}
		t.Fatalf("repair differs from ground truth in %d cells", len(cells))
	}
	if len(res.Changed) != 8 {
		t.Fatalf("changed %d cells, want 8: %v", len(res.Changed), res.Changed)
	}
	if err := repair.VerifyFTConsistent(res.Repaired, set, cfg); err != nil {
		t.Fatal(err)
	}
	if err := repair.VerifyValid(dirty, res.Repaired, set); err != nil {
		t.Fatal(err)
	}
}

func TestExample10And14Component(t *testing.T) {
	// Restricting to {phi2, phi3}: t4 repairs to (New York, Western,
	// Queens, NY) (Example 14), t5's City repairs to New York (Example 3),
	// t8's City to Boston, t10's State to MA.
	dirty, clean, set, cfg := citizensSet(t)
	sub := set.Subset([]int{1, 2})
	res, err := repair.ExactM(dirty, sub, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"City", "Street", "District", "State"} {
		c := dirty.Schema.MustIndex(name)
		for i := range res.Repaired.Tuples {
			if got, want := res.Repaired.Tuples[i][c], clean.Tuples[i][c]; got != want {
				t.Errorf("tuple %d %s = %q, want %q", i+1, name, got, want)
			}
		}
	}
	// Education/Level untouched (phi1 not in the set).
	edu := dirty.Schema.MustIndex("Education")
	if res.Repaired.Tuples[5][edu] != "Masers" {
		t.Error("phi1 attribute modified by a phi2/phi3 repair")
	}
}

func TestHeuristicsCitizens(t *testing.T) {
	// GreedyM's cross-FD synchronization fully recovers Citizens, while
	// ApproM — per-FD greedy with no synchronization — seeds phi2's
	// independent set with the low-degree typo pattern (Boton, MA) and
	// repairs toward it. This is exactly the quality gap between the two
	// heuristics the paper reports (§6.2): GreedyM > ApproM in precision.
	dirty, clean, set, cfg := citizensSet(t)
	exact, err := repair.ExactM(dirty, set, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := repair.GreedyM(dirty, set, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Algorithm != "GreedyM" {
		t.Fatalf("algorithm tag %q", greedy.Algorithm)
	}
	cells, err := dataset.Diff(greedy.Repaired, clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("GreedyM differs from ground truth at %v", cells)
	}
	appro, err := repair.ApproM(dirty, set, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if appro.Algorithm != "ApproM" {
		t.Fatalf("algorithm tag %q", appro.Algorithm)
	}
	// Both heuristics still produce FT-consistent, valid repairs and never
	// beat the exact cost.
	for _, res := range []*repair.Result{appro, greedy} {
		if err := repair.VerifyFTConsistent(res.Repaired, set, cfg); err != nil {
			t.Fatalf("%s: %v", res.Algorithm, err)
		}
		if err := repair.VerifyValid(dirty, res.Repaired, set); err != nil {
			t.Fatalf("%s: %v", res.Algorithm, err)
		}
		if exact.Cost > res.Cost+1e-9 {
			t.Fatalf("%s cost %v beats ExactM %v", res.Algorithm, res.Cost, exact.Cost)
		}
	}
	// And the documented ApproM weakness is real: it repairs toward the
	// (Boton, MA) typo pattern, losing precision against the ground truth.
	approCells, err := dataset.Diff(appro.Repaired, clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(approCells) == 0 {
		t.Log("ApproM unexpectedly recovered the ground truth; the Boton seed behaviour may have changed")
	}
}

func randomMultiInstance(rng *rand.Rand, n int) (*dataset.Relation, *fd.Set, *fd.DistConfig) {
	// Schema with two overlapping FDs (City->State, City,Street->District)
	// mirroring phi2/phi3.
	type loc struct{ city, street, district, state string }
	locs := []loc{
		{"Boston", "Main", "Financial", "MA"},
		{"Boston", "Arlingto", "Brookside", "MA"},
		{"New York", "Main", "Manhattan", "NY"},
		{"New York", "Western", "Queens", "NY"},
	}
	schema := dataset.Strings("City", "Street", "District", "State")
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		l := locs[rng.Intn(len(locs))]
		city, state, district := l.city, l.state, l.district
		switch rng.Intn(6) {
		case 0:
			b := []byte(city)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			city = string(b)
		case 1:
			state = locs[rng.Intn(len(locs))].state
		case 2:
			district = locs[rng.Intn(len(locs))].district
		}
		if err := rel.Append(dataset.Tuple{city, l.street, district, state}); err != nil {
			panic(err)
		}
	}
	set, err := fd.NewSet([]*fd.FD{
		fd.MustParse(schema, "City->State"),
		fd.MustParse(schema, "City,Street->District"),
	}, 0.5)
	if err != nil {
		panic(err)
	}
	return rel, set, fd.DefaultDistConfig(rel)
}

func TestMultiFDInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		rel, set, cfg := randomMultiInstance(rng, 30)
		exact, err := repair.ExactM(rel, set, cfg, repair.Options{})
		if errors.Is(err, repair.ErrTooManyMIS) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for name, algo := range map[string]multiAlgo{"ApproM": repair.ApproM, "GreedyM": repair.GreedyM} {
			res, err := algo(rel, set, cfg, repair.Options{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := repair.VerifyFTConsistent(res.Repaired, set, cfg); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := repair.VerifyValid(rel, res.Repaired, set); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if exact.Cost > res.Cost+1e-9 {
				t.Fatalf("trial %d: ExactM cost %v > %s cost %v", trial, exact.Cost, name, res.Cost)
			}
		}
		if err := repair.VerifyFTConsistent(exact.Repaired, set, cfg); err != nil {
			t.Fatalf("trial %d ExactM: %v", trial, err)
		}
		if err := repair.VerifyValid(rel, exact.Repaired, set); err != nil {
			t.Fatalf("trial %d ExactM: %v", trial, err)
		}
	}
}

// TestExactMSingleFDComponentStats: ExactM repairs a one-FD component with
// ExactS's expansion, so on FDs with pairwise disjoint attributes its
// nodes and pruned counts equal ExactS's summed per FD over the same input.
func TestExactMSingleFDComponentStats(t *testing.T) {
	schema := dataset.Strings("A", "B", "C", "D", "E", "F")
	rng := rand.New(rand.NewSource(5))
	rel := dataset.NewRelation(schema)
	keys := []string{"boston", "denver", "austin", "dallas", "fresno"}
	typo := func(s string) string {
		x := []byte(s)
		x[rng.Intn(len(x))] = 'q'
		return string(x)
	}
	for i := 0; i < 60; i++ {
		row := make(dataset.Tuple, 0, 6)
		for pair := 0; pair < 3; pair++ {
			k := keys[rng.Intn(len(keys))]
			v := k + "-v"
			if rng.Intn(5) == 0 {
				k = typo(k)
			}
			if rng.Intn(5) == 0 {
				v = typo(v)
			}
			row = append(row, k, v)
		}
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	fds := []*fd.FD{fd.MustParse(schema, "A->B"), fd.MustParse(schema, "C->D"), fd.MustParse(schema, "E->F")}
	set, err := fd.NewSet(fds, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := repair.ExactM(rel, set, fd.DefaultDistConfig(rel), repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var nodes, pruned int
	for _, f := range fds {
		single, err := repair.ExactS(rel, f, fd.DefaultDistConfig(rel), 0.3, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nodes += single.Stats["nodes"]
		pruned += single.Stats["pruned"]
	}
	if pruned == 0 {
		t.Fatalf("ExactS pruned nothing (nodes %d); the instance no longer exercises pruning", nodes)
	}
	if got := [2]int{multi.Stats["nodes"], multi.Stats["pruned"]}; got != [2]int{nodes, pruned} {
		t.Fatalf("ExactM nodes/pruned = %v, ExactS per FD sums to %v", got, [2]int{nodes, pruned})
	}
}

func TestTheorem5DisjointFDsIndependent(t *testing.T) {
	// Two FDs with no shared attributes: the multi-FD exact repair equals
	// applying the single-FD exact repair per FD, in cost and content.
	schema := dataset.Strings("A", "B", "C", "D")
	rng := rand.New(rand.NewSource(42))
	rel := dataset.NewRelation(schema)
	vals := []string{"alpha", "betas", "gamma"}
	for i := 0; i < 20; i++ {
		a, c := vals[rng.Intn(3)], vals[rng.Intn(3)]
		b, d := a+"1", c+"2"
		if rng.Intn(4) == 0 {
			b = vals[rng.Intn(3)] + "1"
		}
		if rng.Intn(4) == 0 {
			x := []byte(c)
			x[0] = 'z'
			c = string(x)
		}
		if err := rel.Append(dataset.Tuple{a, b, c, d}); err != nil {
			t.Fatal(err)
		}
	}
	f1 := fd.MustParse(schema, "A->B")
	f2 := fd.MustParse(schema, "C->D")
	set, err := fd.NewSet([]*fd.FD{f1, f2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(rel)
	multi, err := repair.ExactM(rel, set, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := repair.ExactS(rel, f1, cfg, 0.5, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := repair.ExactS(s1.Repaired, f2, cfg, 0.5, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(multi.Cost-cfg.DatabaseCost(rel, s2.Repaired)) > 1e-9 {
		t.Fatalf("multi cost %v != sequential cost %v", multi.Cost, cfg.DatabaseCost(rel, s2.Repaired))
	}
}

func TestExactMMISBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rel, set, cfg := randomMultiInstance(rng, 40)
	_, err := repair.ExactM(rel, set, cfg, repair.Options{MaxMISPerFD: 1})
	if err == nil {
		t.Skip("instance too easy to exceed a 1-MIS budget")
	}
	if !errors.Is(err, repair.ErrTooManyMIS) {
		t.Fatalf("error = %v, want ErrTooManyMIS", err)
	}
}

func TestDisableTargetTreeSameResult(t *testing.T) {
	dirty, _, set, cfg := citizensSet(t)
	a, err := repair.ExactM(dirty, set, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repair.ExactM(dirty, set, cfg, repair.Options{DisableTargetTree: true})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := dataset.Diff(a.Repaired, b.Repaired)
	if err != nil || len(cells) != 0 {
		t.Fatalf("tree vs scan differ: %v %v", cells, err)
	}
	if math.Abs(a.Cost-b.Cost) > 1e-9 {
		t.Fatalf("costs differ: %v vs %v", a.Cost, b.Cost)
	}
}

func TestMultiAlgorithmsLeaveInputUntouched(t *testing.T) {
	dirty, _, set, cfg := citizensSet(t)
	orig := dirty.Clone()
	for _, algo := range []multiAlgo{repair.ExactM, repair.ApproM, repair.GreedyM} {
		if _, err := algo(dirty, set, cfg, repair.Options{}); err != nil {
			t.Fatal(err)
		}
		cells, err := dataset.Diff(orig, dirty)
		if err != nil || len(cells) != 0 {
			t.Fatalf("input mutated: %v %v", cells, err)
		}
	}
}

func TestConsistentMultiInputNoop(t *testing.T) {
	_, clean, set, _ := citizensSet(t)
	cfg := fd.DefaultDistConfig(clean)
	for _, algo := range []multiAlgo{repair.ExactM, repair.ApproM, repair.GreedyM} {
		res, err := algo(clean, set, cfg, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changed) != 0 {
			t.Fatalf("%s repaired a consistent database: %v", res.Algorithm, res.Changed)
		}
	}
}
