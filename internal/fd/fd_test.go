package fd_test

import (
	"math"
	"strings"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
)

func TestParse(t *testing.T) {
	schema := dataset.Strings("A", "B", "C", "D")
	f, err := fd.Parse(schema, "phi: A, B -> C")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "phi" || len(f.LHS) != 2 || len(f.RHS) != 1 {
		t.Fatalf("parsed %+v", f)
	}
	if got := f.String(); !strings.Contains(got, "[A,B] -> [C]") {
		t.Fatalf("String = %q", got)
	}
	if got := f.Attrs(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Attrs = %v", got)
	}
	// Unnamed FD.
	g, err := fd.Parse(schema, "A->B")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "[A] -> [B]") {
		t.Fatalf("String = %q", g.String())
	}
}

func TestParseErrors(t *testing.T) {
	schema := dataset.Strings("A", "B")
	for _, spec := range []string{
		"A",        // no arrow
		"-> B",     // empty LHS
		"A ->",     // empty RHS
		"Z -> B",   // unknown LHS attr
		"A -> Z",   // unknown RHS attr
		"A,A -> B", // duplicate in LHS
		"A -> A",   // overlap LHS/RHS
	} {
		if _, err := fd.Parse(schema, spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	fd.MustParse(dataset.Strings("A"), "bogus")
}

func TestSharesAttrs(t *testing.T) {
	schema := dataset.Strings("A", "B", "C", "D", "E")
	f1 := fd.MustParse(schema, "A->B")
	f2 := fd.MustParse(schema, "B->C")
	f3 := fd.MustParse(schema, "D->E")
	if !f1.SharesAttrs(f2) {
		t.Fatal("f1/f2 share B")
	}
	if f1.SharesAttrs(f3) {
		t.Fatal("f1/f3 share nothing")
	}
}

func TestViolatesClassic(t *testing.T) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	phi1 := fds[0]
	t1, t9, t4, t6 := dirty.Tuples[0], dirty.Tuples[8], dirty.Tuples[3], dirty.Tuples[5]
	if !phi1.Violates(t1, t9) {
		t.Fatal("(t1,t9) should violate phi1 (same Education, different Level)")
	}
	if phi1.Violates(t4, t6) {
		t.Fatal("(t4,t6) must not classically violate phi1 (different Education)")
	}
	if phi1.Violates(t1, t1) {
		t.Fatal("tuple cannot violate with itself")
	}
}

func TestProjEqual(t *testing.T) {
	dirty, _ := gen.Citizens()
	phi1 := gen.CitizensFDs(dirty.Schema)[0]
	if !phi1.ProjEqual(dirty.Tuples[0], dirty.Tuples[1]) {
		t.Fatal("t1,t2 agree on Education,Level")
	}
	if phi1.ProjEqual(dirty.Tuples[0], dirty.Tuples[3]) {
		t.Fatal("t1,t4 differ on Education")
	}
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistExample5(t *testing.T) {
	// Example 5: dist(t4^phi1, t6^phi1) = 0.5*dist(Masters,Masers) +
	// 0.5*dist(4,4) = 0.5*(1/7) = 0.0714...
	dirty, _ := gen.Citizens()
	phi1 := gen.CitizensFDs(dirty.Schema)[0]
	cfg := fd.DefaultDistConfig(dirty)
	got := cfg.Dist(phi1, dirty.Tuples[3], dirty.Tuples[5])
	if !almostEqual(got, 0.5/7) {
		t.Fatalf("Dist = %v, want %v", got, 0.5/7)
	}
}

func TestFTViolates(t *testing.T) {
	// Example 6: with tau = 0.35, (t4,t6) is an FT-violation of phi1.
	dirty, _ := gen.Citizens()
	phi1 := gen.CitizensFDs(dirty.Schema)[0]
	cfg := fd.DefaultDistConfig(dirty)
	if !cfg.FTViolates(phi1, 0.35, dirty.Tuples[3], dirty.Tuples[5]) {
		t.Fatal("(t4,t6) should FT-violate phi1 at tau=0.35")
	}
	// Identical projections never FT-violate.
	if cfg.FTViolates(phi1, 0.35, dirty.Tuples[0], dirty.Tuples[1]) {
		t.Fatal("identical projections flagged as FT-violation")
	}
	// Very different tuples are beyond the threshold.
	if cfg.FTViolates(phi1, 0.1, dirty.Tuples[0], dirty.Tuples[6]) {
		t.Fatal("(t1,t7) within tau=0.1?")
	}
}

func TestFTViolationCapturesTypoPairT8T9(t *testing.T) {
	// Example 3: t8 is in no classic conflict w.r.t. phi2, but FT-violates
	// with t9 because (Boton, MA) is similar to (Boston, MA).
	dirty, _ := gen.Citizens()
	phi2 := gen.CitizensFDs(dirty.Schema)[1]
	cfg := fd.DefaultDistConfig(dirty)
	t8, t9 := dirty.Tuples[7], dirty.Tuples[8]
	classic := false
	for _, u := range dirty.Tuples {
		if phi2.Violates(t8, u) {
			classic = true
		}
	}
	if classic {
		t.Fatal("t8 should have no classic phi2 violation")
	}
	if !cfg.FTViolates(phi2, 0.35, t8, t9) {
		t.Fatalf("(t8,t9) should FT-violate phi2: dist=%v", cfg.Dist(phi2, t8, t9))
	}
}

func TestTheorem1(t *testing.T) {
	// Theorem 1: when tau <= w_r * |Y|, FT-consistency implies classic
	// consistency. Check on a range of small instances: whenever
	// IsFTConsistent holds at such tau, IsConsistent must hold.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "X"},
		dataset.Attribute{Name: "Y"},
	)
	f := fd.MustParse(schema, "X->Y")
	vals := []string{"aa", "ab", "bb"}
	// Enumerate all 3-tuple instances over a tiny domain.
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			for k := 0; k < len(vals); k++ {
				for l := 0; l < len(vals); l++ {
					rel, err := dataset.FromRows(schema, [][]string{
						{vals[i], vals[j]},
						{vals[k], vals[l]},
					})
					if err != nil {
						t.Fatal(err)
					}
					cfg := fd.DefaultDistConfig(rel)
					tau := cfg.WR * float64(len(f.RHS)) // boundary value
					if fd.IsFTConsistent(rel, f, cfg, tau) && !fd.IsConsistent(rel, f) {
						t.Fatalf("Theorem 1 violated on %v", rel.Tuples)
					}
				}
			}
		}
	}
}

func TestIsConsistent(t *testing.T) {
	schema := dataset.Strings("X", "Y")
	ok, _ := dataset.FromRows(schema, [][]string{{"a", "1"}, {"a", "1"}, {"b", "2"}})
	bad, _ := dataset.FromRows(schema, [][]string{{"a", "1"}, {"a", "2"}})
	f := fd.MustParse(schema, "X->Y")
	if !fd.IsConsistent(ok, f) {
		t.Fatal("consistent instance flagged")
	}
	if fd.IsConsistent(bad, f) {
		t.Fatal("violation missed")
	}
}

func TestDistConfigWeights(t *testing.T) {
	rel, _ := dataset.FromRows(dataset.Strings("X", "Y"), [][]string{{"a", "b"}})
	if _, err := fd.NewDistConfig(rel, 0.7, 0.2); err == nil {
		t.Fatal("weights not summing to 1 accepted")
	}
	if _, err := fd.NewDistConfig(rel, -0.5, 1.5); err == nil {
		t.Fatal("negative weight accepted")
	}
	cfg, err := fd.NewDistConfig(rel, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := fd.MustParse(rel.Schema, "X->Y")
	// With w_r = 0, RHS differences contribute nothing.
	d := cfg.Dist(f, dataset.Tuple{"a", "b"}, dataset.Tuple{"a", "zzz"})
	if d != 0 {
		t.Fatalf("w_r=0 Dist = %v", d)
	}
}

func TestNumericFallbackToString(t *testing.T) {
	schema := dataset.MustSchema(dataset.Attribute{Name: "N", Type: dataset.Numeric})
	rel, _ := dataset.FromRows(schema, [][]string{{"1"}, {"9"}})
	cfg := fd.DefaultDistConfig(rel)
	// Unparseable numerics compare as strings rather than panicking.
	if d := cfg.AttrDist(0, "abc", "abd"); d != 1.0/3.0 {
		t.Fatalf("fallback dist = %v", d)
	}
	if d := cfg.AttrDist(0, "1", "9"); d != 1 {
		t.Fatalf("numeric dist = %v (span 8)", d)
	}
	if d := cfg.AttrDist(0, "5", "5"); d != 0 {
		t.Fatalf("identical numeric dist = %v", d)
	}
}

func TestTupleAndDatabaseCost(t *testing.T) {
	dirty, clean := gen.Citizens()
	cfg := fd.DefaultDistConfig(dirty)
	// Identical tuples cost 0.
	if c := cfg.TupleCost(dirty.Tuples[0], clean.Tuples[0]); c != 0 {
		t.Fatalf("t1 cost = %v", c)
	}
	// t6: one typo repaired, Masers -> Masters: 1 edit / 7 runes.
	if c := cfg.TupleCost(dirty.Tuples[5], clean.Tuples[5]); !almostEqual(c, 1.0/7) {
		t.Fatalf("t6 cost = %v", c)
	}
	total := cfg.DatabaseCost(dirty, clean)
	if total <= 0 {
		t.Fatalf("DatabaseCost = %v", total)
	}
	// Cost is symmetric because every attribute distance is.
	if back := cfg.DatabaseCost(clean, dirty); !almostEqual(total, back) {
		t.Fatalf("asymmetric cost: %v vs %v", total, back)
	}
}

func TestSetAndComponents(t *testing.T) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	set, err := fd.NewSet(fds, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	comps := set.Components()
	// phi1 is independent; phi2 and phi3 share City.
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 1 || comps[0][0] != 0 {
		t.Fatalf("first component = %v", comps[0])
	}
	if len(comps[1]) != 2 {
		t.Fatalf("second component = %v", comps[1])
	}
	sub := set.Subset(comps[1])
	if len(sub.FDs) != 2 || sub.FDs[0] != fds[1] {
		t.Fatalf("Subset = %v", sub.FDs)
	}
}

func TestNewSetValidation(t *testing.T) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	if _, err := fd.NewSet(nil, 0.3); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := fd.NewSet(fds); err == nil {
		t.Fatal("no thresholds accepted")
	}
	if _, err := fd.NewSet(fds, 0.1, 0.2); err == nil {
		t.Fatal("mismatched threshold count accepted")
	}
	if _, err := fd.NewSet(fds, -0.1); err == nil {
		t.Fatal("negative threshold accepted")
	}
	s, err := fd.NewSet(fds, 0.1, 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tau[2] != 0.3 {
		t.Fatalf("per-FD thresholds = %v", s.Tau)
	}
}

func TestDistinctProjections(t *testing.T) {
	dirty, _ := gen.Citizens()
	phi1 := gen.CitizensFDs(dirty.Schema)[0]
	got := fd.DistinctProjections(dirty, phi1)
	// Distinct (Education, Level) pairs in the dirty table:
	// (Bachelors,3) (Masters,4) (Masers,4) (HS-grad,9) (Masters,3)
	// (Bachelors,1) (Bachelers,3) = 7.
	if len(got) != 7 {
		t.Fatalf("DistinctProjections = %d patterns", len(got))
	}
}

func TestSelectTauFindsKnee(t *testing.T) {
	// Construct an instance where typo pairs are at distance ~0.07 and
	// unrelated pairs far away; the knee heuristic must pick a tau between.
	schema := dataset.Strings("X", "Y")
	rel, _ := dataset.FromRows(schema, [][]string{
		{"alphabet", "one"},
		{"alphabex", "one"}, // typo of the first
		{"zzzzzzzz", "two"},
		{"qqqqqqqq", "three"},
		{"mmmmmmmm", "four"},
	})
	f := fd.MustParse(schema, "X->Y")
	cfg := fd.DefaultDistConfig(rel)
	tau := fd.SelectTau(rel, f, cfg, fd.TauOptions{})
	typoDist := cfg.Dist(f, rel.Tuples[0], rel.Tuples[1])
	farDist := cfg.Dist(f, rel.Tuples[0], rel.Tuples[2])
	if tau < typoDist || tau >= farDist {
		t.Fatalf("tau = %v, want in [%v, %v)", tau, typoDist, farDist)
	}
}

func TestSelectTauFallbacks(t *testing.T) {
	schema := dataset.Strings("X", "Y")
	// One pattern only: no pairs, fallback applies.
	rel, _ := dataset.FromRows(schema, [][]string{{"a", "1"}, {"a", "1"}})
	f := fd.MustParse(schema, "X->Y")
	cfg := fd.DefaultDistConfig(rel)
	if tau := fd.SelectTau(rel, f, cfg, fd.TauOptions{Fallback: 0.25}); tau != 0.25 {
		t.Fatalf("fallback tau = %v", tau)
	}
	// Shrink scales the result.
	if tau := fd.SelectTau(rel, f, cfg, fd.TauOptions{Fallback: 0.25, Shrink: 0.5}); tau != 0.125 {
		t.Fatalf("shrunk tau = %v", tau)
	}
}

func TestSelectTauSampling(t *testing.T) {
	// Many patterns: sampling path must still return something sane.
	schema := dataset.Strings("X", "Y")
	rel := dataset.NewRelation(schema)
	for i := 0; i < 100; i++ {
		v := strings.Repeat("ab", 3) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if err := rel.Append(dataset.Tuple{v, "y"}); err != nil {
			t.Fatal(err)
		}
	}
	f := fd.MustParse(schema, "X->Y")
	cfg := fd.DefaultDistConfig(rel)
	tau := fd.SelectTau(rel, f, cfg, fd.TauOptions{MaxPatterns: 20, Seed: 7})
	if tau <= 0 || tau > 1 {
		t.Fatalf("sampled tau = %v", tau)
	}
}

func TestEditFlavorOSA(t *testing.T) {
	rel, _ := dataset.FromRows(dataset.Strings("X", "Y"), [][]string{{"ab", "1"}})
	cfg := fd.DefaultDistConfig(rel)
	// Levenshtein counts a transposition as two edits; OSA as one.
	if d := cfg.AttrDist(0, "boston", "bsoton"); d != 2.0/6 {
		t.Fatalf("Levenshtein transposition dist = %v", d)
	}
	cfg.Edit = fd.EditOSA
	if d := cfg.AttrDist(0, "boston", "bsoton"); d != 1.0/6 {
		t.Fatalf("OSA transposition dist = %v", d)
	}
	// Bounded: tau 0.1 leaves X a budget of 0.1/w_l = 0.2.
	f := fd.MustParse(rel.Schema, "X->Y")
	if d, ok := cfg.DistWithin(f, 0.1, dataset.Tuple{"boston", "1"}, dataset.Tuple{"bsoton", "1"}); !ok || d != cfg.WL*(1.0/6) {
		t.Fatalf("DistWithin OSA = %v, %v", d, ok)
	}
	if _, ok := cfg.DistWithin(f, 0.1, dataset.Tuple{"boston", "1"}, dataset.Tuple{"dallas", "1"}); ok {
		t.Fatal("far pair accepted")
	}
}
