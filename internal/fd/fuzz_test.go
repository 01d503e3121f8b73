package fd_test

import (
	"math"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/strsim"
)

// FuzzParse ensures the FD parser never panics and that accepted specs
// round-trip through String back into an equivalent FD.
func FuzzParse(f *testing.F) {
	f.Add("City -> State")
	f.Add("phi: A,B -> C")
	f.Add("x:->")
	f.Add("A->B->C")
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 256 {
			t.Skip()
		}
		schema := dataset.Strings("A", "B", "C", "City", "State")
		parsed, err := fd.Parse(schema, spec)
		if err != nil {
			return
		}
		if len(parsed.LHS) == 0 || len(parsed.RHS) == 0 {
			t.Fatalf("accepted FD with empty side: %q", spec)
		}
		for _, c := range parsed.Attrs() {
			if c < 0 || c >= schema.Len() {
				t.Fatalf("attribute out of range: %q -> %v", spec, parsed.Attrs())
			}
		}
	})
}

// FuzzParseCFD exercises the CFD spec parser.
func FuzzParseCFD(f *testing.F) {
	f.Add("A -> B | x, _")
	f.Add("A -> B | x, y ; _, _")
	f.Add("A -> B |")
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 256 {
			t.Skip()
		}
		schema := dataset.Strings("A", "B", "C")
		c, err := fd.ParseCFD(schema, spec)
		if err != nil {
			return
		}
		if len(c.Tableau) == 0 {
			t.Fatalf("accepted CFD with empty tableau: %q", spec)
		}
		for _, row := range c.Tableau {
			if len(row.LHS) != len(c.Embedded.LHS) || len(row.RHS) != len(c.Embedded.RHS) {
				t.Fatalf("misaligned tableau accepted: %q", spec)
			}
		}
	})
}

// FuzzPairMatcher holds the one distance evaluator to strsim's uncached
// functions on a string column, for each edit flavor, with distance planes
// attached and without, and with the candidate interned or not: the
// config's DistWithin and RepairDist and a PairMatcher's DistWithin,
// RepairDist and Score must return the reference's float bits (and ok
// flag), cold and warm. Every call must also add to hits + misses exactly
// the string lookups it made: one per differing pair, none for a pair the
// length bound rejects.
func FuzzPairMatcher(f *testing.F) {
	f.Add("boston", "bostn", uint8(0), uint8(30), true, true)
	f.Add("boston", "bsoton", uint8(1), uint8(20), true, true)
	f.Add("boston", "boston", uint8(2), uint8(0), false, true)
	f.Add("", "x", uint8(0), uint8(100), true, false)
	f.Add("héllo", "h好llo", uint8(1), uint8(80), true, true)
	f.Add("日本語のテキスト", "日本语のテキスト", uint8(2), uint8(50), false, false)
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabcde", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaedcba", uint8(0), uint8(10), true, true)
	f.Fuzz(func(t *testing.T, a, b string, flavorIn, tauPct uint8, planes, internB bool) {
		if len(a) > 128 || len(b) > 128 {
			t.Skip()
		}
		flavor := fd.EditFlavor(flavorIn % 3)
		rows := [][]string{{a, "x"}, {"filler", "x"}}
		if internB {
			rows = append(rows, []string{b, "x"})
		}
		schema := dataset.Strings("A", "B")
		rel, err := dataset.FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		phi := fd.MustParse(schema, "A->B")
		cfg := fd.DefaultDistConfig(rel)
		cfg.Edit = flavor
		cfg.SetConfidence(0, 1.5)
		if planes {
			cfg.AttachPlanes()
		} else {
			cfg.Cache = fd.NewDistCache()
		}
		t1, t2 := dataset.Tuple{a, "x"}, dataset.Tuple{b, "x"}
		tau := float64(tauPct) / 100
		budget := min(tau/cfg.WL, 1)

		// The reference: strsim's uncached functions.
		var want float64
		wantD, wantOK := 0.0, true
		dwLookups, lookups := 0, 0
		if a != b {
			lookups = 1
			var nd float64
			var ok bool
			switch flavor {
			case fd.EditOSA:
				want = strsim.NormalizedOSA(a, b)
				nd, ok = strsim.NormalizedOSAWithin(a, b, budget)
			case fd.EditJaccard:
				want = strsim.JaccardDistance(a, b, 2)
				nd, ok = want, want <= budget
			default:
				want = strsim.NormalizedEdit(a, b)
				nd, ok = strsim.NormalizedEditWithin(a, b, budget)
			}
			if sum := cfg.WL * nd; ok && sum <= tau {
				wantD = sum
			} else {
				wantD, wantOK = 0, false
			}
			if flavor == fd.EditJaccard || strsim.MinDistByLength(a, b) <= budget {
				dwLookups = 1
			}
		}
		want *= 1.5

		total := func() uint64 {
			h, m := cfg.Cache.Counters()
			return h + m
		}
		call := func(name string, n int, do func()) {
			before := total()
			do()
			if got := total() - before; got != uint64(n) {
				t.Fatalf("%s(%q, %q) flavor %d planes %v: added %d lookups, made %d", name, a, b, flavor, planes, got, n)
			}
		}
		same := func(name string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%q, %q) flavor %d planes %v = %v, uncached %v", name, a, b, flavor, planes, got, want)
			}
		}
		for pass := 0; pass < 2; pass++ {
			call("DistConfig.DistWithin", dwLookups, func() {
				d, ok := cfg.DistWithin(phi, tau, t1, t2)
				if ok != wantOK {
					t.Fatalf("DistWithin(%q, %q) flavor %d tau %v: ok %v, uncached %v", a, b, flavor, tau, ok, wantOK)
				}
				same("DistConfig.DistWithin", d, wantD)
			})
			// The matcher's bounded query meets the cell the first left:
			// a lower bound when it rejected, not yet the exact value its
			// RepairDist then fills.
			call("PairMatcher", dwLookups+2*lookups, func() {
				pm := cfg.AcquirePairMatcher(phi, t1)
				defer pm.Release()
				d, ok := pm.DistWithin(tau, t2)
				if ok != wantOK {
					t.Fatalf("PairMatcher.DistWithin(%q, %q) flavor %d tau %v: ok %v, uncached %v", a, b, flavor, tau, ok, wantOK)
				}
				same("PairMatcher.DistWithin", d, wantD)
				same("PairMatcher.RepairDist", pm.RepairDist(0, t2), want)
				same("PairMatcher.Score", pm.Score(0, cfg.ValueCode(0, b), b), want)
			})
			call("DistConfig.RepairDist", lookups, func() { same("DistConfig.RepairDist", cfg.RepairDist(0, a, b), want) })
		}
	})
}
