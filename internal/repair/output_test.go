package repair_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/profile"
	"ftrepair/internal/repair"
)

// contractCase is one algorithm run over one input.
type contractCase struct {
	name string
	rel  *dataset.Relation
	set  *fd.Set
	cfg  *fd.DistConfig
	run  multiAlgo
	// fallback requires the run to go through sequentialFallback.
	fallback bool
}

// singleFD adapts a single-FD algorithm to a one-FD set.
func singleFD(algo func(*dataset.Relation, *fd.FD, *fd.DistConfig, float64, repair.Options) (*repair.Result, error)) multiAlgo {
	return func(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts repair.Options) (*repair.Result, error) {
		return algo(rel, set.FDs[0], cfg, set.Tau[0], opts)
	}
}

// contractCases draws HOSP and Tax inputs for all five algorithms, plus a
// two-component HOSP draw with inferred types whose GreedyM and ApproM runs
// join into no target in one component and go through sequentialFallback.
func contractCases(t *testing.T) []contractCase {
	t.Helper()
	var cases []contractCase
	for _, w := range []string{"hosp", "tax"} {
		inst, err := eval.Prepare(eval.Setup{Workload: w, N: 300, ErrorRate: 0.05, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		small, err := eval.Prepare(eval.Setup{Workload: w, N: 80, FDs: 3, ErrorRate: 0.03, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		one := inst.Set.Subset([]int{0})
		cases = append(cases,
			contractCase{w + "/ExactS", small.Dirty, small.Set.Subset([]int{0}), small.Cfg, singleFD(repair.ExactS), false},
			contractCase{w + "/GreedyS", inst.Dirty, one, inst.Cfg, singleFD(repair.GreedyS), false},
			contractCase{w + "/ExactM", small.Dirty, small.Set, small.Cfg, repair.ExactM, false},
			contractCase{w + "/ApproM", inst.Dirty, inst.Set, inst.Cfg, repair.ApproM, false},
			contractCase{w + "/GreedyM", inst.Dirty, inst.Set, inst.Cfg, repair.GreedyM, false},
		)
	}
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 120, ErrorRate: 0.04, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rel := profile.Retype(inst.Dirty)
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(inst.Set.Components()); n < 2 {
		t.Fatalf("fallback draw has %d FD components, want several", n)
	}
	cases = append(cases,
		contractCase{"hosp-inferred/ApproM", rel, inst.Set, cfg, repair.ApproM, true},
		contractCase{"hosp-inferred/GreedyM", rel, inst.Set, cfg, repair.GreedyM, true},
	)
	return cases
}

// sameRow reports whether two rows share their backing array.
func sameRow(a, b dataset.Tuple) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestOutputContract checks the copy-on-write output contract of every
// algorithm at Parallel 1, 2 and 8 and GOMAXPROCS 1 and 2, with a ledger
// attached: Changed and the Cost bits equal dataset.Diff and
// DatabaseCost recomputed over the input and Repaired, the input is left
// as it was, no changed row aliases an input row while every unchanged row
// of a run without the fallback does, and outputs, Changed, Cost bits and
// ledger run roots match the Parallel 1 run.
func TestOutputContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range contractCases(t) {
		var ref *repair.Result
		var refRoot string
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, parallel := range []int{1, 2, 8} {
				where := fmt.Sprintf("%s GOMAXPROCS=%d Parallel=%d", c.name, procs, parallel)
				before := c.rel.Clone()
				led := ledger.New()
				res, err := c.run(c.rel, c.set, c.cfg, repair.Options{Parallel: parallel, Ledger: led})
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				fellBack := res.Stats["joinFallback"] > 0
				if fellBack != c.fallback {
					t.Fatalf("%s: joinFallback %d, want fallback %v", where, res.Stats["joinFallback"], c.fallback)
				}
				if cells, err := dataset.Diff(before, c.rel); err != nil || len(cells) != 0 {
					t.Fatalf("%s: the input changed at %v (%v)", where, cells, err)
				}
				want, err := dataset.Diff(c.rel, res.Repaired)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%s: nothing repaired; the draw shows nothing", where)
				}
				if !reflect.DeepEqual(res.Changed, want) {
					t.Fatalf("%s: Changed (%d cells) differs from Diff (%d cells)", where, len(res.Changed), len(want))
				}
				if got, want := math.Float64bits(res.Cost), math.Float64bits(c.cfg.DatabaseCost(c.rel, res.Repaired)); got != want {
					t.Fatalf("%s: Cost bits %x, DatabaseCost bits %x", where, got, want)
				}
				changedRow := make(map[int]bool, len(want))
				for _, cell := range want {
					changedRow[cell.Row] = true
				}
				for row, tup := range res.Repaired.Tuples {
					shared := sameRow(tup, c.rel.Tuples[row])
					if changedRow[row] && shared {
						t.Fatalf("%s: changed row %d aliases the input row", where, row)
					}
					if !changedRow[row] && !shared && !fellBack {
						t.Fatalf("%s: unchanged row %d was copied", where, row)
					}
				}
				root := led.RunRootHex()
				if ref == nil {
					ref, refRoot = res, root
					continue
				}
				if cells, err := dataset.Diff(ref.Repaired, res.Repaired); err != nil || len(cells) != 0 {
					t.Fatalf("%s: output differs from the first run at %v (%v)", where, cells, err)
				}
				if !reflect.DeepEqual(res.Changed, ref.Changed) || math.Float64bits(res.Cost) != math.Float64bits(ref.Cost) {
					t.Fatalf("%s: Changed or Cost differs from the first run", where)
				}
				if root != refRoot {
					t.Fatalf("%s: ledger run root %s, first run %s", where, root, refRoot)
				}
			}
		}
	}
}
