package repair_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
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
}

// singleFD adapts a single-FD algorithm to a one-FD set.
func singleFD(algo func(*dataset.Relation, *fd.FD, *fd.DistConfig, float64, repair.Options) (*repair.Result, error)) multiAlgo {
	return func(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts repair.Options) (*repair.Result, error) {
		return algo(rel, set.FDs[0], cfg, set.Tau[0], opts)
	}
}

// contractCases draws HOSP and Tax inputs for all five algorithms, plus a
// HOSP draw of several FD components with inferred types for the two
// multi-FD heuristics.
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
			contractCase{w + "/ExactS", small.Dirty, small.Set.Subset([]int{0}), small.Cfg, singleFD(repair.ExactS)},
			contractCase{w + "/GreedyS", inst.Dirty, one, inst.Cfg, singleFD(repair.GreedyS)},
			contractCase{w + "/ExactM", small.Dirty, small.Set, small.Cfg, repair.ExactM},
			contractCase{w + "/ApproM", inst.Dirty, inst.Set, inst.Cfg, repair.ApproM},
			contractCase{w + "/GreedyM", inst.Dirty, inst.Set, inst.Cfg, repair.GreedyM},
		)
	}
	rel, set, cfg := hospInferred(t, nil)
	cases = append(cases,
		contractCase{"hosp-inferred/ApproM", rel, set, cfg, repair.ApproM},
		contractCase{"hosp-inferred/GreedyM", rel, set, cfg, repair.GreedyM},
	)
	return cases
}

// hospInferred is a 120-row HOSP draw of several FD components whose
// types profile.Retype infers or, when numeric is non-nil, that declares
// the named columns numeric and the rest strings.
func hospInferred(t *testing.T, numeric []string) (*dataset.Relation, *fd.Set, *fd.DistConfig) {
	t.Helper()
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 120, ErrorRate: 0.04, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(inst.Set.Components()); n < 2 {
		t.Fatalf("the draw has %d FD components, want several", n)
	}
	rel := profile.Retype(inst.Dirty)
	if numeric != nil {
		attrs := make([]dataset.Attribute, rel.Schema.Len())
		for i := range attrs {
			attrs[i] = dataset.Attribute{Name: rel.Schema.Attr(i).Name, Type: dataset.String}
			if slices.Contains(numeric, attrs[i].Name) {
				attrs[i].Type = dataset.Numeric
			}
		}
		// Cells that do not parse keep their string value, as under
		// Retype; the distance layer compares them as strings.
		rel = &dataset.Relation{Schema: dataset.MustSchema(attrs...), Tuples: inst.Dirty.Tuples}
	}
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return rel, inst.Set, cfg
}

// sameRow reports whether two rows share their backing array.
func sameRow(a, b dataset.Tuple) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestOutputContract checks the output contract of every algorithm at
// Parallel 1, 2 and 8 and GOMAXPROCS 1 and 2, with a ledger attached: the
// repair is valid and FT-consistent, Changed and the Cost bits equal
// dataset.Diff and DatabaseCost recomputed over the input and Repaired,
// the input is left as it was, no changed row aliases an input row while
// every unchanged row does, and outputs, Changed, Cost bits and ledger run
// roots match the Parallel 1 run.
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
				if err := repair.VerifyValid(c.rel, res.Repaired, c.set); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if err := repair.VerifyFTConsistent(res.Repaired, c.set, c.cfg); err != nil {
					t.Fatalf("%s: %v", where, err)
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
					if !changedRow[row] && !shared {
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

// TestEmptyJoinIsAnError runs GreedyM and ApproM on the contract's
// inferred HOSP draw with Provider, Zip, Score and Sample declared numeric.
// Numeric distance over the identifier columns' range puts distinct
// providers and zips within τ, and in one component the grown sets join
// into no target: both algorithms must say so with ErrEmptyJoin and no
// Result at any Parallel, not return an invalid best effort.
func TestEmptyJoinIsAnError(t *testing.T) {
	rel, set, cfg := hospInferred(t, []string{"Provider", "Zip", "Score", "Sample"})
	for _, algo := range []repair.Algorithm{repair.AlgoGreedyM, repair.AlgoApproM} {
		for _, parallel := range []int{1, 2} {
			res, err := repair.Run(rel, set, cfg, algo, repair.Options{Parallel: parallel})
			if !errors.Is(err, repair.ErrEmptyJoin) || res != nil {
				t.Fatalf("%s Parallel=%d: err %v, Result %v; want ErrEmptyJoin and no Result", algo, parallel, err, res != nil)
			}
		}
	}
}

// TestInferredTypesRepairValid repairs 500-row HOSP and Tax draws under
// inferred types, as repaird and the CLI read a CSV without a type spec:
// GreedyM and ApproM must return valid, FT-consistent repairs. Each draw
// has an identifier column with a few off-width typos (HOSP) or a 3-digit
// code column (Tax) that inference once read as numeric.
func TestInferredTypesRepairValid(t *testing.T) {
	for _, d := range []struct {
		workload string
		seed     int64
	}{{"hosp", 100005}, {"hosp", 100009}, {"tax", 100012}, {"tax", 100013}} {
		inst, err := eval.Prepare(eval.Setup{Workload: d.workload, N: 500, ErrorRate: 0.04, Seed: d.seed})
		if err != nil {
			t.Fatal(err)
		}
		rel, set := profile.Retype(inst.Dirty), inst.Set
		cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []repair.Algorithm{repair.AlgoGreedyM, repair.AlgoApproM} {
			where := fmt.Sprintf("%s seed %d %s", d.workload, d.seed, algo)
			res, err := repair.Run(rel, set, cfg, algo, repair.Options{})
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if err := repair.VerifyValid(rel, res.Repaired, set); err != nil {
				t.Errorf("%s: %v", where, err)
			}
			if err := repair.VerifyFTConsistent(res.Repaired, set, cfg); err != nil {
				t.Errorf("%s: %v", where, err)
			}
		}
	}
}
