package repair_test

import (
	"reflect"
	"sort"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

func TestDetectCitizensPhi2(t *testing.T) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	set, err := fd.NewSet(fds[1:2], 0.5) // phi2: City -> State
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(dirty)
	violations := repair.Detect(dirty, set, cfg, repair.Options{})
	if len(violations) == 0 {
		t.Fatal("no violations detected")
	}
	// The typo pair (Boton,MA)-(Boston,MA) must be detected — the paper's
	// Example 3 — and as a non-classic (similarity-only) violation.
	foundTypo := false
	foundClassic := false
	for _, v := range violations {
		if (v.Left[0] == "Boton" && v.Right[0] == "Boston") || (v.Left[0] == "Boston" && v.Right[0] == "Boton") {
			if v.Left[1] == "MA" && v.Right[1] == "MA" {
				foundTypo = true
				if v.Classic {
					t.Error("typo pair flagged as classic violation")
				}
			}
		}
		if v.Classic {
			foundClassic = true
			if v.Left[0] != v.Right[0] {
				t.Errorf("classic violation with different LHS: %v vs %v", v.Left, v.Right)
			}
		}
		if v.Dist > v.Tau {
			t.Errorf("violation beyond threshold: %+v", v)
		}
		if len(v.LeftRows) == 0 || len(v.RightRows) == 0 {
			t.Errorf("violation without carrier rows: %+v", v)
		}
	}
	if !foundTypo {
		t.Error("(Boton,MA)-(Boston,MA) not detected")
	}
	if !foundClassic {
		t.Error("no classic violation detected (e.g. (New York,NY)-(New York,MA))")
	}
	// Sorted ascending by distance within the FD.
	for i := 1; i < len(violations); i++ {
		if violations[i-1].Dist > violations[i].Dist {
			t.Fatalf("violations not sorted by distance at %d", i)
		}
	}
}

func TestDetectCleanRelation(t *testing.T) {
	_, clean := gen.Citizens()
	fds := gen.CitizensFDs(clean.Schema)
	set, err := fd.NewSet(fds, 0.1, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(clean)
	if vs := repair.Detect(clean, set, cfg, repair.Options{}); len(vs) != 0 {
		t.Fatalf("clean relation produced %d violations at tight threshold", len(vs))
	}
}

func TestDetectDistMatchesDistFunction(t *testing.T) {
	// Detect reuses the violation distance the graph builder recorded on
	// each edge (Edge.D) instead of re-deriving it; the reported Dist must
	// still equal the Eq-2 distance between the patterns.
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	set, err := fd.NewSet(fds, 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(dirty)
	vs := repair.Detect(dirty, set, cfg, repair.Options{})
	if len(vs) == 0 {
		t.Fatal("no violations detected")
	}
	for _, v := range vs {
		left, right := dirty.Tuples[v.LeftRows[0]], dirty.Tuples[v.RightRows[0]]
		if want := cfg.Dist(v.FD, left, right); !fd.FloatEq(v.Dist, want) {
			t.Fatalf("violation Dist = %v, cfg.Dist = %v for %v vs %v", v.Dist, want, v.Left, v.Right)
		}
	}
}

func TestDetectMultipleFDsOrdered(t *testing.T) {
	dirty, _ := gen.Citizens()
	fds := gen.CitizensFDs(dirty.Schema)
	set, err := fd.NewSet(fds, 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fd.DefaultDistConfig(dirty)
	vs := repair.Detect(dirty, set, cfg, repair.Options{})
	// Violations group by FD in set order.
	lastFD := -1
	index := map[*fd.FD]int{fds[0]: 0, fds[1]: 1, fds[2]: 2}
	for _, v := range vs {
		i := index[v.FD]
		if i < lastFD {
			t.Fatal("violations not grouped by FD order")
		}
		lastFD = i
	}
	// All three FDs have at least one violation on the dirty table.
	seen := map[int]bool{}
	for _, v := range vs {
		seen[index[v.FD]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("violations found for %d FDs, want 3", len(seen))
	}
}

// detectCopying is the reference Detect: the same graphs, loop and sort,
// but every violation copies both patterns' projections and row lists.
func detectCopying(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig) []repair.Violation {
	graphs := vgraph.BuildSet(rel, set.FDs, cfg, set.Tau, vgraph.Options{})
	var out []repair.Violation
	for i, f := range set.FDs {
		g := graphs[i]
		attrs := f.Attrs()
		start := len(out)
		for u := range g.Vertices {
			for _, e := range g.Neighbors(u) {
				if e.To <= u {
					continue
				}
				left, right := g.Vertices[u], g.Vertices[e.To]
				out = append(out, repair.Violation{
					FD:        f,
					Tau:       set.Tau[i],
					Left:      left.Rep.Project(attrs),
					Right:     right.Rep.Project(attrs),
					LeftRows:  append([]int(nil), left.Rows...),
					RightRows: append([]int(nil), right.Rows...),
					Dist:      e.D,
					Weight:    e.W,
					Classic:   f.Violates(left.Rep, right.Rep),
				})
			}
		}
		chunk := out[start:]
		sort.Slice(chunk, func(a, b int) bool {
			if !fd.FloatEq(chunk[a].Dist, chunk[b].Dist) {
				return chunk[a].Dist < chunk[b].Dist
			}
			return chunk[a].LeftRows[0] < chunk[b].LeftRows[0]
		})
	}
	return out
}

// TestDetectMatchesCopyingReference holds Detect, which shares each
// pattern's projection and row list among its violations, to the copying
// reference on HOSP and Tax draws: the same violations in the same order
// with the same values, and row lists capped so an append cannot write
// into a list another violation shares.
func TestDetectMatchesCopyingReference(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 150
	}
	for _, w := range []string{"hosp", "tax"} {
		for _, seed := range []int64{3, 11} {
			inst, err := eval.Prepare(eval.Setup{Workload: w, N: n, ErrorRate: 0.05, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got := repair.Detect(inst.Dirty, inst.Set, inst.Cfg, repair.Options{})
			want := detectCopying(inst.Dirty, inst.Set, inst.Cfg)
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("%s seed %d: %d violations, reference %d", w, seed, len(got), len(want))
			}
			for k := range got {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Fatalf("%s seed %d: violation %d = %+v, reference %+v", w, seed, k, got[k], want[k])
				}
				if cap(got[k].LeftRows) != len(got[k].LeftRows) || cap(got[k].RightRows) != len(got[k].RightRows) {
					t.Fatalf("%s seed %d: violation %d row lists are not capped", w, seed, k)
				}
			}
		}
	}
}
