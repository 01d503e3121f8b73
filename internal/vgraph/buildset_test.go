package vgraph_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/vgraph"
)

// sameGraph requires b to equal a bit for bit: vertex order, Rep, Rows,
// Canon, every row's vertex, Lookup of every row, and the CSR adjacency
// with exact weights and distances.
func sameGraph(a, b *vgraph.Graph, rel *dataset.Relation) error {
	if len(a.Vertices) != len(b.Vertices) {
		return fmt.Errorf("vertex counts differ: %d vs %d", len(a.Vertices), len(b.Vertices))
	}
	for v := range a.Vertices {
		va, vb := a.Vertices[v], b.Vertices[v]
		if fmt.Sprint(va.Rep) != fmt.Sprint(vb.Rep) || fmt.Sprint(va.Rows) != fmt.Sprint(vb.Rows) {
			return fmt.Errorf("vertex %d differs: %v %v vs %v %v", v, va.Rep, va.Rows, vb.Rep, vb.Rows)
		}
		if a.Canon(v) != b.Canon(v) {
			return fmt.Errorf("vertex %d canon differs: %d vs %d", v, a.Canon(v), b.Canon(v))
		}
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return fmt.Errorf("vertex %d degree differs: %d vs %d", v, len(na), len(nb))
		}
		for k := range na {
			if na[k].To != nb[k].To || math.Float64bits(na[k].W) != math.Float64bits(nb[k].W) || math.Float64bits(na[k].D) != math.Float64bits(nb[k].D) {
				return fmt.Errorf("vertex %d edge %d differs: %+v vs %+v", v, k, na[k], nb[k])
			}
		}
	}
	for r, t := range rel.Tuples {
		if a.RowVertex(r) != b.RowVertex(r) {
			return fmt.Errorf("row %d vertex differs: %d vs %d", r, a.RowVertex(r), b.RowVertex(r))
		}
		la, _ := a.Lookup(t)
		lb, _ := b.Lookup(t)
		if la != lb || la != a.Canon(a.RowVertex(r)) {
			return fmt.Errorf("row %d Lookup %d vs %d, canonical row vertex %d", r, la, lb, a.Canon(a.RowVertex(r)))
		}
	}
	return nil
}

// sameAsKeyGrouping holds g's vertices to the string-keyed grouping: one
// vertex per distinct Tuple.Key in first-occurrence row order (one per row
// without grouping, canonicalized to the key's last row).
func sameAsKeyGrouping(g *vgraph.Graph, rel *dataset.Relation, ungrouped bool) error {
	attrs := g.FD.Attrs()
	byKey := map[string]int{}
	var rows [][]int
	for r, t := range rel.Tuples {
		k := t.Key(attrs)
		vi, ok := byKey[k]
		if !ok || ungrouped {
			vi = len(rows)
			byKey[k] = vi
			rows = append(rows, nil)
		}
		rows[vi] = append(rows[vi], r)
	}
	if len(rows) != len(g.Vertices) {
		return fmt.Errorf("%d key groups, %d vertices", len(rows), len(g.Vertices))
	}
	for v := range rows {
		if fmt.Sprint(rows[v]) != fmt.Sprint(g.Vertices[v].Rows) {
			return fmt.Errorf("vertex %d rows %v, key group %v", v, g.Vertices[v].Rows, rows[v])
		}
		if want := byKey[rel.Tuples[rows[v][0]].Key(attrs)]; g.Canon(v) != want {
			return fmt.Errorf("vertex %d canon %d, key class %d", v, g.Canon(v), want)
		}
	}
	return nil
}

// recombine returns tuples that take one row's first LHS value and
// another row's other FD values, keeping those whose projection is no
// vertex of g: the hypothetical patterns joint growth counts.
func recombine(rng *rand.Rand, rel *dataset.Relation, g *vgraph.Graph, n int) []dataset.Tuple {
	var out []dataset.Tuple
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		t := rel.Tuples[rng.Intn(rel.Len())].Clone()
		other := rel.Tuples[rng.Intn(rel.Len())]
		for _, c := range g.FD.Attrs()[1:] {
			t[c] = other[c]
		}
		if _, ok := g.Lookup(t); !ok {
			out = append(out, t)
		}
	}
	return out
}

type buildCase struct {
	name string
	rel  *dataset.Relation
	cfg  *fd.DistConfig
}

// buildCases derives the relations a BuildSet call meets from one dirty
// draw and its config: the input, a row subset (an incremental shard), a
// clone with one probe value rewritten to another (a repair in place), the
// input plus rows carrying values the config never interned (a session
// append), and the input under a literal config without dictionaries.
func buildCases(t *testing.T, dirty *dataset.Relation, cfg *fd.DistConfig, probe int) []buildCase {
	t.Helper()
	shard := dataset.NewRelation(dirty.Schema)
	for r, tup := range dirty.Tuples {
		if r%3 != 0 {
			shard.Tuples = append(shard.Tuples, tup)
		}
	}
	mutated := dirty.Clone()
	from, to := mutated.Tuples[0][probe], mutated.Tuples[1][probe]
	for _, tup := range mutated.Tuples {
		if tup[probe] == from {
			tup[probe] = to
		}
	}
	appended := dirty.Clone()
	for r := 0; r < 30; r++ {
		tup := dirty.Tuples[r*7%dirty.Len()].Clone()
		for c := range tup {
			if dirty.Schema.Attr(c).Type == dataset.String && (r+c)%3 == 0 {
				tup[c] += "q"
			}
		}
		appended.Tuples = append(appended.Tuples, tup)
	}
	literal := &fd.DistConfig{Schema: cfg.Schema, WL: cfg.WL, WR: cfg.WR, Spans: cfg.Spans}
	return []buildCase{
		{"input", dirty, cfg},
		{"shard", shard, cfg},
		{"mutated", mutated, cfg},
		{"appended", appended, cfg},
		{"literal", dirty, literal},
	}
}

func TestBuildSetMatchesPrivateBuilds(t *testing.T) {
	// Every graph of a 9-FD BuildSet call, whose FDs share the column
	// encoding and probe joins, must equal a one-FD build of the same FD,
	// and the all-pairs build where the index is on; ViolatorCount must
	// agree on recombined tuples. HOSP probes 4 columns for its 9 FDs, Tax
	// 4 (Zip, State, AreaCode, City).
	fired := make(chan struct{})
	close(fired)
	n := 400
	if testing.Short() {
		n = 150 // the race job runs short
	}
	for _, w := range []struct {
		name  string
		clean *dataset.Relation
		fds   func(*dataset.Schema) []*fd.FD
	}{
		{"hosp", gen.HOSP{Seed: 3}.Generate(n), gen.HOSPFDs},
		{"tax", gen.Tax{Seed: 3}.Generate(n), gen.TaxFDs},
	} {
		fds := w.fds(w.clean.Schema)
		dirty, _ := gen.Inject(w.clean, fds, 0.1, 4)
		cfg, err := fd.NewDistConfig(dirty, 0.7, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		taus := make([]float64, len(fds))
		for i := range taus {
			taus[i] = 0.3
		}
		rng := rand.New(rand.NewSource(9))
		for _, bc := range buildCases(t, dirty, cfg, fds[0].LHS[0]) {
			// ViolatorCount counts vertices, so each grouping mode has its
			// own all-pairs reference.
			scans := map[bool][]*vgraph.Graph{}
			for _, ungrouped := range []bool{false, true} {
				scans[ungrouped] = vgraph.BuildSet(bc.rel, fds, bc.cfg, taus, vgraph.Options{DisableIndex: true, DisableGrouping: ungrouped, Workers: 1})
			}
			probes := make([][]dataset.Tuple, len(fds))
			for i, g := range scans[false] {
				probes[i] = recombine(rng, bc.rel, g, 30)
			}
			var ref []*vgraph.Graph
			for _, opts := range []vgraph.Options{
				{Workers: 1}, {Workers: 2}, {Workers: 4},
				{DisableGrouping: true, Workers: 2},
				{DisableIndex: true, Workers: 2},
				{Cancel: fired, Workers: 2},
			} {
				name := fmt.Sprintf("%s/%s/%+v", w.name, bc.name, opts)
				shared := vgraph.BuildSet(bc.rel, fds, bc.cfg, taus, opts)
				scan := scans[opts.DisableGrouping]
				if ref == nil {
					ref = shared
				}
				for i, f := range fds {
					g := shared[i]
					if err := sameGraph(g, vgraph.Build(bc.rel, f, bc.cfg, taus[i], opts), bc.rel); err != nil {
						t.Fatalf("%s FD %s: shared vs one-FD build: %v", name, f, err)
					}
					if err := sameAsKeyGrouping(g, bc.rel, opts.DisableGrouping); err != nil {
						t.Fatalf("%s FD %s: %v", name, f, err)
					}
					if opts.Cancel != nil {
						if g.NumEdges() != 0 {
							t.Fatalf("%s FD %s: pre-fired cancel verified %d edges", name, f, g.NumEdges())
						}
					} else {
						if err := sameGraph(scan[i], g, bc.rel); err != nil {
							t.Fatalf("%s FD %s: vs all-pairs: %v", name, f, err)
						}
						if err := sameGraph(ref[i], g, bc.rel); err != nil && !opts.DisableGrouping {
							t.Fatalf("%s FD %s: vs Workers 1: %v", name, f, err)
						}
					}
					for _, tup := range probes[i] {
						if got, want := g.ViolatorCount(tup), scan[i].ViolatorCount(tup); got != want {
							t.Fatalf("%s FD %s: ViolatorCount(%v) = %d, all-pairs %d", name, f, tup, got, want)
						}
					}
				}
			}
		}
	}
}

func TestBuildSetKeepsBoundaryEdge(t *testing.T) {
	// Under the default 0.5/0.5 weights at τ 0.3, (ab, x) and (ab456, x)
	// are 0.5 * 3/5 = 0.3 apart: an edge. The probe column's join runs at
	// τ/w = 0.6, where the pair sits exactly on the threshold; a probe
	// bound rounded down from the shorter value's side lost it.
	schema := dataset.Strings("A", "B")
	rel, err := dataset.FromRows(schema, [][]string{{"ab", "x"}, {"ab456", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	f := fd.MustParse(schema, "A -> B")
	cfg := fd.DefaultDistConfig(rel)
	indexed := vgraph.Build(rel, f, cfg, 0.3, vgraph.Options{})
	scan := vgraph.Build(rel, f, cfg, 0.3, vgraph.Options{DisableIndex: true})
	if indexed.NumEdges() != 1 || scan.NumEdges() != 1 {
		t.Fatalf("edges: indexed %d, all-pairs %d, want 1 and 1", indexed.NumEdges(), scan.NumEdges())
	}
}

func TestRowGroups(t *testing.T) {
	// Rows share a group exactly when they share the projection over the
	// union of the graphs' attributes; groups run in first-occurrence row
	// order, for grouped and ungrouped graphs alike.
	clean := gen.HOSP{Seed: 2}.Generate(300)
	fds := gen.HOSPFDs(clean.Schema)
	dirty, _ := gen.Inject(clean, fds, 0.1, 3)
	cfg, err := fd.NewDistConfig(dirty, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sub := fds[:6] // h6 (County -> State) adds a column no other FD has
	taus := []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	for _, ungrouped := range []bool{false, true} {
		graphs := vgraph.BuildSet(dirty, sub, cfg, taus, vgraph.Options{DisableGrouping: ungrouped})
		for _, gs := range [][]*vgraph.Graph{graphs, graphs[:1]} {
			byKey := map[string]int{}
			var want [][]int
			for r, tup := range dirty.Tuples {
				var key string
				for _, g := range gs {
					key += tup.Key(g.FD.Attrs()) + "\x00\x00"
				}
				gi, ok := byKey[key]
				if !ok {
					gi = len(want)
					byKey[key] = gi
					want = append(want, nil)
				}
				want[gi] = append(want[gi], r)
			}
			if got := vgraph.RowGroups(gs); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("ungrouped=%v graphs=%d: groups %v, want %v", ungrouped, len(gs), got, want)
			}
		}
	}
}
