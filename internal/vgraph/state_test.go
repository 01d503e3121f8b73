package vgraph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/vgraph"
)

// stateInstance decodes fuzz bytes into a relation over (A, B string;
// N, M numeric), the FDs A -> B (probes A), A,N -> B (probes A, three
// attributes) and N -> M (numeric only: all-pairs), a config whose
// dictionaries cover only the first rows (later rows bring values no
// dictionary interned), a threshold, and the split of the rows into
// appends.
func stateInstance(t *testing.T, data []byte) (*dataset.Relation, []*fd.FD, *fd.DistConfig, []float64, []int) {
	t.Helper()
	if len(data) < 3 {
		t.Skip()
	}
	strs := []string{"boston", "bostn", "boton", "austin", "ab", "abc", "b", ""}
	rhs := []string{"ma", "mb", "ny", "nj", "x"}
	head, body := data[:3], data[3:]
	if len(body) > 4*40 {
		body = body[:4*40]
	}
	schema, err := dataset.NewSchema(
		dataset.Attribute{Name: "A", Type: dataset.String},
		dataset.Attribute{Name: "B", Type: dataset.String},
		dataset.Attribute{Name: "N", Type: dataset.Numeric},
		dataset.Attribute{Name: "M", Type: dataset.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel := dataset.NewRelation(schema)
	for i := 0; i+4 <= len(body); i += 4 {
		b := body[i : i+4]
		a := strs[int(b[0])%len(strs)]
		if b[0] >= 0xf0 {
			a += strconv.Itoa(int(b[0] & 7)) // a value late rows alone carry
		}
		row := dataset.Tuple{a, rhs[int(b[1])%len(rhs)], strconv.Itoa(int(b[2]) % 10), strconv.Itoa(int(b[3]) % 6)}
		if err := rel.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if rel.Len() == 0 {
		t.Skip()
	}
	known := &dataset.Relation{Schema: schema, Tuples: rel.Tuples[:1+int(head[0])%rel.Len()]}
	cfg, err := fd.NewDistConfig(known, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if head[1]&1 == 1 {
		cfg.Edit = fd.EditOSA // no probe column qualifies: every FD all-pairs
	}
	fds := []*fd.FD{
		fd.MustParse(schema, "A -> B"),
		fd.MustParse(schema, "A, N -> B"),
		fd.MustParse(schema, "N -> M"),
	}
	tau := 0.1 + float64(head[1]>>1)/255
	taus := []float64{tau, tau, tau}
	// Row counts per append, seeded by the third header byte: 1..4 rows
	// each, or every row in one append.
	var splits []int
	rng := rand.New(rand.NewSource(int64(head[2])))
	for off := 0; off < rel.Len(); {
		n := rel.Len() - off
		if head[2]%4 != 0 {
			n = min(1+rng.Intn(4), n)
		}
		splits = append(splits, n)
		off += n
	}
	return rel, fds, cfg, taus, splits
}

// linkComponents partitions rel's rows as the incremental engine's shards
// do: two rows are linked when they share a vertex or carry adjacent
// vertices in some graph.
func linkComponents(rel *dataset.Relation, graphs []*vgraph.Graph) [][]int {
	parent := make([]int, rel.Len())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for _, g := range graphs {
		for v := range g.Vertices {
			r0 := g.Vertices[v].Rows[0]
			for _, r := range g.Vertices[v].Rows {
				parent[find(r)] = find(r0)
			}
			for _, e := range g.Neighbors(v) {
				parent[find(g.Vertices[e.To].Rows[0])] = find(r0)
			}
		}
	}
	idx := map[int]int{}
	var comps [][]int
	for r := range parent {
		root := find(r)
		ci, ok := idx[root]
		if !ok {
			ci = len(comps)
			idx[root] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], r)
	}
	return comps
}

// FuzzStateMatchesBuildSet holds the appendable graph state to BuildSet:
// after every split of random short rows into appends (late rows carrying
// values the config never interned), the state's graphs must equal one
// BuildSet over all the rows, and the views of every pattern-closed row
// subset (each link component, and a union of several) must equal
// BuildSet over that subset, ViolatorCount on tuples no vertex carries
// included. The FDs cover a string probe, a three-attribute projection and
// a numeric-only all-pairs FD, under Levenshtein and OSA.
func FuzzStateMatchesBuildSet(f *testing.F) {
	f.Add([]byte{5, 80, 1, 0, 0, 1, 2, 1, 0, 1, 2, 2, 1, 3, 4, 3, 0, 0, 1, 240, 1, 5, 5, 4, 2, 9, 1})
	f.Add([]byte{0, 81, 2, 0, 1, 1, 1, 1, 1, 1, 1, 4, 3, 3, 3, 5, 2, 9, 0, 241, 0, 0, 0})
	f.Add([]byte{3, 200, 3, 0, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 7, 4, 8, 5, 6, 3, 7, 5})
	f.Add([]byte{9, 40, 7, 250, 1, 2, 3, 4, 1, 2, 3, 5, 2, 2, 2, 0, 0, 9, 9, 1, 4, 0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, fds, cfg, taus, splits := stateInstance(t, data)
		for _, workers := range []int{1, 3} {
			opts := vgraph.Options{Workers: workers}
			want := vgraph.BuildSet(rel, fds, cfg, taus, opts)
			st := vgraph.NewState(rel.Schema, fds, cfg, taus, opts)
			off := 0
			for _, n := range splits {
				st.Append(rel.Tuples[off : off+n])
				off += n
			}
			rng := rand.New(rand.NewSource(int64(len(data))))
			for i, g := range st.Graphs() {
				name := fmt.Sprintf("w%d %s splits %v", workers, fds[i], splits)
				if err := sameGraph(want[i], g, rel); err != nil {
					t.Fatalf("%s: appended vs BuildSet: %v", name, err)
				}
				for _, tup := range recombine(rng, rel, g, 8) {
					if got, w := g.ViolatorCount(tup), want[i].ViolatorCount(tup); got != w {
						t.Fatalf("%s: ViolatorCount(%v) = %d, BuildSet %d", name, tup, got, w)
					}
				}
			}

			comps := linkComponents(rel, st.Graphs())
			subsets := comps
			if len(comps) > 1 {
				var union []int
				for _, ci := range rng.Perm(len(comps))[:1+rng.Intn(len(comps)-1)] {
					union = append(union, comps[ci]...)
				}
				slices.Sort(union)
				subsets = append(subsets[:len(subsets):len(subsets)], union)
			}
			for _, rows := range subsets {
				sub := &dataset.Relation{Schema: rel.Schema}
				for _, r := range rows {
					sub.Tuples = append(sub.Tuples, rel.Tuples[r])
				}
				fresh := vgraph.BuildSet(sub, fds, cfg, taus, opts)
				for i, g := range st.Graphs() {
					name := fmt.Sprintf("w%d %s rows %v", workers, fds[i], rows)
					view := g.View(rows)
					if err := sameGraph(fresh[i], view, sub); err != nil {
						t.Fatalf("%s: view vs BuildSet: %v", name, err)
					}
					if view.NumEdges() != fresh[i].NumEdges() {
						t.Fatalf("%s: view has %d edges, BuildSet %d", name, view.NumEdges(), fresh[i].NumEdges())
					}
					// Hypothetical tuples from the subset and from the whole
					// relation: a pattern of another component is no vertex
					// of the view.
					probes := append(recombine(rng, sub, fresh[i], 6), recombine(rng, rel, fresh[i], 6)...)
					for _, tup := range probes {
						if got, w := view.ViolatorCount(tup), fresh[i].ViolatorCount(tup); got != w {
							t.Fatalf("%s: view ViolatorCount(%v) = %d, BuildSet %d", name, tup, got, w)
						}
						for v := range view.Vertices {
							if got, w := view.FTAdjacent(tup, v), fresh[i].FTAdjacent(tup, v); got != w {
								t.Fatalf("%s: view FTAdjacent(%v, %d) = %v, BuildSet %v", name, tup, v, got, w)
							}
						}
					}
				}
			}
		}
	})
}
