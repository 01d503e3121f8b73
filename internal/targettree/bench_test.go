package targettree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/targettree"
)

// hospLevels returns seven levels shaped like the 7-FD component of HOSP at
// N=5000 (generator seed 2), in the order Build sorts them: a 30-pattern
// (State, Street) level; an unshared level of n provider keys; a level
// joined on that key; a second unshared level of n (Zip, City) patterns;
// another level joined on the key; and the (key, Zip) and (Zip, Street)
// levels, which prune the key × zip cross product down to a few hundred
// nodes. At n=120 a join in that order tries about 875,000 partial paths;
// Build's connected order joins the (Zip, Street) level second and tries
// 777.
func hospLevels(n int) []targettree.Level {
	rng := rand.New(rand.NewSource(2))
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%03d", prefix, i) }
	ls := []targettree.Level{
		{Attrs: []int{6, 4}}, {Attrs: []int{0, 1}}, {Attrs: []int{0, 7}}, {Attrs: []int{5, 3}},
		{Attrs: []int{0, 2}}, {Attrs: []int{0, 5}}, {Attrs: []int{5, 4}},
	}
	add := func(l int, a, b string) { ls[l].Patterns = append(ls[l].Patterns, []string{a, b}) }
	for i := 0; i < 30; i++ {
		add(0, name("st", rng.Intn(8)), name("street", i))
	}
	for i := 0; i < n; i++ {
		add(1, name("p", i), name("hospital", i))
		add(2, name("p", i), name("phone", i))
		add(3, name("zip", i), name("city", rng.Intn(n/2)))
		add(4, name("p", i), name("type", rng.Intn(4)))
		add(5, name("p", i), name("zip", rng.Intn(n)))
		add(6, name("zip", i), name("street", rng.Intn(30)))
	}
	add(5, name("p", rng.Intn(n)), name("zip", rng.Intn(n)))
	add(5, name("p", rng.Intn(n)), name("zip", rng.Intn(n)))
	for i := 0; i < 3; i++ {
		add(6, name("zip", rng.Intn(n)), name("street", rng.Intn(30)))
	}
	return ls
}

// hospQueries derives n tuples from the tree's targets, each with two
// columns overwritten by another target's values, as dirty tuples are.
func hospQueries(tr *targettree.Tree, n int) []dataset.Tuple {
	rng := rand.New(rand.NewSource(3))
	all := tr.All()
	out := make([]dataset.Tuple, n)
	for i := range out {
		q := make(dataset.Tuple, 8)
		tg := all[rng.Intn(len(all))]
		for j, c := range tg.Cols {
			q[c] = tg.Vals[j]
		}
		for k := 0; k < 2; k++ {
			other := all[rng.Intn(len(all))]
			j := rng.Intn(len(other.Cols))
			q[other.Cols[j]] = other.Vals[j]
		}
		out[i] = q
	}
	return out
}

// toyDist is a cheap normalized Hamming distance.
func toyDist(_ int, a, b string) float64 {
	if a == b {
		return 0
	}
	n, m := len(a), len(b)
	if m > n {
		n, m = m, n
	}
	diff := n - m
	for i := 0; i < m; i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	return float64(diff) / float64(n)
}

// BenchmarkBuild times one target-tree build over the HOSP-shaped levels.
func BenchmarkBuild(b *testing.B) {
	levels := hospLevels(120)
	b.ReportAllocs()
	b.ResetTimer()
	var tr *targettree.Tree
	for i := 0; i < b.N; i++ {
		var err error
		if tr, err = targettree.Build(levels); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Explored), "explored")
	b.ReportMetric(float64(tr.Nodes), "nodes")
	b.ReportMetric(float64(tr.Targets), "targets")
}

// BenchmarkNearest times one nearest-target search on the HOSP-shaped tree.
func BenchmarkNearest(b *testing.B) {
	tr, err := targettree.Build(hospLevels(120))
	if err != nil {
		b.Fatal(err)
	}
	queries := hospQueries(tr, 64)
	vecs := make([][]float64, len(queries))
	for i, q := range queries {
		vecs[i] = scores(tr, q, toyDist)
	}
	b.ReportAllocs()
	b.ResetTimer()
	visited := 0
	for i := 0; i < b.N; i++ {
		_, _, v := tr.Nearest(vecs[i%len(vecs)], nil)
		visited += v
	}
	b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
}
