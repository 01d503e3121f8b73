package ftrepair_test

import (
	"fmt"

	"ftrepair"
)

// The running example: one FD, a typo and a classic conflict, repaired
// with the exact single-FD algorithm.
func ExampleRepair() {
	rel, _ := ftrepair.FromRows(ftrepair.Strings("City", "State"), [][]string{
		{"Boston", "MA"}, {"Boston", "MA"}, {"Boston", "MA"},
		{"Boston", "MA"}, {"Boston", "MA"}, {"Boston", "MA"},
		{"Boston", "MA"}, {"Boston", "MA"},
		{"Boton", "MA"},  // LHS typo: invisible to equality-based cleaning
		{"Boston", "NY"}, // classic violation
	})
	set, _ := ftrepair.NewSet([]*ftrepair.FD{
		ftrepair.MustParseFD(rel.Schema, "City -> State"),
	}, 0.3)
	cfg, _ := ftrepair.NewDistConfig(rel, 0.7, 0.3)
	res, _ := ftrepair.Repair(rel, set, cfg, ftrepair.ExactS, ftrepair.Options{})
	for _, c := range res.Changed {
		fmt.Printf("row %d %s: %s -> %s\n",
			c.Row+1, rel.Schema.Attr(c.Col).Name, rel.Get(c), res.Repaired.Get(c))
	}
	// Output:
	// row 9 City: Boton -> Boston
	// row 10 State: NY -> MA
}

// Detection without repairing: similarity-based and classic violations.
func ExampleDetect() {
	rel, _ := ftrepair.FromRows(ftrepair.Strings("City", "State"), [][]string{
		{"Boston", "MA"}, {"Boston", "MA"}, {"Boton", "MA"},
	})
	set, _ := ftrepair.NewSet([]*ftrepair.FD{
		ftrepair.MustParseFD(rel.Schema, "City -> State"),
	}, 0.3)
	cfg, _ := ftrepair.NewDistConfig(rel, 0.7, 0.3)
	for _, v := range ftrepair.Detect(rel, set, cfg, ftrepair.Options{}) {
		fmt.Printf("%v ~ %v (dist %.3f, classic=%v)\n", v.Left, v.Right, v.Dist, v.Classic)
	}
	// Output:
	// [Boston MA] ~ [Boton MA] (dist 0.117, classic=false)
}

// Discovering constraints from the data itself.
func ExampleDiscoverFDs() {
	rel, _ := ftrepair.FromRows(ftrepair.Strings("Zip", "City"), [][]string{
		{"02134", "Boston"}, {"02134", "Boston"}, {"02134", "Boston"},
		{"10001", "New York"}, {"10001", "New York"}, {"10001", "New York"},
	})
	for _, r := range ftrepair.DiscoverFDs(rel, ftrepair.DiscoverOptions{MaxLHS: 1}) {
		fmt.Printf("%s (g3 %.2f)\n", r.FD, r.Error)
	}
	// Output:
	// [Zip] -> [City] (g3 0.00)
	// [City] -> [Zip] (g3 0.00)
}

// Denial constraints express rules FDs cannot, like rate monotonicity.
func ExampleParseDC() {
	schema := ftrepair.MustSchema(
		ftrepair.Attribute{Name: "State"},
		ftrepair.Attribute{Name: "Salary", Type: ftrepair.Numeric},
		ftrepair.Attribute{Name: "Rate", Type: ftrepair.Numeric},
	)
	rel, _ := ftrepair.FromRows(schema, [][]string{
		{"NY", "50000", "5.0"},
		{"NY", "90000", "3.0"},
	})
	d, _ := ftrepair.ParseDC(schema, "mono: t1.State = t2.State ; t1.Salary > t2.Salary ; t1.Rate < t2.Rate")
	for _, v := range ftrepair.DetectDC(rel, []*ftrepair.DC{d}) {
		fmt.Printf("rows %d and %d violate %s\n", v.Row1+1, v.Row2+1, v.DC.Name)
	}
	fmt.Println("consistent:", ftrepair.DCConsistent(rel, []*ftrepair.DC{d}))
	// Output:
	// rows 2 and 1 violate mono
	// consistent: false
}

// Streaming repair: an appended batch is repaired by rerunning the
// algorithm (GreedyM by default) on the shards its rows touch, here the
// Boston shard, whose standing rows outvote the typo.
func ExampleNewIncremental() {
	rel, _ := ftrepair.FromRows(ftrepair.Strings("City", "State"), [][]string{
		{"Boston", "MA"}, {"Boston", "MA"}, {"Boston", "MA"},
	})
	set, _ := ftrepair.NewSet([]*ftrepair.FD{
		ftrepair.MustParseFD(rel.Schema, "City -> State"),
	}, 0.3)
	cfg, _ := ftrepair.NewDistConfig(rel, 0.7, 0.3)
	inc, _, _ := ftrepair.NewIncremental(rel, set, cfg, ftrepair.IncrementalOptions{})
	br, _ := inc.Append([][]string{{"Bostn", "MA"}}, "", nil)
	fmt.Println(br.Rows[0].Values, br.Rows[0].Repaired)
	// Output:
	// [Boston MA] true
}
