package repair_test

import (
	"testing"

	"ftrepair/internal/repair"
)

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		name string
		want repair.Algorithm
	}{
		{"ExactS", repair.AlgoExactS},
		{"greedys", repair.AlgoGreedyS},
		{"EXACTM", repair.AlgoExactM},
		{"apProM", repair.AlgoApproM},
		{" GreedyM ", repair.AlgoGreedyM},
		{"", repair.AlgoGreedyM},
	}
	for _, tc := range cases {
		got, err := repair.ParseAlgorithm(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"Bogus", "greedy", "ExactS+CFD", "Greedy M"} {
		if got, err := repair.ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) = %q, want an error", name, got)
		}
	}
}
