package repair

import (
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

// TestSequentialFallback exercises the defensive path used when the joined
// independent sets admit no target: per-FD greedy rounds must converge to
// an FT-consistent state.
func TestSequentialFallback(t *testing.T) {
	schema := dataset.Strings("A", "B", "C")
	rel, err := dataset.FromRows(schema, [][]string{
		{"karla", "blue", "cold"},
		{"karla", "blue", "cold"},
		{"karla", "bluw", "cold"},
		{"marta", "gold", "warm"},
		{"marta", "gold", "wurm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := fd.NewSet([]*fd.FD{
		fd.MustParse(schema, "A->B"),
		fd.MustParse(schema, "A->C"),
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutput(rel)
	if err := sequentialFallback(o, set, cfg, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	out := o.rel
	if err := VerifyFTConsistent(out, set, cfg); err != nil {
		t.Fatalf("fallback left violations: %v", err)
	}
	if out.Tuples[2][1] != "blue" || out.Tuples[4][2] != "warm" {
		t.Fatalf("fallback repairs: %v", out.Tuples)
	}
	// A clean relation is a no-op.
	clean := newOutput(out)
	if err := sequentialFallback(clean, set, cfg, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	cells, err := dataset.Diff(out, clean.rel)
	if err != nil || len(cells) != 0 {
		t.Fatalf("fallback modified a consistent relation: %v %v", cells, err)
	}
}
