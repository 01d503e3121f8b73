package repair

import (
	"fmt"
	"slices"
	"strings"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/vgraph"
)

// Algorithm names one of the paper's five repair algorithms (Table 2).
// Its value is the name Result.Algorithm reports.
type Algorithm string

// The five algorithms, in presentation order; the functions of the same
// names document each.
const (
	AlgoExactS  Algorithm = "ExactS"  // §3.1, single FD, optimal
	AlgoGreedyS Algorithm = "GreedyS" // §3.2, single FD, greedy
	AlgoExactM  Algorithm = "ExactM"  // §4.2, FD set, optimal
	AlgoApproM  Algorithm = "ApproM"  // §4.3, FD set, per-FD greedy joined
	AlgoGreedyM Algorithm = "GreedyM" // §4.4, FD set, joint greedy
)

// Algorithms lists every algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoExactS, AlgoGreedyS, AlgoExactM, AlgoApproM, AlgoGreedyM}
}

// ParseAlgorithm resolves a user-supplied algorithm name, ignoring case and
// surrounding space. The empty name means GreedyM.
func ParseAlgorithm(name string) (Algorithm, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return AlgoGreedyM, nil
	}
	for _, a := range Algorithms() {
		if strings.EqualFold(name, string(a)) {
			return a, nil
		}
	}
	return "", fmt.Errorf("unknown algorithm %q", name)
}

// singleFD reports whether a repairs exactly one FD.
func (a Algorithm) singleFD() bool { return a == AlgoExactS || a == AlgoGreedyS }

// Check reports whether a can repair set: a must be one of Algorithms(),
// and ExactS and GreedyS need a set of exactly one FD.
func (a Algorithm) Check(set *fd.Set) error {
	if !slices.Contains(Algorithms(), a) {
		return fmt.Errorf("unknown algorithm %q", string(a))
	}
	if a.singleFD() && len(set.FDs) != 1 {
		return fmt.Errorf("%s repairs a single FD, set has %d", a, len(set.FDs))
	}
	return nil
}

// Run repairs rel against set with the chosen algorithm, after Check. The
// input relation is never modified; the Result is copy-on-write over it.
func Run(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, algo Algorithm, opts Options) (*Result, error) {
	return run(rel, set, cfg, algo, opts, nil)
}

// RunOnGraphs is Run over caller-supplied violation graphs of one FD
// component: set.Components() must have a single member, and graphs[i]
// must be set.FDs[i]'s graph over rel at set.Tau[i], as vgraph.BuildSet
// would build it (a vgraph view of a larger relation's graphs qualifies).
// The run reads the graphs and builds none, so Options.Graph is unused.
func RunOnGraphs(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, algo Algorithm, graphs []*vgraph.Graph, opts Options) (*Result, error) {
	if n := len(set.Components()); n != 1 {
		return nil, fmt.Errorf("repair: RunOnGraphs needs one FD component, set has %d", n)
	}
	if len(graphs) != len(set.FDs) {
		return nil, fmt.Errorf("repair: %d graphs for %d FDs", len(graphs), len(set.FDs))
	}
	return run(rel, set, cfg, algo, opts, graphs)
}

// run is Run, over graphs when they are given and over graphs it builds
// when they are nil. The five algorithms share multiRepair and three
// component functions: ExactS is ExactM's one-FD case and GreedyS
// ApproM's.
func run(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, algo Algorithm, opts Options, graphs []*vgraph.Graph) (*Result, error) {
	if err := algo.Check(set); err != nil {
		return nil, err
	}
	comp := greedyComponent
	switch algo {
	case AlgoExactS, AlgoExactM:
		comp = exactComponent
	case AlgoGreedyS, AlgoApproM:
		comp = approComponent
	}
	return multiRepair(rel, set, cfg, opts, string(algo), comp, graphs)
}
