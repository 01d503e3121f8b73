package eval

import (
	"fmt"
	"time"

	"ftrepair/internal/baselines"
	"ftrepair/internal/dataset"
	"ftrepair/internal/dc"
	"ftrepair/internal/repair"
)

// AlgoSpec names a repair procedure for sweeps: ours or a baseline.
type AlgoSpec struct {
	Name string
	// Partial marks algorithms whose repairs may contain variables scored
	// with the paper's Metric 0.5 (Llunatic).
	Partial bool
	// Run repairs the instance's dirty relation.
	Run func(inst *Instance) (*dataset.Relation, error)
}

// OurAlgos returns the paper's multi-FD algorithms. ExactM is included only
// when exact is true (it is exponential; sweeps cap it via MaxMISPerFD and
// report "-" when the cap is hit). Target-tree usage follows opts.
func OurAlgos(exact bool, opts repair.Options) []AlgoSpec {
	algos := []AlgoSpec{runSpec(repair.AlgoGreedyM, opts), runSpec(repair.AlgoApproM, opts)}
	if exact {
		exactOpts := opts
		if exactOpts.MaxMISPerFD == 0 {
			exactOpts.MaxMISPerFD = 4096
		}
		algos = append([]AlgoSpec{runSpec(repair.AlgoExactM, exactOpts)}, algos...)
	}
	return algos
}

// SingleAlgos returns the paper's single-FD algorithms; they reject sets of
// more than one FD, so pair them with Setup.FDs = 1.
func SingleAlgos(exact bool, opts repair.Options) []AlgoSpec {
	algos := []AlgoSpec{runSpec(repair.AlgoGreedyS, opts)}
	if exact {
		algos = append([]AlgoSpec{runSpec(repair.AlgoExactS, opts)}, algos...)
	}
	return algos
}

// runSpec repairs the instance's dirty relation against its set with algo.
func runSpec(algo repair.Algorithm, opts repair.Options) AlgoSpec {
	return AlgoSpec{Name: string(algo), Run: func(inst *Instance) (*dataset.Relation, error) {
		res, err := repair.Run(inst.Dirty, inst.Set, inst.Cfg, algo, opts)
		if err != nil {
			return nil, err
		}
		return res.Repaired, nil
	}}
}

// BaselineAlgos returns the §6.4 comparators plus a holistic
// denial-constraint repair (Chu et al., the DC line of related work),
// running on the FD set expressed as DCs.
func BaselineAlgos() []AlgoSpec {
	return []AlgoSpec{
		{Name: "NADEEF", Run: func(inst *Instance) (*dataset.Relation, error) {
			return baselines.NADEEF(inst.Dirty, inst.Set, nil), nil
		}},
		{Name: "URM", Run: func(inst *Instance) (*dataset.Relation, error) {
			return baselines.URM(inst.Dirty, inst.Set, baselines.URMOptions{}, nil), nil
		}},
		{Name: "Llunatic", Partial: true, Run: func(inst *Instance) (*dataset.Relation, error) {
			return baselines.Llunatic(inst.Dirty, inst.Set, nil), nil
		}},
		{Name: "Holistic", Run: func(inst *Instance) (*dataset.Relation, error) {
			var dcs []*dc.DC
			for _, f := range inst.Set.FDs {
				dcs = append(dcs, dc.FromFDAll(f)...)
			}
			return dc.Repair(inst.Dirty, dcs, 0), nil
		}},
	}
}

// Measure runs one algorithm on one instance and evaluates it.
func Measure(inst *Instance, spec AlgoSpec) Point {
	start := time.Now()
	repaired, err := spec.Run(inst)
	elapsed := time.Since(start)
	if err != nil {
		return Point{Err: err.Error()}
	}
	opts := Options{}
	if spec.Partial {
		opts.PartialMarker = baselines.VariableMarker
	}
	q, err := Evaluate(inst.Clean, inst.Dirty, repaired, opts)
	if err != nil {
		return Point{Err: err.Error()}
	}
	return Point{Quality: q, Millis: float64(elapsed.Microseconds()) / 1000}
}

// Sweep runs every algorithm at every swept value. The setup function maps
// a swept value to an instance Setup; instances are prepared once per value
// and shared across algorithms.
func Sweep(xs []float64, setup func(x float64) Setup, algos []AlgoSpec) ([]Series, error) {
	series := make([]Series, len(algos))
	for i, a := range algos {
		series[i].Name = a.Name
	}
	for _, x := range xs {
		inst, err := Prepare(setup(x))
		if err != nil {
			return nil, fmt.Errorf("eval: preparing x=%g: %w", x, err)
		}
		for i, a := range algos {
			p := Measure(inst, a)
			p.X = x
			series[i].Points = append(series[i].Points, p)
		}
	}
	return series, nil
}
