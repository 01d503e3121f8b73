package server

import (
	"fmt"
	"strings"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
	"ftrepair/internal/profile"
	"ftrepair/internal/repair"
)

// JobSpec is the JSON body of POST /v1/jobs: the dirty data (inline CSV or
// header+rows), the FD set, and the repair configuration. Zero values take
// the documented defaults, matching the ftrepair CLI.
type JobSpec struct {
	// CSV is the input relation as CSV text with a header row. Mutually
	// exclusive with Header/Rows.
	CSV string `json:"csv,omitempty"`
	// Header and Rows carry the relation inline instead of CSV.
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	// Types is a comma-separated attribute type spec aligned with the
	// header (string|numeric, with dataset.ParseTypeSpec's aliases). Empty
	// means inferred from the data.
	Types string `json:"types,omitempty"`
	// FDs are dependency specs like "City,Street -> District" (required).
	FDs []string `json:"fds"`
	// Tau is the FT-violation threshold for every FD (default 0.3);
	// AutoTau derives one per FD with the sudden-gap heuristic instead.
	Tau     float64 `json:"tau,omitempty"`
	AutoTau bool    `json:"autoTau,omitempty"`
	// WL and WR are the LHS/RHS distance weights (default 0.7/0.3; must
	// sum to 1 when set).
	WL float64 `json:"wl,omitempty"`
	WR float64 `json:"wr,omitempty"`
	// Algorithm is one of ExactS, GreedyS, ExactM, ApproM, GreedyM
	// (case-insensitive; default GreedyM).
	Algorithm string `json:"algorithm,omitempty"`
	// Tuning knobs forwarded to repair.Options.
	MaxNodes       int  `json:"maxNodes,omitempty"`
	MaxMISPerFD    int  `json:"maxMisPerFd,omitempty"`
	Parallel       int  `json:"parallel,omitempty"`
	DisablePruning bool `json:"disablePruning,omitempty"`
	// TimeoutMs cancels the job after this many milliseconds of run time
	// (0 means no deadline). A timed-out job reports state "canceled".
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Verify, when true, runs VerifyFTConsistent and VerifyValid on the
	// repaired relation and reports the outcome in the result. Off by
	// default: verification is quadratic in the number of patterns.
	Verify bool `json:"verify,omitempty"`
}

// SessionSpec is the JSON body of POST /v1/sessions. The base relation is
// repaired with Algorithm first when it is not already FT-consistent, so the
// session always starts from a consistent state.
type SessionSpec struct {
	CSV       string     `json:"csv,omitempty"`
	Header    []string   `json:"header,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	Types     string     `json:"types,omitempty"`
	FDs       []string   `json:"fds"`
	Tau       float64    `json:"tau,omitempty"`
	AutoTau   bool       `json:"autoTau,omitempty"`
	WL        float64    `json:"wl,omitempty"`
	WR        float64    `json:"wr,omitempty"`
	Algorithm string     `json:"algorithm,omitempty"`
	// Streaming-ingest knobs: appends enqueue into a batcher that flushes on
	// MaxBatch rows or MaxDelayMs milliseconds (whichever first) and pushes
	// back once MaxPending rows are queued. Zero values take the batcher
	// defaults (MaxBatch 256, MaxPending 4×MaxBatch) with a 5ms MaxDelay.
	MaxBatch   int `json:"maxBatch,omitempty"`
	MaxDelayMs int `json:"maxDelayMs,omitempty"`
	MaxPending int `json:"maxPending,omitempty"`
}

// problem is a compiled job: the parsed relation, constraint set and
// distance model, ready to run.
type problem struct {
	rel  *dataset.Relation
	set  *fd.Set
	cfg  *fd.DistConfig
	algo repair.Algorithm
	opts repair.Options
}

// Default repair configuration, matching the ftrepair CLI flags.
const (
	defaultTau = 0.3
	defaultWL  = 0.7
	defaultWR  = 0.3
)

// loadRelation parses the data half of a spec: CSV text or header+rows.
func loadRelation(csv string, header []string, rows [][]string, types string) (*dataset.Relation, error) {
	switch {
	case csv != "" && len(rows) > 0:
		return nil, fmt.Errorf("provide either csv or rows, not both")
	case csv != "":
		rel, err := dataset.ReadCSV(strings.NewReader(csv), types)
		if err != nil {
			return nil, err
		}
		if types == "" {
			rel = profile.Retype(rel)
		}
		return rel, nil
	case len(rows) > 0:
		if len(header) == 0 {
			return nil, fmt.Errorf("rows requires a header")
		}
		ts, err := dataset.ParseTypeSpec(types, len(header))
		if err != nil {
			return nil, err
		}
		attrs := make([]dataset.Attribute, len(header))
		for i, name := range header {
			attrs[i] = dataset.Attribute{Name: name, Type: ts[i]}
		}
		schema, err := dataset.NewSchema(attrs...)
		if err != nil {
			return nil, err
		}
		rel, err := dataset.FromRows(schema, rows)
		if err != nil {
			return nil, err
		}
		if types == "" {
			rel = profile.Retype(rel)
		}
		return rel, nil
	default:
		return nil, fmt.Errorf("no input data: provide csv or header+rows")
	}
}

// compileConstraints parses FD specs and derives the distance model and
// per-FD thresholds over rel.
func compileConstraints(rel *dataset.Relation, fdSpecs []string, tau float64, autoTau bool, wl, wr float64) (*fd.Set, *fd.DistConfig, error) {
	if len(fdSpecs) == 0 {
		return nil, nil, fmt.Errorf("at least one FD is required")
	}
	parsed := make([]*fd.FD, len(fdSpecs))
	for i, spec := range fdSpecs {
		f, err := fd.Parse(rel.Schema, spec)
		if err != nil {
			return nil, nil, err
		}
		parsed[i] = f
	}
	if fd.FloatEq(wl, 0) && fd.FloatEq(wr, 0) {
		wl, wr = defaultWL, defaultWR
	}
	cfg, err := fd.NewDistConfig(rel, wl, wr)
	if err != nil {
		return nil, nil, err
	}
	if fd.FloatEq(tau, 0) {
		tau = defaultTau
	}
	taus := make([]float64, len(parsed))
	for i, f := range parsed {
		if autoTau {
			taus[i] = fd.SelectTau(rel, f, cfg, fd.TauOptions{Fallback: tau})
		} else {
			taus[i] = tau
		}
	}
	set, err := fd.NewSet(parsed, taus...)
	if err != nil {
		return nil, nil, err
	}
	return set, cfg, nil
}

// compile validates a job spec into a runnable problem.
func (spec *JobSpec) compile() (*problem, error) {
	algo, err := repair.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	rel, err := loadRelation(spec.CSV, spec.Header, spec.Rows, spec.Types)
	if err != nil {
		return nil, err
	}
	set, cfg, err := compileConstraints(rel, spec.FDs, spec.Tau, spec.AutoTau, spec.WL, spec.WR)
	if err != nil {
		return nil, err
	}
	if err := algo.Check(set); err != nil {
		return nil, err
	}
	return &problem{
		rel: rel, set: set, cfg: cfg, algo: algo,
		opts: repair.Options{
			MaxNodes:       spec.MaxNodes,
			MaxMISPerFD:    spec.MaxMISPerFD,
			Parallel:       spec.Parallel,
			DisablePruning: spec.DisablePruning,
		},
	}, nil
}

// run executes the compiled problem with the given cancellation channel, an
// optional trace collecting phase spans, and an optional ledger sink
// receiving the applied cell repairs (nil disables either).
func (p *problem) run(cancel <-chan struct{}, tr *obs.Trace, sink ledger.Sink) (*repair.Result, error) {
	opts := p.opts
	opts.Cancel = cancel
	opts.Trace = tr
	opts.Ledger = sink
	return repair.Run(p.rel, p.set, p.cfg, p.algo, opts)
}
