package repair

import (
	"errors"
	"fmt"
	"time"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

// CFDSet pairs conditional functional dependencies with FT thresholds.
type CFDSet struct {
	CFDs []*fd.CFD
	Tau  []float64
}

// NewCFDSet validates and pairs CFDs with thresholds (one broadcast to all,
// or one per CFD).
func NewCFDSet(cfds []*fd.CFD, taus ...float64) (*CFDSet, error) {
	if len(cfds) == 0 {
		return nil, fmt.Errorf("repair: empty CFD set")
	}
	s := &CFDSet{CFDs: cfds}
	switch len(taus) {
	case 1:
		s.Tau = make([]float64, len(cfds))
		for i := range s.Tau {
			s.Tau[i] = taus[0]
		}
	case len(cfds):
		s.Tau = append([]float64(nil), taus...)
	default:
		return nil, fmt.Errorf("repair: %d thresholds for %d CFDs", len(taus), len(cfds))
	}
	return s, nil
}

// allWildcard reports whether the CFD is a plain FD (every tableau row all
// wildcards).
func allWildcard(c *fd.CFD) bool {
	for _, row := range c.Tableau {
		for _, v := range row.LHS {
			if v != fd.Wildcard {
				return false
			}
		}
		for _, v := range row.RHS {
			if v != fd.Wildcard {
				return false
			}
		}
	}
	return true
}

// RepairCFDSet repairs rel against a set of CFDs. Plain-FD constraints
// (all-wildcard tableaux) are repaired jointly with the multi-FD greedy
// algorithm; conditional constraints are then applied in rounds — constant
// right-hand sides first (deterministic rule repairs), then the restricted
// FT repair of each CFD's matching tuples — until a fixpoint or the round
// budget. It returns the repaired relation and accounting.
func RepairCFDSet(rel *dataset.Relation, s *CFDSet, cfg *fd.DistConfig, opts Options) (*Result, error) {
	start := time.Now()
	stats := make(map[string]int)
	// CFD repairs are not ledgered: the nested GreedyS runs operate on
	// restricted sub-relations whose row numbering does not match rel, and
	// the fixpoint rounds overwrite cells repeatedly outside any single
	// apply site. Strip the sink so nested runs cannot commit misaddressed
	// events; the ledger covers the five core algorithms and the
	// incremental engine.
	opts.Ledger = nil
	out := newOutput(rel)
	// The nested GreedyM and GreedyS runs flush their counters to the obs
	// registry in their own finish. done adds their sum to the result after
	// this run's finish, so the registry sees each counter once and the
	// result still reports the whole run.
	nested := make(map[string]int)
	done := func() *Result {
		res := finish(out, cfg, "CFDSet", time.Since(start), stats, nil, nil)
		for k, v := range nested {
			res.Stats[k] += v
		}
		return res
	}

	var plainFDs []*fd.FD
	var plainTaus []float64
	var conditional []*fd.CFD
	var condTaus []float64
	for i, c := range s.CFDs {
		if allWildcard(c) {
			plainFDs = append(plainFDs, c.Embedded)
			plainTaus = append(plainTaus, s.Tau[i])
		} else {
			conditional = append(conditional, c)
			condTaus = append(condTaus, s.Tau[i])
		}
	}

	if len(plainFDs) > 0 {
		fdSet, err := fd.NewSet(plainFDs, plainTaus...)
		if err != nil {
			return nil, err
		}
		res, err := GreedyM(rel, fdSet, cfg, opts)
		if err != nil && !errors.Is(err, ErrCanceled) {
			return nil, err
		}
		for _, cell := range res.Changed {
			out.set(cell.Row, cell.Col, res.Repaired.Get(cell))
		}
		for k, v := range res.Stats {
			nested[k] += v
		}
		stats["plainFDRepairs"] = len(res.Changed)
		if err != nil {
			return done(), ErrCanceled
		}
	}

	const maxRounds = 4
	for round := 0; round < maxRounds && len(conditional) > 0; round++ {
		changed := 0
		// Constant-RHS rule repairs: a tuple matching a row's LHS pattern
		// but disagreeing with an RHS constant takes the constant.
		for _, c := range conditional {
			changed += applyConstantRows(out, c)
		}
		// Variable-RHS conditional repairs: restrict and run the greedy
		// single-FD repair on the matching sub-relation.
		for i, c := range conditional {
			if canceled(opts.Cancel) {
				return done(), ErrCanceled
			}
			sub, rows := c.Restrict(out.rel)
			if sub.Len() < 2 {
				continue
			}
			res, err := GreedyS(sub, c.Embedded, cfg, condTaus[i], opts)
			if err != nil && !errors.Is(err, ErrCanceled) {
				return nil, err
			}
			for _, cell := range res.Changed {
				if _, ok := out.set(rows[cell.Row], cell.Col, res.Repaired.Get(cell)); ok {
					changed++
				}
			}
			for k, v := range res.Stats {
				nested[k] += v
			}
			if err != nil {
				return done(), ErrCanceled
			}
		}
		stats["cfdRounds"]++
		if changed == 0 {
			break
		}
	}
	return done(), nil
}

// RepairCFD repairs rel against one CFD: the tuples matching its tableau
// are restricted, repaired against the embedded FD (ExactS when exact,
// GreedyS otherwise) and written back through a copy-on-write view of rel.
// The result carries the inner run's stats and elapsed time.
func RepairCFD(rel *dataset.Relation, c *fd.CFD, cfg *fd.DistConfig, tau float64, exact bool, opts Options) (*Result, error) {
	sub, rows := c.Restrict(rel)
	run := GreedyS
	if exact {
		run = ExactS
	}
	res, err := run(sub, c.Embedded, cfg, tau, opts)
	if err != nil {
		return nil, err
	}
	out := newOutput(rel)
	for _, cell := range res.Changed {
		out.set(rows[cell.Row], cell.Col, res.Repaired.Get(cell))
	}
	changed, cost := out.diff(cfg)
	return &Result{
		Repaired:  out.rel,
		Cost:      cost,
		Changed:   changed,
		Algorithm: res.Algorithm + "+CFD",
		Elapsed:   res.Elapsed,
		Stats:     res.Stats,
	}, nil
}

// applyConstantRows enforces constant RHS patterns and returns the number
// of cells changed.
func applyConstantRows(out *output, c *fd.CFD) int {
	changed := 0
	for i, t := range out.rel.Tuples {
		row := c.MatchRow(t)
		if row < 0 {
			continue
		}
		pat := c.Tableau[row]
		for j, col := range c.Embedded.RHS {
			if pat.RHS[j] == fd.Wildcard {
				continue
			}
			if _, ok := out.set(i, col, pat.RHS[j]); ok {
				changed++
			}
		}
	}
	return changed
}

// VerifyCFDs checks classic CFD satisfaction (pairwise and single-tuple) of
// rel, returning the first violation found.
func VerifyCFDs(rel *dataset.Relation, cfds []*fd.CFD) error {
	for _, c := range cfds {
		for i, t := range rel.Tuples {
			if c.SingleViolates(t) {
				return fmt.Errorf("repair: tuple %d violates constant pattern of %s", i, c.Embedded)
			}
		}
		// Pairwise: group matching tuples by LHS.
		byLHS := make(map[string]dataset.Tuple)
		for i, t := range rel.Tuples {
			if c.MatchRow(t) < 0 {
				continue
			}
			k := t.Key(c.Embedded.LHS)
			if prev, ok := byLHS[k]; ok {
				if c.Violates(prev, t) {
					return fmt.Errorf("repair: tuples violate %s on LHS %v (tuple %d)", c.Embedded, t.Project(c.Embedded.LHS), i)
				}
				continue
			}
			byLHS[k] = t
		}
	}
	return nil
}
