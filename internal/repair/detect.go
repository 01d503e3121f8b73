package repair

import (
	"slices"
	"sort"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/obs"
)

// Violation describes one fault-tolerant violation: a pair of distinct
// patterns of one FD within the FT threshold, with the tuples carrying each
// side. This is the error-detection half of the paper's pipeline (§1),
// exposed independently of repairing.
type Violation struct {
	// FD is the violated dependency; Tau the threshold it was detected at.
	FD  *fd.FD
	Tau float64
	// Left and Right are the two conflicting patterns, projected onto the
	// FD's attributes (X then Y).
	Left, Right []string
	// LeftRows and RightRows are the indices of the tuples carrying each
	// pattern.
	//
	// Left, Right, LeftRows and RightRows are read-only: every violation
	// of one pattern shares that pattern's projection and row list
	// (capped, so an append copies). Copy before modifying.
	LeftRows, RightRows []int
	// Dist is the weighted Eq-2 distance that put the pair inside the
	// threshold; Weight the unweighted Eq-3 repair cost between the
	// patterns.
	Dist, Weight float64
	// Classic marks pairs that are also violations under the traditional
	// equality semantics (equal on X, different on Y).
	Classic bool
}

// CFDViolation describes one classic CFD violation: either a single tuple
// disagreeing with a constant pattern, or a pair of pattern-matching tuples
// agreeing on X and differing on Y.
type CFDViolation struct {
	CFD *fd.CFD
	// Rows carries one index for constant-row violations and two for
	// pairwise violations.
	Rows []int
}

// DetectCFDs lists the classic violations of a set of conditional
// functional dependencies: constant-row violations first, then pairwise
// conflicts grouped by left-hand side.
func DetectCFDs(rel *dataset.Relation, cfds []*fd.CFD) []CFDViolation {
	var out []CFDViolation
	for _, c := range cfds {
		for i, t := range rel.Tuples {
			if c.SingleViolates(t) {
				out = append(out, CFDViolation{CFD: c, Rows: []int{i}})
			}
		}
		byLHS := make(map[string][]int)
		for i, t := range rel.Tuples {
			if c.MatchRow(t) < 0 {
				continue
			}
			byLHS[t.Key(c.Embedded.LHS)] = append(byLHS[t.Key(c.Embedded.LHS)], i)
		}
		for _, rows := range byLHS {
			for a := 0; a < len(rows); a++ {
				for b := a + 1; b < len(rows); b++ {
					if c.Violates(rel.Tuples[rows[a]], rel.Tuples[rows[b]]) {
						out = append(out, CFDViolation{CFD: c, Rows: []int{rows[a], rows[b]}})
					}
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Rows) != len(out[j].Rows) {
			return len(out[i].Rows) < len(out[j].Rows)
		}
		return out[i].Rows[0] < out[j].Rows[0]
	})
	return out
}

// Detect lists every FT-violation of rel w.r.t. the constraint set, sorted
// by FD order, then ascending distance (most-similar — most typo-like —
// pairs first), then by first left row for determinism. The per-FD graphs
// are independent, so they build concurrently, and each violation's Dist is
// the distance the graph builder already evaluated (Edge.D) rather than a
// recomputation.
func Detect(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, opts Options) []Violation {
	sp := obs.Begin(opts.Trace, obs.PhaseDetect)
	defer sp.End()
	var out []Violation
	defer func() { sp.Add("violations", int64(len(out))) }()
	graphs := buildGraphs(rel, set, cfg, opts)
	total := 0
	for _, g := range graphs {
		total += g.NumEdges()
	}
	out = make([]Violation, 0, total)
	for i, f := range set.FDs {
		g := graphs[i]
		attrs := f.Attrs()
		start := len(out)
		// Each vertex is projected once, on its first violation; all its
		// violations share the projection and its capped row list.
		pats := make([][]string, len(g.Vertices))
		pattern := func(v int) []string {
			if pats[v] == nil {
				pats[v] = g.Vertices[v].Rep.Project(attrs)
			}
			return pats[v]
		}
		for u := range g.Vertices {
			for _, e := range g.Neighbors(u) {
				if e.To <= u {
					continue
				}
				left, right := g.Vertices[u], g.Vertices[e.To]
				out = append(out, Violation{
					FD:        f,
					Tau:       set.Tau[i],
					Left:      pattern(u),
					Right:     pattern(e.To),
					LeftRows:  slices.Clip(left.Rows),
					RightRows: slices.Clip(right.Rows),
					Dist:      e.D,
					Weight:    e.W,
					Classic:   f.Violates(left.Rep, right.Rep),
				})
			}
		}
		chunk := out[start:]
		sort.Slice(chunk, func(a, b int) bool {
			if !fd.FloatEq(chunk[a].Dist, chunk[b].Dist) {
				return chunk[a].Dist < chunk[b].Dist
			}
			return chunk[a].LeftRows[0] < chunk[b].LeftRows[0]
		})
	}
	return out
}
