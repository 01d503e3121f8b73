package discover

import (
	"slices"
	"sort"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

// CFDOptions tunes constant-CFD discovery.
type CFDOptions struct {
	// MaxLHS bounds the embedded FD's left-hand side (default 1).
	MaxLHS int
	// MinSupport is the minimum number of tuples a constant pattern must
	// cover (default 5).
	MinSupport int
	// MinConfidence is the minimal fraction of a pattern's tuples agreeing
	// on the modal RHS value (default 0.95).
	MinConfidence float64
	// MaxTableau caps tableau rows per embedded FD (default 32, by
	// descending support).
	MaxTableau int
}

func (o CFDOptions) withDefaults() CFDOptions {
	if o.MaxLHS <= 0 {
		o.MaxLHS = 1
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 5
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 0.95
	}
	if o.MaxTableau <= 0 {
		o.MaxTableau = 32
	}
	return o
}

// CFDResult is one discovered conditional dependency: an embedded FD whose
// global g3 error is too high for a plain FD, together with the constant
// patterns under which it does hold.
type CFDResult struct {
	CFD *fd.CFD
	// Support is the total number of tuples the tableau covers;
	// Confidence the support-weighted mean of per-row confidences.
	Support    int
	Confidence float64
}

// CFDs discovers constant conditional functional dependencies: X -> A
// pairs that do not hold globally, but whose individual LHS patterns agree
// on the RHS with high confidence. This captures rules like
// (City = "NYC") -> (State = "NY") in data where City -> State is globally
// violated. Results sort by descending support.
func CFDs(rel *dataset.Relation, opts CFDOptions) []CFDResult {
	opts = opts.withDefaults()
	n := rel.Len()
	if n == 0 {
		return nil
	}
	nattrs := rel.Schema.Len()
	names := func(cols ...int) []string {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = rel.Schema.Attr(c).Name
		}
		return out
	}

	var results []CFDResult
	var lhsSets [][]int
	for a := 0; a < nattrs; a++ {
		lhsSets = append(lhsSets, []int{a})
	}
	for level := 1; level <= opts.MaxLHS; level++ {
		for _, lhs := range lhsSets {
			groups := make(map[string][]int)
			for i, t := range rel.Tuples {
				groups[t.Key(lhs)] = append(groups[t.Key(lhs)], i)
			}
			for rhs := 0; rhs < nattrs; rhs++ {
				if containsAttr(lhs, rhs) {
					continue
				}
				type row struct {
					lhsVals []string
					rhsVal  string
					support int
					conf    float64
				}
				var rows []row
				globallyClean := true
				for _, idx := range groups {
					counts := make(map[string]int)
					for _, r := range idx {
						counts[rel.Tuples[r][rhs]]++
					}
					if len(counts) > 1 {
						globallyClean = false
					}
					if len(idx) < opts.MinSupport {
						continue
					}
					modal, modalCount := "", 0
					for v, c := range counts {
						if c > modalCount || (c == modalCount && v < modal) {
							modal, modalCount = v, c
						}
					}
					conf := float64(modalCount) / float64(len(idx))
					if conf < opts.MinConfidence {
						continue
					}
					rows = append(rows, row{
						lhsVals: rel.Tuples[idx[0]].Project(lhs),
						rhsVal:  modal,
						support: len(idx),
						conf:    conf,
					})
				}
				if globallyClean || len(rows) == 0 {
					// A globally clean pair is a plain FD (see FDs); no
					// conditional value.
					continue
				}
				// Rows come from a map; the LHS values, unique per group,
				// make the order, and so the rows MaxTableau keeps, total.
				sort.Slice(rows, func(a, b int) bool {
					if rows[a].support != rows[b].support {
						return rows[a].support > rows[b].support
					}
					if rows[a].rhsVal != rows[b].rhsVal {
						return rows[a].rhsVal < rows[b].rhsVal
					}
					return slices.Compare(rows[a].lhsVals, rows[b].lhsVals) < 0
				})
				if len(rows) > opts.MaxTableau {
					rows = rows[:opts.MaxTableau]
				}
				embedded, err := fd.New(rel.Schema, "", names(lhs...), names(rhs))
				if err != nil {
					continue
				}
				tableau := make([]fd.PatternRow, len(rows))
				support := 0
				weightedConf := 0.0
				for i, r := range rows {
					tableau[i] = fd.PatternRow{LHS: r.lhsVals, RHS: []string{r.rhsVal}}
					support += r.support
					weightedConf += r.conf * float64(r.support)
				}
				c, err := fd.NewCFD(embedded, tableau)
				if err != nil {
					continue
				}
				results = append(results, CFDResult{
					CFD:        c,
					Support:    support,
					Confidence: weightedConf / float64(support),
				})
			}
		}
		if level == opts.MaxLHS {
			break
		}
		lhsSets = nextLevel(lhsSets, nattrs)
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Support != results[j].Support {
			return results[i].Support > results[j].Support
		}
		return lessAttrs(results[i].CFD.Embedded, results[j].CFD.Embedded)
	})
	return results
}
