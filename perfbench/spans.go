package main

import "ftrepair/internal/obs"

// phaseMetric maps the program's phases to the per-layer metric that
// carries their self time; every other phase lands in
// repair.other_phases_ms, so the set still adds up to the Repair span.
var phaseMetric = map[obs.Phase]string{
	obs.PhaseDistance:     "fd.distance_ms",
	obs.PhaseGraphBuild:   "vgraph.graphbuild_ms",
	obs.PhaseGreedyGrow:   "repair.greedygrow_ms",
	obs.PhaseTargetSearch: "repair.targetsearch_ms",
	obs.PhaseApply:        "repair.apply_ms",
	obs.PhaseExpand:       "mis.expand_ms",
}

// spanBreakdown is one run's phase spans reduced to per-layer figures.
type spanBreakdown map[string]float64

// analyzeSpans attributes a run's wall time [0, total] ms among its phase
// spans (self time, see selfTimes) and sums the graph-build work.
func analyzeSpans(spans []obs.SpanSummary, total float64) spanBreakdown {
	b := make(spanBreakdown)
	ps := make([]phaseSpan, 0, len(spans))
	for _, s := range spans {
		ps = append(ps, phaseSpan{phase: string(s.Phase), depth: s.Depth, interval: interval{s.Start, s.Start + s.DurMs}})
		if s.Phase == obs.PhaseGraphBuild {
			b["vgraph.graphbuild_busy_ms"] += s.DurMs
			for _, a := range s.Attrs {
				if a.Key == "edges" {
					b["vgraph.edges"] += float64(a.Value)
				}
			}
		}
	}
	self, unattributed := selfTimes(ps, 0, total)
	for phase, ms := range self {
		name, ok := phaseMetric[obs.Phase(phase)]
		if !ok {
			name = "repair.other_phases_ms"
		}
		b[name] += ms
	}
	b["repair.unattributed_ms"] += unattributed
	return b
}

// addTo accumulates the breakdown into per-layer totals.
func (b spanBreakdown) addTo(acc map[string]float64) {
	for k, v := range b {
		acc[k] += v
	}
}
