package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a tail percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported: at least minBeyond samples must lie beyond it.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond := len(s) - 1 - idx
	return s[idx], beyond >= minBeyond
}

// geomean returns the geometric mean of positive xs; 0 for no samples or
// any sample at or below 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// medianOfMedians summarises samples drawn from groups of different cost:
// the median of each group, combined by geometric mean. Every group weighs
// alike, and unlike the median of the pooled samples the result never
// sits on the gap between two groups' costs, where one noisy sample moves
// it from one group to the next.
func medianOfMedians(groups [][]float64) float64 {
	var ms []float64
	for _, g := range groups {
		if len(g) > 0 {
			ms = append(ms, median(g))
		}
	}
	return geomean(ms)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a closed time range in milliseconds.
type interval struct{ start, end float64 }

// phaseSpan is one program span placed on the benchmark's timeline.
type phaseSpan struct {
	phase string
	depth int
	interval
}

// selfTimes splits the root interval [lo, hi] among phases: every instant
// goes to the deepest span open at that instant (the lexically first phase
// on a tie), and instants no span covers are unattributed. The phase totals
// plus unattributed always add up to hi-lo, and neither is ever negative.
// For a span tree this is each phase's union minus the union of its
// children, so per-FD spans running in parallel count their wall time once.
func selfTimes(spans []phaseSpan, lo, hi float64) (map[string]float64, float64) {
	out := make(map[string]float64)
	if hi <= lo {
		return out, 0
	}
	var clipped []phaseSpan
	points := []float64{lo, hi}
	for _, sp := range spans {
		s, e := math.Max(sp.start, lo), math.Min(sp.end, hi)
		if e <= s {
			continue
		}
		sp.start, sp.end = s, e
		clipped = append(clipped, sp)
		points = append(points, s, e)
	}
	sort.Float64s(points)
	unattributed := 0.0
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		if b <= a {
			continue
		}
		best := -1
		for j, sp := range clipped {
			if sp.start > a || sp.end < b {
				continue
			}
			if best < 0 || sp.depth > clipped[best].depth ||
				(sp.depth == clipped[best].depth && sp.phase < clipped[best].phase) {
				best = j
			}
		}
		if best < 0 {
			unattributed += b - a
		} else {
			out[clipped[best].phase] += b - a
		}
	}
	return out, unattributed
}

// backlogPoint is the number of operations sent but not yet finished, at a
// time in milliseconds.
type backlogPoint struct {
	at          float64
	outstanding int
}

// backlogGrowing reports whether a phase's backlog grew: the mean backlog
// over the last third of the phase exceeds the mean over the first third by
// more than max(3, 5% of the phase's operations). A phase the system keeps up
// with has a flat backlog, however deep it is.
func backlogGrowing(pts []backlogPoint, ops int) bool {
	if len(pts) < 3 {
		return false
	}
	lo, hi := pts[0].at, pts[len(pts)-1].at
	third := (hi - lo) / 3
	var first, last []float64
	for _, p := range pts {
		switch {
		case p.at <= lo+third:
			first = append(first, float64(p.outstanding))
		case p.at >= hi-third:
			last = append(last, float64(p.outstanding))
		}
	}
	if len(first) == 0 || len(last) == 0 {
		return false
	}
	limit := math.Max(3, 0.05*float64(ops))
	return mean(last)-mean(first) > limit
}
