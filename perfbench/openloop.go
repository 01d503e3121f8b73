package main

import (
	"sort"
	"time"
)

// opTimes is one op's timeline. In the closed loop an op is due when it
// is sent.
type opTimes struct {
	due, sent, done time.Time
	ok              bool
}

// latencyMs is the op's open-loop latency: from when it was due, not from
// when the generator got round to sending it, so a late generator adds its
// lateness to every op it delayed.
func (o opTimes) latencyMs() float64 { return msOf(o.done.Sub(o.due)) }

// lateMs is how late the generator sent the op.
func (o opTimes) lateMs() float64 { return msOf(o.sent.Sub(o.due)) }

// phaseResult is one load phase: a fixed-rate phase of the open loop, or
// the closed loop that saturates the daemon.
type phaseResult struct {
	rate     float64 // offered, ops/s; 0 for the closed loop
	ops      int
	p95      float64
	p95ok    bool // the percentile rule held
	growing  bool
	failed   int
	achieved float64 // measured completions/s over the phase
	pass     bool
}

// backlogOf samples the number of ops due but not finished at each due
// time, for the growing-backlog test.
func backlogOf(ops []opTimes) []backlogPoint {
	if len(ops) == 0 {
		return nil
	}
	t0 := ops[0].due
	dues := make([]float64, len(ops))
	dones := make([]float64, len(ops))
	for i, o := range ops {
		dues[i] = msOf(o.due.Sub(t0))
		dones[i] = msOf(o.done.Sub(t0))
	}
	sort.Float64s(dues)
	sort.Float64s(dones)
	pts := make([]backlogPoint, len(dues))
	j := 0
	for i, d := range dues {
		for j < len(dones) && dones[j] <= d {
			j++
		}
		pts[i] = backlogPoint{at: d, outstanding: i + 1 - j}
	}
	return pts
}

// evalPhase applies the latency limit to a phase of sec seconds: it passes
// when every op succeeded, p95 latency (from due time) is under limitMs,
// and the backlog did not grow. Its achieved rate counts the ops that
// succeeded within sec seconds of the first op's due time, so ops the
// generator sends after the phase to release a stuck one do not count.
func evalPhase(rate, sec float64, ops []opTimes, limitMs float64) phaseResult {
	r := phaseResult{rate: rate, ops: len(ops)}
	var lat []float64
	var first time.Time
	for _, o := range ops {
		if first.IsZero() || o.due.Before(first) {
			first = o.due
		}
	}
	end := first.Add(time.Duration(sec * float64(time.Second)))
	within := 0
	for _, o := range ops {
		if !o.ok {
			r.failed++
			continue
		}
		lat = append(lat, o.latencyMs())
		if !o.done.After(end) {
			within++
		}
	}
	r.p95, r.p95ok = tailPercentile(lat, 0.95)
	r.growing = backlogGrowing(backlogOf(ops), len(ops))
	if sec > 0 {
		r.achieved = float64(within) / sec
	}
	r.pass = r.failed == 0 && len(lat) > 0 && r.p95 < limitMs && !r.growing
	return r
}

// maxRate is the highest rate shown to meet the latency limit without a
// growing backlog. The closed loop keeps the daemon busy with a fixed
// backlog, so no higher rate is sustainable; when it also met the limit,
// its completion rate is the answer. Otherwise the base rate is, when it
// passed, and else 0.
func maxRate(base, saturated phaseResult) float64 {
	switch {
	case saturated.pass:
		return saturated.achieved
	case base.pass:
		return base.achieved
	}
	return 0
}
