package server

import (
	"sync"
	"time"

	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
)

// AlgoStat aggregates latency for one algorithm.
type AlgoStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	MaxMs   float64 `json:"maxMs"`
	MeanMs  float64 `json:"meanMs"`
}

// StatsView is the JSON body of GET /v1/stats.
type StatsView struct {
	UptimeSeconds  float64          `json:"uptimeSeconds"`
	Jobs           map[JobState]int `json:"jobs"`
	JobsSubmitted  int              `json:"jobsSubmitted"`
	CellsRepaired  int              `json:"cellsRepaired"`
	Sessions       int              `json:"sessions"`
	SessionTuples  int              `json:"sessionTuples"`
	SessionRepairs int              `json:"sessionRepairs"`
	// DistCacheHits/Misses aggregate the distance-cache counters reported by
	// finished jobs (the "distCacheHits"/"distCacheMisses" Stats entries).
	DistCacheHits   int `json:"distCacheHits"`
	DistCacheMisses int `json:"distCacheMisses"`
	// DistPlaneHits/Misses split out the distance planes' share of the
	// cache traffic above; the rest of the misses are uncached computations
	// (the "distPlaneHits"/"distPlaneMisses" Stats entries).
	DistPlaneHits   int                  `json:"distPlaneHits"`
	DistPlaneMisses int                  `json:"distPlaneMisses"`
	Algorithms      map[string]*AlgoStat `json:"algorithms"`
}

// metrics collects operational counters under one mutex; every counter is
// incremented on job/session completion paths, far from the hot loops. The
// same events are mirrored into the obs default registry so GET /metrics
// exposes them next to the pipeline counters; the distance-cache totals are
// deliberately NOT mirrored here because repair's finish() already flushes
// them into ftrepair_distcache_*_total.
type metrics struct {
	mu             sync.Mutex
	jobsSubmitted  int
	cellsRepaired  int
	sessionTuples  int
	sessionRepairs int
	distCacheHits  int
	distCacheMiss  int
	distPlaneHits  int
	distPlaneMiss  int
	perAlgo        map[string]*AlgoStat

	obsJobsSubmitted  *obs.Counter
	obsCellsRepaired  *obs.Counter
	obsSessionTuples  *obs.Counter
	obsSessionRepairs *obs.Counter
	obsUptime         *obs.Gauge
	obsSessionsOpen   *obs.Gauge
}

func newMetrics() *metrics {
	reg := obs.Default()
	return &metrics{
		perAlgo:           make(map[string]*AlgoStat),
		obsJobsSubmitted:  reg.Counter("repaird_jobs_submitted_total", "Repair jobs accepted by POST /v1/jobs."),
		obsCellsRepaired:  reg.Counter("repaird_cells_repaired_total", "Cells changed by completed jobs."),
		obsSessionTuples:  reg.Counter("repaird_session_tuples_total", "Tuples appended to streaming sessions."),
		obsSessionRepairs: reg.Counter("repaird_session_repairs_total", "Appended tuples that needed an online repair."),
		obsUptime:         reg.Gauge("repaird_uptime_seconds", "Seconds since the server started."),
		obsSessionsOpen:   reg.Gauge("repaird_sessions_open", "Streaming sessions currently open."),
	}
}

func (m *metrics) jobSubmitted() {
	m.mu.Lock()
	m.jobsSubmitted++
	m.mu.Unlock()
	m.obsJobsSubmitted.Inc()
}

func (m *metrics) jobFinished(state JobState, algo repair.Algorithm, elapsed time.Duration, cellsRepaired int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if state == JobDone || state == JobCanceled {
		m.cellsRepaired += cellsRepaired
		m.obsCellsRepaired.AddInt(cellsRepaired)
	}
	if state == JobDone {
		st := m.perAlgo[string(algo)]
		if st == nil {
			st = &AlgoStat{}
			m.perAlgo[string(algo)] = st
		}
		ms := float64(elapsed.Microseconds()) / 1000
		st.Count++
		st.TotalMs += ms
		if ms > st.MaxMs {
			st.MaxMs = ms
		}
	}
	obs.Default().Counter("repaird_jobs_finished_total",
		"Jobs finished, by terminal state.",
		obs.Label{Key: "state", Value: string(state)}).Inc()
}

// addDistCache accumulates the distance-cache counters a finished job
// reported in its repair Stats map.
func (m *metrics) addDistCache(stats map[string]int) {
	if stats == nil {
		return
	}
	m.mu.Lock()
	m.distCacheHits += stats["distCacheHits"]
	m.distCacheMiss += stats["distCacheMisses"]
	m.distPlaneHits += stats["distPlaneHits"]
	m.distPlaneMiss += stats["distPlaneMisses"]
	m.mu.Unlock()
}

func (m *metrics) sessionAppend(tuples, repaired int) {
	m.mu.Lock()
	m.sessionTuples += tuples
	m.sessionRepairs += repaired
	m.mu.Unlock()
	m.obsSessionTuples.AddInt(tuples)
	m.obsSessionRepairs.AddInt(repaired)
}

// syncGauges refreshes the point-in-time gauges in the obs registry just
// before an exposition; counters flow in as events happen, but uptime and
// the job/session population only exist as snapshots.
func (m *metrics) syncGauges(uptime time.Duration, jobs map[JobState]int, sessions int) {
	m.obsUptime.Set(uptime.Seconds())
	m.obsSessionsOpen.Set(float64(sessions))
	reg := obs.Default()
	for state, n := range jobs {
		reg.Gauge("repaird_jobs", "Jobs currently in the store, by state.",
			obs.Label{Key: "state", Value: string(state)}).Set(float64(n))
	}
}

// snapshot merges the counters with the caller-supplied gauges.
func (m *metrics) snapshot(uptime time.Duration, jobs map[JobState]int, sessions int) StatsView {
	m.mu.Lock()
	defer m.mu.Unlock()
	algos := make(map[string]*AlgoStat, len(m.perAlgo))
	for name, st := range m.perAlgo {
		cp := *st
		if cp.Count > 0 {
			cp.MeanMs = cp.TotalMs / float64(cp.Count)
		}
		algos[name] = &cp
	}
	return StatsView{
		UptimeSeconds:   uptime.Seconds(),
		Jobs:            jobs,
		JobsSubmitted:   m.jobsSubmitted,
		CellsRepaired:   m.cellsRepaired,
		Sessions:        sessions,
		SessionTuples:   m.sessionTuples,
		SessionRepairs:  m.sessionRepairs,
		DistCacheHits:   m.distCacheHits,
		DistCacheMisses: m.distCacheMiss,
		DistPlaneHits:   m.distPlaneHits,
		DistPlaneMisses: m.distPlaneMiss,
		Algorithms:      algos,
	}
}
