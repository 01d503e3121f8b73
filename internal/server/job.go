package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ftrepair/internal/dataset"
	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
)

// JobState is the lifecycle state of a repair job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing the repair.
	JobRunning JobState = "running"
	// JobDone: finished successfully; the result is available.
	JobDone JobState = "done"
	// JobFailed: the repair returned an error.
	JobFailed JobState = "failed"
	// JobCanceled: canceled via DELETE or timed out. A partial result may
	// be attached.
	JobCanceled JobState = "canceled"
)

// ChangedCell is one repaired cell in a job result, with attribute name and
// both values for human consumption.
type ChangedCell struct {
	Row  int    `json:"row"`
	Col  int    `json:"col"`
	Attr string `json:"attr"`
	Old  string `json:"old"`
	New  string `json:"new"`
}

// JobResult is the outcome of a completed (or partially completed) job.
type JobResult struct {
	Algorithm string         `json:"algorithm"`
	Cost      float64        `json:"cost"`
	ElapsedMs float64        `json:"elapsedMs"`
	Tuples    int            `json:"tuples"`
	Changed   []ChangedCell  `json:"changed"`
	Stats     map[string]int `json:"stats,omitempty"`
	// CSV is the repaired relation serialized back to CSV.
	CSV string `json:"csv"`
	// FTConsistent and Valid report verification outcomes when the spec
	// requested them (nil otherwise).
	FTConsistent *bool `json:"ftConsistent,omitempty"`
	Valid        *bool `json:"valid,omitempty"`
	// Partial marks results attached to a canceled job: only the work
	// committed before the cancellation is applied.
	Partial bool `json:"partial,omitempty"`
	// Spans summarizes the job's phase trace: where the wall time went
	// (graph build, expansion, target search, apply), per FD and worker.
	Spans []obs.SpanSummary `json:"spans,omitempty"`
}

// JobView is the JSON representation of a job returned by the API.
type JobView struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	Algorithm string     `json:"algorithm"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// Job is one repair job tracked by the store. All mutable fields are
// guarded by mu; the compiled problem is immutable after submission.
type Job struct {
	id        string
	spec      JobSpec
	prob      *problem
	submitted time.Time

	mu         sync.Mutex
	state      JobState
	started    time.Time
	finished   time.Time
	errMsg     string
	result     *JobResult
	cancelCh   chan struct{}
	cancelOnce sync.Once
	// led is the job's repair ledger (every applied cell with provenance and
	// Merkle commitments); repaired is the result relation the ledger's
	// events replay against. Both are set once at completion and immutable
	// afterwards, so accessors hand them out without copying.
	led      *ledger.Ledger
	repaired *dataset.Relation
}

func newJob(id string, spec JobSpec, prob *problem, now time.Time) *Job {
	return &Job{
		id: id, spec: spec, prob: prob, submitted: now,
		state: JobQueued, cancelCh: make(chan struct{}),
	}
}

// Cancel requests cancellation: queued jobs flip to canceled immediately,
// running jobs get their cancel channel closed and transition when the
// algorithm unwinds. Terminal jobs are unaffected. Reports whether the call
// had any effect.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.finished = time.Now()
		j.errMsg = "canceled before start"
		j.closeCancel()
		return true
	case JobRunning:
		j.closeCancel()
		return true
	default:
		return false
	}
}

func (j *Job) closeCancel() {
	j.cancelOnce.Do(func() { close(j.cancelCh) })
}

// markRunning transitions queued -> running; returns false when the job was
// canceled while queued (the worker must skip it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	return true
}

// complete records the terminal state of a run.
func (j *Job) complete(state JobState, res *JobResult, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.finished = time.Now()
	j.result = res
	j.errMsg = errMsg
}

// attachLedger records the finished run's ledger and result relation.
func (j *Job) attachLedger(led *ledger.Ledger, repaired *dataset.Relation) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.led = led
	j.repaired = repaired
}

// Ledger returns the job's ledger and result relation, nil before the job
// reached a terminal state with a result.
func (j *Job) Ledger() (*ledger.Ledger, *dataset.Relation) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.led, j.repaired
}

// View snapshots the job for JSON encoding. withResult controls whether the
// (potentially large) result payload is included.
func (j *Job) View(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Algorithm: string(j.prob.algo),
		Submitted: j.submitted,
		Error:     j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// jobStore is the in-memory job registry.
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job)}
}

func (s *jobStore) add(spec JobSpec, prob *problem) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), spec, prob, time.Now())
	s.jobs[j.id] = j
	return j
}

func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns every job in submission order (ids are sequential).
func (s *jobStore) list() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// gauges counts jobs by state.
func (s *jobStore) gauges() map[JobState]int {
	counts := make(map[JobState]int)
	for _, j := range s.list() {
		counts[j.State()]++
	}
	return counts
}

// cancelAll fires every non-terminal job's cancel channel (shutdown path).
func (s *jobStore) cancelAll() {
	for _, j := range s.list() {
		j.Cancel()
	}
}

// buildResult converts a repair result into the API shape.
func buildResult(prob *problem, res *jobRunOutcome) *JobResult {
	r := res.result
	out := &JobResult{
		Algorithm: r.Algorithm,
		Cost:      r.Cost,
		ElapsedMs: float64(r.Elapsed.Microseconds()) / 1000,
		Tuples:    r.Repaired.Len(),
		Stats:     r.Stats,
		Partial:   res.partial,
	}
	out.Changed = make([]ChangedCell, 0, len(r.Changed))
	for _, c := range r.Changed {
		out.Changed = append(out.Changed, ChangedCell{
			Row:  c.Row,
			Col:  c.Col,
			Attr: prob.rel.Schema.Attr(c.Col).Name,
			Old:  prob.rel.Get(c),
			New:  r.Repaired.Get(c),
		})
	}
	var buf strings.Builder
	if err := dataset.WriteCSV(&buf, r.Repaired); err == nil {
		out.CSV = buf.String()
	}
	return out
}
