package server

import (
	"errors"
	"sync"
	"time"

	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
)

// errQueueFull is returned by submit when the bounded queue is at capacity;
// the HTTP layer maps it to 503.
var errQueueFull = errors.New("server: job queue is full")

// errShuttingDown is returned by submit after Shutdown started.
var errShuttingDown = errors.New("server: shutting down")

// pool executes jobs on a fixed set of worker goroutines reading from a
// bounded queue.
type pool struct {
	mu     sync.Mutex
	closed bool
	queue  chan *Job
	wg     sync.WaitGroup
}

func newPool(workers, depth int, exec func(*Job)) *pool {
	p := &pool{queue: make(chan *Job, depth)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.queue {
				exec(j)
			}
		}()
	}
	return p
}

// submit enqueues a job without blocking; a full queue or a closed pool is
// an error the caller surfaces to the client.
func (p *pool) submit(j *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errShuttingDown
	}
	select {
	case p.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// close stops intake; workers drain the queue and exit.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
}

// wait blocks until every worker exited or the deadline passes.
func (p *pool) wait(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// jobRunOutcome pairs a repair result with whether it is partial (canceled
// mid-run).
type jobRunOutcome struct {
	result  *repair.Result
	partial bool
}

// execJob is the worker body: runs one job to a terminal state and records
// metrics. Cancellation while queued is honored by markRunning.
func (s *Server) execJob(j *Job) {
	if !j.markRunning() {
		s.metrics.jobFinished(JobCanceled, j.prob.algo, 0, 0)
		return
	}
	var cancel <-chan struct{} = j.cancelCh
	if j.spec.TimeoutMs > 0 {
		var stop func()
		cancel, stop = withDeadline(j.cancelCh, time.Duration(j.spec.TimeoutMs)*time.Millisecond)
		defer stop()
	}
	// Every job gets its own trace; the summaries ride along in the job
	// result so clients can see where the wall time went without any
	// server-side profiling. CloseOpen is the safety net for error paths
	// that unwound before a span's deferred End ran.
	tr := obs.NewTrace("job:" + j.id)
	// Every job also gets its own ledger: the run commits applied cell
	// repairs into it, and the explain/undo/ledger endpoints read it back.
	led := ledger.New()
	start := time.Now()
	res, err := j.prob.run(cancel, tr, led)
	elapsed := time.Since(start)
	tr.CloseOpen()

	switch {
	case err == nil:
		jr := buildResult(j.prob, &jobRunOutcome{result: res})
		jr.Spans = tr.Summaries()
		s.verifyIfRequested(j, jr, res)
		j.attachLedger(led, res.Repaired)
		j.complete(JobDone, jr, "")
		s.metrics.jobFinished(JobDone, j.prob.algo, elapsed, len(res.Changed))
		s.metrics.addDistCache(res.Stats)
	case errors.Is(err, repair.ErrCanceled):
		var jr *JobResult
		changed := 0
		if res != nil {
			jr = buildResult(j.prob, &jobRunOutcome{result: res, partial: true})
			jr.Spans = tr.Summaries()
			changed = len(res.Changed)
			s.metrics.addDistCache(res.Stats)
			j.attachLedger(led, res.Repaired)
		}
		j.complete(JobCanceled, jr, err.Error())
		s.metrics.jobFinished(JobCanceled, j.prob.algo, elapsed, changed)
	default:
		j.complete(JobFailed, nil, err.Error())
		s.metrics.jobFinished(JobFailed, j.prob.algo, elapsed, 0)
	}
}

// verifyIfRequested fills the FTConsistent/Valid fields when the spec asked
// for verification.
func (s *Server) verifyIfRequested(j *Job, jr *JobResult, res *repair.Result) {
	if !j.spec.Verify {
		return
	}
	ft := repair.VerifyFTConsistent(res.Repaired, j.prob.set, j.prob.cfg) == nil
	valid := repair.VerifyValid(j.prob.rel, res.Repaired, j.prob.set) == nil
	jr.FTConsistent = &ft
	jr.Valid = &valid
	if !ft || !valid {
		s.logInfo("job verification failed", "job", j.id, "ftConsistent", ft, "valid", valid)
	}
}

// withDeadline derives a channel that fires when either the parent cancel
// channel closes or the timeout elapses. stop ends the watcher goroutine and
// its timer; call it once the channel is no longer read.
func withDeadline(parent <-chan struct{}, d time.Duration) (fired <-chan struct{}, stop func()) {
	out, done := make(chan struct{}), make(chan struct{})
	go func() {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-parent:
		case <-t.C:
		case <-done:
			return
		}
		close(out)
	}()
	return out, func() { close(done) }
}
