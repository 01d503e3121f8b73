package incr

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("incr: batcher closed")

// BatcherConfig tunes a Batcher. Zero values take the defaults.
type BatcherConfig struct {
	// MaxBatch flushes as soon as this many rows are queued (default 256).
	MaxBatch int
	// MaxDelay flushes the oldest queued request after this long even when
	// the batch is short (default 25ms).
	MaxDelay time.Duration
	// MaxPending bounds queued rows; Enqueue blocks (backpressure) while
	// the queue is full (default 4×MaxBatch).
	MaxPending int
	// OnFlush, when set, observes every flushed batch, exactly once per
	// flush, from the flusher goroutine.
	OnFlush func(*BatchResult)
}

func (c *BatcherConfig) defaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 25 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
}

// EnqueueResult is what one Enqueue call gets back: its own rows' outcomes
// plus the enclosing batch (shared between the requests it coalesced).
type EnqueueResult struct {
	Rows  []RowResult
	Batch *BatchResult
	// Err carries the flush-level error (repair.ErrCanceled partials).
	Err error
}

type enqueueReq struct {
	rows [][]string
	at   time.Time
	res  *EnqueueResult
	done chan struct{}
}

// Batcher coalesces concurrent appends in front of an Engine: requests
// queue until MaxBatch rows are pending or the oldest request has waited
// MaxDelay, then flush as one engine batch. The queue is bounded by
// MaxPending rows; producers block when it is full. One background
// goroutine owns all flushing, so engine batches never interleave.
type Batcher struct {
	eng *Engine
	cfg BatcherConfig

	mu    sync.Mutex
	work  *sync.Cond // flusher waits here for work / a fired timer / close
	space *sync.Cond // producers wait here for queue space
	queue []*enqueueReq
	rows  int // queued rows
	// timerGen invalidates stale AfterFunc callbacks; timerFired marks the
	// oldest request as overdue; timerFor is the deadline currently armed.
	timerGen   int
	timerFired bool
	timerFor   time.Time
	closed     bool
	done       chan struct{}
}

// NewBatcher starts a batcher over eng.
func NewBatcher(eng *Engine, cfg BatcherConfig) *Batcher {
	cfg.defaults()
	b := &Batcher{eng: eng, cfg: cfg, done: make(chan struct{})}
	b.work = sync.NewCond(&b.mu)
	b.space = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// Enqueue queues rows and blocks until their batch has flushed, returning
// this request's slice of the batch. It blocks earlier (backpressure) while
// MaxPending rows are already queued. A canceled ctx aborts the wait —
// queued rows still flush, the caller just stops waiting for them.
func (b *Batcher) Enqueue(ctx context.Context, rows [][]string) (*EnqueueResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(rows) == 0 {
		return &EnqueueResult{}, nil
	}
	// A ctx watcher wakes our cond wait so backpressure stays cancelable.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.space.Broadcast()
		b.mu.Unlock()
	})
	defer stop()
	b.mu.Lock()
	for b.rows >= b.cfg.MaxPending && !b.closed && ctx.Err() == nil {
		b.space.Wait()
	}
	if err := ctx.Err(); err != nil {
		b.mu.Unlock()
		return nil, err
	}
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	//lint:ignore nondeterm the arrival stamp only drives MaxWait flush deadlines; batch contents and repair outputs do not depend on it
	req := &enqueueReq{rows: rows, at: time.Now(), done: make(chan struct{})}
	b.queue = append(b.queue, req)
	b.rows += len(rows)
	b.work.Broadcast()
	b.mu.Unlock()
	select {
	case <-req.done:
		return req.res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close drains the queue, flushes what remains (reason "close"), stops the
// flusher and releases blocked producers. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.work.Broadcast()
	b.space.Broadcast()
	b.mu.Unlock()
	<-b.done
}

// flushable reports (with mu held) whether the flusher should take a batch.
func (b *Batcher) flushable() bool {
	if len(b.queue) == 0 {
		return false
	}
	return b.rows >= b.cfg.MaxBatch || b.timerFired || b.closed
}

// armTimer ensures (with mu held) an AfterFunc covers the oldest request's
// deadline. Already-overdue requests mark timerFired directly.
func (b *Batcher) armTimer() {
	if len(b.queue) == 0 || b.timerFired {
		return
	}
	deadline := b.queue[0].at.Add(b.cfg.MaxDelay)
	if !time.Now().Before(deadline) {
		b.timerFired = true
		return
	}
	if b.timerFor.Equal(deadline) {
		return // already armed for this request
	}
	b.timerGen++
	b.timerFor = deadline
	gen := b.timerGen
	time.AfterFunc(time.Until(deadline), func() {
		b.mu.Lock()
		if gen == b.timerGen {
			b.timerFired = true
			b.work.Broadcast()
		}
		b.mu.Unlock()
	})
}

// take pops (with mu held) whole requests FIFO until MaxBatch rows are
// gathered, and names the flush reason.
func (b *Batcher) take() (reqs []*enqueueReq, rows [][]string, reason string) {
	taken := 0
	for len(b.queue) > 0 && taken < b.cfg.MaxBatch {
		req := b.queue[0]
		b.queue = b.queue[1:]
		reqs = append(reqs, req)
		rows = append(rows, req.rows...)
		taken += len(req.rows)
	}
	b.rows -= taken
	switch {
	case taken >= b.cfg.MaxBatch:
		reason = "size"
	case b.timerFired:
		reason = "interval"
	default:
		reason = "close"
	}
	// Invalidate the armed timer; the loop re-arms for the next head.
	b.timerGen++
	b.timerFired = false
	b.timerFor = time.Time{}
	return reqs, rows, reason
}

func (b *Batcher) loop() {
	defer close(b.done)
	for {
		b.mu.Lock()
		for !b.flushable() {
			if b.closed && len(b.queue) == 0 {
				b.mu.Unlock()
				return
			}
			b.armTimer()
			// armTimer marks an already-overdue head as fired without any
			// wakeup to come, so waiting then would strand it until the
			// next Enqueue or Close.
			if !b.flushable() {
				b.work.Wait()
			}
		}
		reqs, rows, reason := b.take()
		b.space.Broadcast()
		b.mu.Unlock()

		br, err := b.eng.Append(rows, reason, nil)
		off := 0
		for _, req := range reqs {
			req.res = &EnqueueResult{
				Rows:  br.Rows[off : off+len(req.rows)],
				Batch: br,
				Err:   err,
			}
			off += len(req.rows)
			close(req.done)
		}
		if b.cfg.OnFlush != nil {
			b.cfg.OnFlush(br)
		}
	}
}
