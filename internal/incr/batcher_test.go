package incr_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"ftrepair/internal/dataset"
	"ftrepair/internal/incr"
	"ftrepair/internal/repair"
)

func newTestEngine(t *testing.T, n int) (*incr.Engine, [][]string) {
	t.Helper()
	inst := hospInstance(t, n, 1)
	split := n / 2
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	eng, _, err := incr.NewEngine(base, inst.Set, inst.Cfg, incr.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rowsOf(inst.Dirty)[split:]
}

// TestBatcherSizeFlush: a request carrying MaxBatch rows flushes immediately
// with reason "size".
func TestBatcherSizeFlush(t *testing.T) {
	eng, rows := newTestEngine(t, 200)
	b := incr.NewBatcher(eng, incr.BatcherConfig{MaxBatch: 10, MaxDelay: time.Hour})
	defer b.Close()
	res, err := b.Enqueue(context.Background(), rows[:10])
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Reason != "size" {
		t.Fatalf("reason = %q, want size", res.Batch.Reason)
	}
	if len(res.Rows) != 10 || res.Batch.Accepted != 10 {
		t.Fatalf("rows = %d, accepted = %d", len(res.Rows), res.Batch.Accepted)
	}
}

// TestBatcherMaxDelayFlush: a short batch flushes after MaxDelay with
// reason "interval".
func TestBatcherMaxDelayFlush(t *testing.T) {
	eng, rows := newTestEngine(t, 200)
	b := incr.NewBatcher(eng, incr.BatcherConfig{MaxBatch: 1000, MaxDelay: 30 * time.Millisecond})
	defer b.Close()
	start := time.Now()
	res, err := b.Enqueue(context.Background(), rows[:3])
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Reason != "interval" {
		t.Fatalf("reason = %q, want interval", res.Batch.Reason)
	}
	if waited := time.Since(start); waited < 25*time.Millisecond {
		t.Fatalf("flushed after %v, before MaxDelay", waited)
	}
}

// TestBatcherOverdueAfterFlush: a request that arrives during a flush and
// is overdue when the flush ends flushes at once, without waiting for
// another Enqueue or Close to wake the flusher.
func TestBatcherOverdueAfterFlush(t *testing.T) {
	eng, rows := newTestEngine(t, 200)
	const maxDelay = time.Millisecond
	flushing, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	b := incr.NewBatcher(eng, incr.BatcherConfig{
		MaxBatch: 2, MaxDelay: maxDelay,
		// Holds the first flush open, the way a flush slower than MaxDelay
		// keeps the flusher busy.
		OnFlush: func(*incr.BatchResult) {
			first.Do(func() {
				close(flushing)
				<-release
			})
		},
	})
	defer b.Close()
	if _, err := b.Enqueue(context.Background(), rows[:2]); err != nil {
		t.Fatal(err)
	}
	<-flushing

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type outcome struct {
		res *incr.EnqueueResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := b.Enqueue(ctx, rows[2:3])
		done <- outcome{res, err}
	}()
	for b.QueuedRequests() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(2 * maxDelay) // the queued request is now overdue
	close(release)
	got := <-done
	if got.err != nil {
		t.Fatalf("overdue request was not flushed: %v", got.err)
	}
	if got.res.Batch.Reason != "interval" {
		t.Fatalf("reason = %q, want interval", got.res.Batch.Reason)
	}
}

// TestBatcherBackpressure: with the queue full, Enqueue blocks and honors
// context cancellation; Close flushes the stranded queue with reason
// "close" and rejects later enqueues.
func TestBatcherBackpressure(t *testing.T) {
	eng, rows := newTestEngine(t, 200)
	b := incr.NewBatcher(eng, incr.BatcherConfig{
		MaxBatch: 1000, MaxDelay: time.Hour, MaxPending: 2,
	})
	var firstRes *incr.EnqueueResult
	var firstErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		firstRes, firstErr = b.Enqueue(context.Background(), rows[:2])
	}()
	// Give the producer time to queue its rows (fills MaxPending). Even if
	// it were still pending, the assertion below would only be weaker (the
	// enqueue would block awaiting a flush that never comes), not flaky.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := b.Enqueue(ctx, rows[3:4]); err != context.DeadlineExceeded {
		t.Fatalf("full-queue enqueue err = %v, want DeadlineExceeded", err)
	}
	b.Close()
	<-done
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if firstRes.Batch.Reason != "close" {
		t.Fatalf("drain reason = %q, want close", firstRes.Batch.Reason)
	}
	if _, err := b.Enqueue(context.Background(), rows[4:5]); err != incr.ErrClosed {
		t.Fatalf("post-close enqueue err = %v, want ErrClosed", err)
	}
}

// TestBatcherConcurrentProducers hammers the batcher from many goroutines
// (race coverage) and checks nothing is lost, duplicated, or inconsistent:
// the final relation matches the from-scratch oracle over the same rows.
func TestBatcherConcurrentProducers(t *testing.T) {
	inst := hospInstance(t, 320, 1)
	split := 120
	base := &dataset.Relation{Schema: inst.Dirty.Schema, Tuples: inst.Dirty.Tuples[:split]}
	eng, _, err := incr.NewEngine(base, inst.Set, inst.Cfg, incr.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := incr.NewBatcher(eng, incr.BatcherConfig{
		MaxBatch: 16, MaxDelay: 2 * time.Millisecond, MaxPending: 32,
	})
	rows := rowsOf(inst.Dirty)[split:]
	const producers = 8
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < len(rows); i += producers {
				if _, err := b.Enqueue(context.Background(), rows[i:i+1]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Accepted != len(rows) {
		t.Fatalf("accepted = %d, want %d", st.Accepted, len(rows))
	}
	if err := repair.VerifyFTConsistent(eng.Snapshot(), inst.Set, inst.Cfg); err != nil {
		t.Fatal(err)
	}
	// Concurrent producers interleave arbitrarily, so compare against the
	// oracle over the rows in the order the engine actually admitted them.
	oracle, _, err := incr.RepairAll(eng.InputSnapshot(), inst.Set, inst.Cfg, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRelations(t, eng.Snapshot(), oracle, "concurrent ingest")
}

// TestBatcherOnFlush: the callback fires once per flush with the shared
// batch result.
func TestBatcherOnFlush(t *testing.T) {
	eng, rows := newTestEngine(t, 200)
	var mu sync.Mutex
	var reasons []string
	b := incr.NewBatcher(eng, incr.BatcherConfig{
		MaxBatch: 5, MaxDelay: time.Hour,
		OnFlush: func(br *incr.BatchResult) {
			mu.Lock()
			reasons = append(reasons, br.Reason)
			mu.Unlock()
		},
	})
	if _, err := b.Enqueue(context.Background(), rows[:5]); err != nil {
		t.Fatal(err)
	}
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 1 || reasons[0] != "size" {
		t.Fatalf("OnFlush calls = %v, want [size]", reasons)
	}
}
