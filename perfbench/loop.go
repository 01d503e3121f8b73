package main

import (
	"container/heap"
	"sync"
	"time"
)

// action is one scheduled request of the open-loop generator. run performs
// it and returns any follow-up actions (a poll, the next append).
type action struct {
	at  time.Time
	run func() []*action
}

type actionHeap []*action

func (h actionHeap) Len() int           { return len(h) }
func (h actionHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h actionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *actionHeap) Push(x any)        { *h = append(*h, x.(*action)) }
func (h *actionHeap) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// runLoop executes actions in due order on a fixed number of goroutines
// (the generator's concurrency bound) and returns when no action is left
// queued or running. An action that comes due while every goroutine is busy
// runs late; callers time their operations from the due time, so that wait
// counts against the system.
func runLoop(workers int, actions []*action) {
	var mu sync.Mutex
	q := actionHeap(append([]*action(nil), actions...))
	heap.Init(&q)
	running := 0
	// wake nudges a sleeping goroutine when a follow-up is queued; one
	// pending nudge is enough, since the waker itself rescans the queue.
	wake := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if len(q) == 0 && running == 0 {
					mu.Unlock()
					select {
					case wake <- struct{}{}: // let a sleeping peer see the end
					default:
					}
					return
				}
				wait := time.Millisecond
				if len(q) > 0 {
					wait = time.Until(q[0].at)
				}
				if len(q) == 0 || wait > 0 {
					mu.Unlock()
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-wake:
					}
					t.Stop()
					continue
				}
				a := heap.Pop(&q).(*action)
				running++
				mu.Unlock()
				next := a.run()
				mu.Lock()
				running--
				for _, n := range next {
					heap.Push(&q, n)
				}
				mu.Unlock()
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		}()
	}
	wg.Wait()
}

// fixedRate returns n due times spaced 1/rate apart from start.
func fixedRate(start time.Time, rate float64, n int) []time.Time {
	out := make([]time.Time, n)
	step := time.Duration(float64(time.Second) / rate)
	for i := range out {
		out[i] = start.Add(time.Duration(i) * step)
	}
	return out
}
