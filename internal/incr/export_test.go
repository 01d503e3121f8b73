package incr

// QueuedRequests reports how many requests wait in the batcher's queue.
func (b *Batcher) QueuedRequests() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}
