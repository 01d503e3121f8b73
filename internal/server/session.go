package server

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ftrepair/internal/incr"
	"ftrepair/internal/repair"
)

// session is one long-lived streaming repair: an incr.Engine holding the
// sharded warm state, fronted by an incr.Batcher so concurrent POSTs
// coalesce into flushes instead of serializing per tuple. The engine has
// its own fine-grained locking — view() and relationCSV() read through it
// without waiting for an in-flight append batch; the session only guards
// its progress-event ring with a small mutex.
type session struct {
	id      string
	created time.Time

	eng *incr.Engine
	bat *incr.Batcher
	// baseRepaired counts cells the initial flush changed to make the base
	// consistent.
	baseRepaired int
	baseAlgo     string

	// evMu guards only the bounded ring of recent flushes; eventSeq numbers
	// them monotonically so a poller can detect gaps after the ring wrapped.
	evMu     sync.Mutex
	events   []ProgressEvent
	eventSeq int
}

// progressRingCap bounds the per-session event ring; a poller that falls
// more than this many batches behind sees a gap in Seq.
const progressRingCap = 64

// ProgressEvent describes one flushed append batch.
type ProgressEvent struct {
	// Seq numbers events monotonically from 1; a gap between consecutive
	// events means the ring wrapped between polls.
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// Tuples and Repaired count the batch's rows and how many were repaired;
	// TotalTuples is the relation size after the batch.
	Tuples      int     `json:"tuples"`
	Repaired    int     `json:"repaired"`
	TotalTuples int     `json:"totalTuples"`
	DurMs       float64 `json:"durMs"`
	// FlushReason is what triggered the flush: size, interval, or close.
	FlushReason string `json:"flushReason,omitempty"`
	// ShardsTouched and MaxShardRows describe the batch's blast radius: how
	// many shards it dirtied and the largest one's row count.
	ShardsTouched int `json:"shardsTouched,omitempty"`
	MaxShardRows  int `json:"maxShardRows,omitempty"`
}

// SessionView is the JSON representation of a session.
type SessionView struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	// Tuples is the current relation size (base + accepted appends).
	Tuples int `json:"tuples"`
	// Accepted and Repaired count appended tuples and how many of them
	// needed repair.
	Accepted int `json:"accepted"`
	Repaired int `json:"repaired"`
	// Batches counts engine flushes (including the base flush); Shards is
	// the live shard population.
	Batches int `json:"batches"`
	Shards  int `json:"shards"`
	// BaseRepairedCells counts cells changed to make the base consistent;
	// BaseAlgorithm names the algorithm that did it ("" when the base was
	// already consistent).
	BaseRepairedCells int    `json:"baseRepairedCells"`
	BaseAlgorithm     string `json:"baseAlgorithm,omitempty"`
	// Events is the session's recent append batches, oldest first (at most
	// the last 64).
	Events []ProgressEvent `json:"events,omitempty"`
}

// AppendedTuple is the per-row outcome of a tuple append.
type AppendedTuple struct {
	// Values is the accepted (possibly repaired) tuple.
	Values []string `json:"values"`
	// Repaired reports whether the tuple was modified on the way in.
	Repaired bool `json:"repaired"`
	// Error carries a per-row failure (wrong arity); the row was skipped.
	Error string `json:"error,omitempty"`
}

// view snapshots the session without blocking behind an in-flight batch:
// engine stats are read under the engine's state read-lock, events under
// the small ring mutex.
func (s *session) view() SessionView {
	st := s.eng.Stats()
	s.evMu.Lock()
	events := make([]ProgressEvent, len(s.events))
	copy(events, s.events)
	s.evMu.Unlock()
	return SessionView{
		ID:                s.id,
		Created:           s.created,
		Tuples:            st.Rows,
		Accepted:          st.Accepted,
		Repaired:          st.Repaired,
		Batches:           st.Batches,
		Shards:            st.Shards,
		BaseRepairedCells: s.baseRepaired,
		BaseAlgorithm:     s.baseAlgo,
		Events:            events,
	}
}

// onFlush records one flushed batch in the progress ring; registered as
// the batcher's OnFlush callback, so it fires exactly once per flush no
// matter how many requests the batch coalesced.
func (s *session) onFlush(br *incr.BatchResult) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	s.eventSeq++
	s.events = append(s.events, ProgressEvent{
		Seq:           s.eventSeq,
		Time:          time.Now().Add(-br.Elapsed),
		Tuples:        len(br.Rows),
		Repaired:      br.Repaired,
		TotalTuples:   br.TotalRows,
		DurMs:         float64(br.Elapsed.Microseconds()) / 1000,
		FlushReason:   br.Reason,
		ShardsTouched: br.ShardsTouched,
		MaxShardRows:  br.MaxShardRows,
	})
	if len(s.events) > progressRingCap {
		s.events = s.events[len(s.events)-progressRingCap:]
	}
}

// append enqueues rows and waits for their flush, returning per-row
// outcomes and how many rows were repaired. Concurrent callers coalesce
// into shared batches instead of serializing per tuple.
func (s *session) append(ctx context.Context, rows [][]string) ([]AppendedTuple, int, error) {
	res, err := s.bat.Enqueue(ctx, rows)
	if err != nil {
		return nil, 0, err
	}
	out := make([]AppendedTuple, 0, len(res.Rows))
	repaired := 0
	for _, rr := range res.Rows {
		if rr.Err != nil {
			out = append(out, AppendedTuple{Error: rr.Err.Error()})
			continue
		}
		if rr.Repaired {
			repaired++
		}
		out = append(out, AppendedTuple{Values: rr.Values, Repaired: rr.Repaired})
	}
	return out, repaired, res.Err
}

// relationCSV serializes the session's current relation; it reads under
// the engine's state lock and never waits for a flush to finish.
func (s *session) relationCSV() (string, error) {
	var buf strings.Builder
	if err := s.eng.WriteCSV(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// close drains and stops the session's batcher.
func (s *session) close() { s.bat.Close() }

// sessionRegistry tracks live sessions under a mutex.
type sessionRegistry struct {
	mu       sync.Mutex
	sessions map[string]*session
	seq      int
}

func newSessionRegistry() *sessionRegistry {
	return &sessionRegistry{sessions: make(map[string]*session)}
}

// create compiles a session spec and builds its engine; the engine's
// initial flush repairs the base relation when it is not already
// FT-consistent.
func (r *sessionRegistry) create(spec SessionSpec) (*session, error) {
	algo, err := repair.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	rel, err := loadRelation(spec.CSV, spec.Header, spec.Rows, spec.Types)
	if err != nil {
		return nil, err
	}
	set, cfg, err := compileConstraints(rel, spec.FDs, spec.Tau, spec.AutoTau, spec.WL, spec.WR)
	if err != nil {
		return nil, err
	}
	eng, initRes, err := incr.NewEngine(rel, set, cfg, incr.Options{Algorithm: algo})
	if err != nil {
		return nil, err
	}
	baseAlgo := ""
	if initRes.ChangedCells > 0 {
		baseAlgo = string(algo)
	}
	s := &session{
		created:      time.Now(),
		eng:          eng,
		baseRepaired: initRes.ChangedCells,
		baseAlgo:     baseAlgo,
	}
	maxDelay := 5 * time.Millisecond
	if spec.MaxDelayMs > 0 {
		maxDelay = time.Duration(spec.MaxDelayMs) * time.Millisecond
	}
	s.bat = incr.NewBatcher(eng, incr.BatcherConfig{
		MaxBatch:   spec.MaxBatch,
		MaxDelay:   maxDelay,
		MaxPending: spec.MaxPending,
		OnFlush:    s.onFlush,
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	s.id = fmt.Sprintf("sess-%06d", r.seq)
	r.sessions[s.id] = s
	return s, nil
}

func (r *sessionRegistry) get(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// remove unregisters a session and returns it so the caller can close it
// outside the registry lock.
func (r *sessionRegistry) remove(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return nil, false
	}
	delete(r.sessions, id)
	return s, true
}

func (r *sessionRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

func (r *sessionRegistry) list() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// closeAll drains every session's batcher (server shutdown).
func (r *sessionRegistry) closeAll() {
	for _, s := range r.list() {
		s.close()
	}
}
