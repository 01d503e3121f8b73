package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"ftrepair"
	"ftrepair/internal/gen"
)

// The repaird-stream settings: a 4000-row HOSP base under the first three
// HOSP FDs (the incrbench set; all nine chain every row into one shard),
// then 20-row appends.
const (
	streamBase      = 4000
	streamFDs       = 3
	streamRows      = 20
	streamBaseRate  = 10.0 // appends/s: about half of capacity
	streamBaseShare = 0.6
	streamLimitMs   = 250.0
	// streamInputRate sizes the generated stream: enough appends for the
	// whole run at this rate. The closed loop stops early when only
	// streamReserve appends are left, and keeps those for releasing an
	// append the batcher left waiting (see phase).
	streamInputRate = 40.0
	streamReserve   = 64
	// streamStuckMin is the shortest time an append must go unanswered,
	// and at least three times the slowest answer so far, before the
	// phase sends one more to wake the batcher for it.
	streamStuckMin = 100 * time.Millisecond
	// streamHangAfter bounds the wait for the last appends of a phase.
	streamHangAfter = 30 * time.Second
	// The generator draws hospitals and measures as for the base alone, so
	// the stream's length does not change the base's structure.
	streamHospitals = streamBase / 40
	streamMeasures  = streamBase / 100
)

// streamInput is the base plus every append the run may send, with ground
// truth.
type streamInput struct {
	inst    *instance // base+stream rows, dirty and clean
	baseCSV []byte
	appends [][][]string
}

// streamInputFor generates the stream from a fixed HOSP draw (generator
// seed 1) and lets the run seed permute the base rows and, separately, the
// streamed rows: shard sizes, and with them flush cost, vary between draws,
// which would add the draw's cost to the run-to-run spread.
func streamInputFor(seed int64, maxAppends int) (*streamInput, error) {
	clean := gen.HOSP{Seed: 1, Hospitals: streamHospitals, Measures: streamMeasures}.Generate(streamBase + maxAppends*streamRows)
	fds := gen.HOSPFDs(clean.Schema)[:streamFDs]
	inst, err := newInstance("hosp-stream", clean, fds, 0.04, 2, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, part := range [][2]int{{0, streamBase}, {streamBase, inst.dirty.Len()}} {
		lo, hi := part[0], part[1]
		rng.Shuffle(hi-lo, func(i, j int) {
			c, d := inst.clean.Tuples, inst.dirty.Tuples
			c[lo+i], c[lo+j] = c[lo+j], c[lo+i]
			d[lo+i], d[lo+j] = d[lo+j], d[lo+i]
		})
	}
	var b strings.Builder
	base := &ftrepair.Relation{Schema: inst.dirty.Schema, Tuples: inst.dirty.Tuples[:streamBase]}
	if err := ftrepair.WriteCSV(&b, base); err != nil {
		return nil, err
	}
	in := &streamInput{inst: inst, baseCSV: []byte(b.String())}
	for a := 0; a < maxAppends; a++ {
		off := streamBase + a*streamRows
		rows := make([][]string, streamRows)
		for i := range rows {
			rows[i] = inst.dirty.Tuples[off+i]
		}
		in.appends = append(in.appends, rows)
	}
	return in, nil
}

// progressEvent mirrors a session progress event.
type progressEvent struct {
	Seq           int       `json:"seq"`
	Time          time.Time `json:"time"`
	Tuples        int       `json:"tuples"`
	TotalTuples   int       `json:"totalTuples"`
	DurMs         float64   `json:"durMs"`
	ShardsTouched int       `json:"shardsTouched"`
	MaxShardRows  int       `json:"maxShardRows"`
}

// streamRunner sends appends and, traced, polls the session's progress
// ring often enough that it never wraps between polls.
type streamRunner struct {
	d    *daemon
	sess string
	in   *streamInput
	next int
	mu   sync.Mutex
	sent []appendRec
	// releases counts the appends sent to wake the batcher.
	releases int
	events   map[int]progressEvent
	trace    bool
}

// progressPollEvery is how many appends may pass between polls of the
// session's progress ring: it holds 64 flushes and every append flushes at
// most once, so it never wraps between polls.
const progressPollEvery = 16

type appendRec struct {
	idx   int // index into in.appends
	times opTimes
	err   string
	// release marks an append sent to wake the batcher for a stuck one.
	release bool
}

// phase offers appends for sec seconds: at a fixed rate when rate > 0, and
// otherwise as the closed loop, which sends an append on every load
// connection as soon as the last one answers, saturating the session. The
// closed loop also stops when only streamReserve generated appends are
// left.
//
// The load uses all but one of the generator's nproc connections. The last
// one is kept for releasing: the session batcher only wakes for an append
// that waited out a previous flush when the next append arrives (see
// README), so with every connection waiting on such an append nothing could
// release them. Whenever the oldest unanswered append has been out for
// longer than stuckAfter and a connection is free, the phase sends one more
// append. The phase ends once the load is done and every append answered.
func (s *streamRunner) phase(rate, sec float64) ([]opTimes, error) {
	conns := runtime.NumCPU()
	load := max(conns-1, 1)
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(time.Duration(sec * float64(time.Second)))
	var dues []time.Time
	if rate > 0 {
		dues = fixedRate(start, rate, max(int(rate*sec+0.5), 1))
	}
	var recs []*appendRec
	out := make(map[*appendRec]bool) // unanswered appends
	answered := make(chan *appendRec, conns)
	loadOut, nextDue := 0, 0
	stopped := false // the closed loop ran into its reserve
	var slowest time.Duration
	var exhausted error
	send := func(due time.Time, reserve int, release bool) bool {
		if s.next >= len(s.in.appends)-reserve {
			if reserve == 0 {
				exhausted = fmt.Errorf("stream input exhausted: %d appends generated", len(s.in.appends))
			}
			return false
		}
		rec := &appendRec{idx: s.next, times: opTimes{due: due}, release: release}
		s.next++
		recs = append(recs, rec)
		out[rec] = true
		go func() {
			s.append(rec)
			if s.trace && rec.idx%progressPollEvery == 0 {
				if err := s.pollEvents(); err != nil {
					rec.err = err.Error()
					rec.times.ok = false
				}
			}
			answered <- rec
		}()
		return true
	}
	for {
		now := time.Now()
		loadDone := false
		if rate > 0 {
			for nextDue < len(dues) && !dues[nextDue].After(now) && loadOut < load && exhausted == nil {
				if send(dues[nextDue], 0, false) {
					loadOut++
				}
				nextDue++
			}
			loadDone = nextDue == len(dues)
		} else {
			for !stopped && now.After(start) && now.Before(end) && loadOut < load {
				if stopped = !send(now, streamReserve, false); !stopped {
					loadOut++
				}
			}
			loadDone = stopped || !now.Before(end)
		}
		// The oldest unanswered append, for the release check.
		var oldest time.Time
		for rec := range out {
			if oldest.IsZero() || rec.times.due.Before(oldest) {
				oldest = rec.times.due
			}
		}
		stuckAfter := max(streamStuckMin, 3*slowest)
		if len(out) > 0 && len(out) < conns && now.Sub(oldest) > stuckAfter && exhausted == nil {
			send(now, 0, true)
		}
		if len(out) == 0 && (loadDone || exhausted != nil) {
			break
		}
		if loadDone && now.Sub(end) > streamHangAfter {
			return nil, fmt.Errorf("%d appends still unanswered %v after the phase ended", len(out), streamHangAfter)
		}
		// Sleep until the next due append, the next release check or the
		// next answer, whichever comes first.
		wake := now.Add(stuckAfter)
		if len(out) > 0 && oldest.Add(stuckAfter).Before(wake) {
			wake = oldest.Add(stuckAfter)
		}
		if rate > 0 && nextDue < len(dues) && dues[nextDue].Before(wake) {
			wake = dues[nextDue]
		}
		if rate == 0 && !loadDone && start.After(now) {
			wake = start
		}
		timer := time.NewTimer(max(time.Until(wake), time.Millisecond))
		select {
		case rec := <-answered:
			delete(out, rec)
			if !rec.release {
				loadOut--
			}
			slowest = max(slowest, rec.times.done.Sub(rec.times.sent))
		case <-timer.C:
		}
		timer.Stop()
	}
	if exhausted != nil {
		return nil, exhausted
	}
	ops := make([]opTimes, len(recs))
	for i, rec := range recs {
		ops[i] = rec.times
		s.sent = append(s.sent, *rec)
		if rec.release {
			s.releases++
		}
	}
	return ops, nil
}

func (s *streamRunner) append(rec *appendRec) {
	body, err := json.Marshal(map[string]any{"rows": s.in.appends[rec.idx]})
	if err != nil {
		rec.err = err.Error()
		return
	}
	rec.times.sent = time.Now()
	var resp struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	_, err = s.d.call("POST", "/v1/sessions/"+s.sess+"/tuples", body, &resp)
	rec.times.done = time.Now()
	switch {
	case err != nil:
		rec.err = err.Error()
	case len(resp.Results) != streamRows:
		rec.err = fmt.Sprintf("append answered %d rows, sent %d", len(resp.Results), streamRows)
	default:
		for _, r := range resp.Results {
			if r.Error != "" {
				rec.err = r.Error
				return
			}
		}
		rec.times.ok = true
	}
}

// sessionView mirrors the part of repaird's session view the runner reads.
type sessionView struct {
	ID     string          `json:"id"`
	Tuples int             `json:"tuples"`
	Events []progressEvent `json:"events"`
}

func (s *streamRunner) pollEvents() error {
	var v sessionView
	if _, err := s.d.call("GET", "/v1/sessions/"+s.sess, nil, &v); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range v.Events {
		s.events[e.Seq] = e
	}
	return nil
}

// openSession creates the session over the base relation; the daemon
// repairs the base before it answers.
func openSession(d *daemon, in *streamInput) (string, error) {
	body, err := json.Marshal(map[string]any{
		"csv": string(in.baseCSV), "types": in.inst.types, "fds": fdSpecs(in.inst.fds),
		"tau": oneshotTau, "wl": oneshotWL, "wr": oneshotWR,
	})
	if err != nil {
		return "", err
	}
	var v sessionView
	if _, err := d.call("POST", "/v1/sessions", body, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// maxStreamAppends is how many appends a run generates.
func maxStreamAppends(seconds float64) int {
	return int(streamInputRate*seconds) + streamReserve
}

// runStream opens a session, streams appends at the base rate and then in
// the closed loop, and checks the final relation.
func runStream(cfg runConfig) (*outcome, error) {
	var in *streamInput
	var d *daemon
	var sess string
	setup, err := medianSetup(daemonSetups, func() (func(), error) {
		var err error
		if in, err = streamInputFor(cfg.seed, maxStreamAppends(cfg.seconds)); err != nil {
			return nil, err
		}
		if d, err = startDaemon(cfg, fmt.Sprintf("repaird-stream-seed%d", cfg.seed)); err != nil {
			return nil, err
		}
		sess, err = openSession(d, in)
		return func() { d.stop() }, err
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	defer d.stop()
	out := newOutcome()
	out.setupS = setup
	s := &streamRunner{d: d, sess: sess, in: in, events: map[int]progressEvent{}, trace: cfg.trace}
	baseSec := cfg.seconds * streamBaseShare
	if cfg.trace {
		baseSec = cfg.seconds
	}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	base, err := s.phase(streamBaseRate, baseSec)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	self1 := selfCPU()
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := s.pollEvents(); err != nil {
			return nil, err
		}
	}
	phases := []phaseResult{evalPhase(streamBaseRate, baseSec, base, streamLimitMs)}
	if !cfg.trace {
		satSec := cfg.seconds - baseSec
		sat, err := s.phase(0, satSec)
		if err != nil {
			return nil, err
		}
		phases = append(phases, evalPhase(0, satSec, sat, streamLimitMs))
		noteTail(out, "appends in the closed loop", okLatencies(sat))
	}
	final, order, q, err := s.checkFinal(out)
	if err != nil {
		return nil, err
	}
	lat, late := latencies(base)
	out.meta["daemonGOMAXPROCS"] = daemonProcs(d.pid())
	out.note("repaird-stream: daemon GOMAXPROCS=%d, session %s, %d base appends of %d rows at %.0f/s, final relation %d rows", daemonProcs(d.pid()), sess, len(base), streamRows, streamBaseRate, final.Len())
	noteTail(out, "appends at the base rate", lat)
	notePhases(out, phases, streamLimitMs)
	out.note("repaird-stream: %d appends sent only to wake the batcher for a stuck one", s.releases)
	if cfg.trace {
		s.layers(out, order, before, after, msOf(self1-self0), slices.Max(late))
		return out, nil
	}
	m := out.metrics
	m["p50_ms"] = median(lat)
	m["cpu_ms_per_op"] = msOf(cpu1-cpu0) / float64(len(base))
	m["max_rate_per_s"] = maxRate(phases[0], phases[1]) * streamRows
	m["peak_rss_mb"] = rss
	m["precision"], m["recall"] = q.precision(), q.recall()
	return out, nil
}

// checkFinal counts each append as an op (failed unless it answered 200
// with every row accepted), then fetches the session's relation and checks
// it: the expected row count, FT-consistent, and valid against the base
// plus every streamed row. Appends may commit out of send order, so each
// 20-row block of the final relation is matched to its append by the
// columns no FD touches. It returns the relation, the append index at each
// block, and the quality against the ground truth.
func (s *streamRunner) checkFinal(out *outcome) (*ftrepair.Relation, []int, quality, error) {
	var q quality
	for _, rec := range s.sent {
		out.attempted++
		if !rec.times.ok {
			out.fail("append %d: %s", rec.idx, rec.err)
		}
	}
	resp, err := s.d.client.Get(s.d.base + "/v1/sessions/" + s.sess + "/relation")
	if err != nil {
		return nil, nil, q, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, nil, q, fmt.Errorf("GET relation: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, q, err
	}
	final, err := ftrepair.ReadCSV(strings.NewReader(string(body)), s.in.inst.types)
	if err != nil {
		return nil, nil, q, fmt.Errorf("parsing the session relation: %w", err)
	}
	ok := 0
	for _, rec := range s.sent {
		if rec.times.ok {
			ok++
		}
	}
	out.attempted++ // the final relation is checked as one more op
	if want := streamBase + ok*streamRows; final.Len() != want {
		out.fail("final relation has %d rows, want %d", final.Len(), want)
		return final, nil, q, nil
	}
	order, err := s.alignBlocks(final)
	if err != nil {
		out.fail("%v", err)
		return final, nil, q, nil
	}
	n := final.Len()
	dirty := &ftrepair.Relation{Schema: s.in.inst.dirty.Schema, Tuples: make([]ftrepair.Tuple, 0, n)}
	clean := &ftrepair.Relation{Schema: s.in.inst.clean.Schema, Tuples: make([]ftrepair.Tuple, 0, n)}
	dirty.Tuples = append(dirty.Tuples, s.in.inst.dirty.Tuples[:streamBase]...)
	clean.Tuples = append(clean.Tuples, s.in.inst.clean.Tuples[:streamBase]...)
	for _, idx := range order {
		off := streamBase + idx*streamRows
		dirty.Tuples = append(dirty.Tuples, s.in.inst.dirty.Tuples[off:off+streamRows]...)
		clean.Tuples = append(clean.Tuples, s.in.inst.clean.Tuples[off:off+streamRows]...)
	}
	if err := verifyRepair(dirty, final, s.in.inst.fds, oneshotTau, oneshotWL, oneshotWR); err != nil {
		out.fail("final relation: %v", err)
	}
	err = q.add(clean, dirty, final)
	return final, order, q, err
}

// alignBlocks maps each 20-row block after the base to the append it came
// from, keyed by the columns outside every FD (repairs never change them).
func (s *streamRunner) alignBlocks(final *ftrepair.Relation) ([]int, error) {
	inFD := make(map[int]bool)
	for _, f := range s.in.inst.fds {
		for _, c := range append(append([]int(nil), f.LHS...), f.RHS...) {
			inFD[c] = true
		}
	}
	var keep []int
	for c := 0; c < final.Schema.Len(); c++ {
		if !inFD[c] {
			keep = append(keep, c)
		}
	}
	key := func(rows []ftrepair.Tuple) string {
		var b strings.Builder
		for _, t := range rows {
			b.WriteString(t.Key(keep))
			b.WriteByte('\n')
		}
		return b.String()
	}
	byKey := make(map[string]int)
	for _, rec := range s.sent {
		if rec.times.ok {
			off := streamBase + rec.idx*streamRows
			byKey[key(s.in.inst.dirty.Tuples[off:off+streamRows])] = rec.idx
		}
	}
	var order []int
	for off := streamBase; off < final.Len(); off += streamRows {
		idx, ok := byKey[key(final.Tuples[off:off+streamRows])]
		if !ok {
			return nil, fmt.Errorf("rows %d..%d of the final relation match no append", off, off+streamRows-1)
		}
		delete(byKey, key(final.Tuples[off:off+streamRows]))
		order = append(order, idx)
	}
	return order, nil
}

// layers fills the per-layer metrics from the base-rate appends, the
// progress events and the /metrics deltas over the phase.
func (s *streamRunner) layers(out *outcome, order []int, before, after map[string]float64, loadCPUMs, lateMax float64) {
	pos := make(map[int]int, len(order)) // append index -> first row
	for b, idx := range order {
		pos[idx] = streamBase + b*streamRows
	}
	var events []progressEvent
	for _, e := range s.events {
		events = append(events, e)
	}
	flushes := float64(len(events))
	if flushes == 0 {
		return
	}
	m := out.metrics
	for _, e := range events {
		m["incr.flush_ms"] += e.DurMs / flushes
		m["incr.rows_per_flush"] += float64(e.Tuples) / flushes
		m["incr.shards_touched"] += float64(e.ShardsTouched) / flushes
		m["incr.max_shard_rows"] += float64(e.MaxShardRows) / flushes
	}
	var waits, https []float64
	for _, rec := range s.sent {
		p, ok := pos[rec.idx]
		if !rec.times.ok || !ok {
			continue
		}
		for _, e := range events {
			if p >= e.TotalTuples-e.Tuples && p < e.TotalTuples {
				wait := msOf(e.Time.Sub(rec.times.sent))
				waits = append(waits, wait)
				https = append(https, msOf(rec.times.done.Sub(rec.times.sent))-wait-e.DurMs)
				break
			}
		}
	}
	m["incr.batch_wait_ms"] = mean(waits)
	m["server.append_http_ms"] = mean(https)
	phaseMs := func(p string) float64 {
		return 1000 * delta(before, after, `ftrepair_phase_duration_seconds_sum{phase="`+p+`"}`) / flushes
	}
	m["incr.shardselect_ms"] = phaseMs("shardselect")
	m["incr.increpair_ms"] = phaseMs("increpair")
	m["fd.distance_ms"] = phaseMs("distance")
	m["vgraph.graphbuild_busy_ms"] = phaseMs("graphbuild")
	m["vgraph.edges"] = delta(before, after, "ftrepair_graph_edges_built_total") / flushes
	hits := delta(before, after, "ftrepair_distcache_hits_total")
	misses := delta(before, after, "ftrepair_distcache_misses_total")
	planeHits := delta(before, after, "ftrepair_distplane_hits_total")
	planeMisses := delta(before, after, "ftrepair_distplane_misses_total")
	m["fd.lookups"] = (hits + misses) / flushes
	m["fd.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["fd.plane_hit_ratio"] = ratio(planeHits, planeHits+planeMisses)
	appends := float64(len(waits))
	m["loadgen.cpu_ms_per_op"] = loadCPUMs / max(appends, 1)
	m["loadgen.late_max_ms"] = lateMax
	out.note("repaird-stream: %d flushes seen in the progress ring, %d appends matched to a flush", len(events), len(waits))
}
