package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"ftrepair"
	"ftrepair/internal/gen"
	"ftrepair/internal/obs"
)

// The repaird-jobs settings. The base rate is about a fifth of the
// capacity of a quiet 2-core machine, so it still leaves headroom when the
// hypervisor steals half the CPU.
const (
	jobPool      = 200   // distinct job specs, cycled
	jobBaseRate  = 20.0  // jobs/s
	jobWarmupSec = 2.0   // at the base rate, before anything is timed
	jobBaseShare = 0.5   // share of the run at the base rate
	jobLimitMs   = 250.0 // the p95 latency limit
	jobPollMs    = 5.0
	// jobBacklogPerWorker is how many jobs per daemon worker the closed
	// loop keeps outstanding: one running and one queued behind it, so no
	// worker idles while the client polls.
	jobBacklogPerWorker = 2
	// jobClosedMax is how many jobs one daemon takes in the closed loop
	// before the loop moves on to a fresh one. repaird keeps every job it
	// ran, about 1.5 MiB each at this size (see README), so this bounds
	// the daemon's memory; on the 2-core machine of the README a daemon
	// reaches it after about 6 s.
	jobClosedMax = 600
)

// jobClass is one kind of job in the mix. Shares are sized so the reported
// percentiles fall inside a class: p50 inside GreedyM-HOSP, p95 inside
// GreedyM-Tax, with the fast exact jobs below both.
type jobClass struct {
	name      string
	share     int // jobs of this class per 100
	algorithm string
	workload  string
	rows      int
	fds       int // leading FDs of the workload; 0 for all 9
}

var jobClasses = []jobClass{
	{"greedym-hosp", 35, "GreedyM", "hosp", 500, 0},
	{"greedym-tax", 35, "GreedyM", "tax", 500, 0},
	{"approm-hosp", 10, "ApproM", "hosp", 500, 0},
	{"exacts-hosp", 10, "ExactS", "hosp", 500, 1},
	{"exactm-hosp", 10, "ExactM", "hosp", 40, 3},
}

// jobSpec is one pooled job: its instance and the request body.
type jobSpec struct {
	class *jobClass
	inst  *instance
	body  []byte
}

// jobView mirrors the fields of repaird's job view the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
	Result    *struct {
		ElapsedMs float64           `json:"elapsedMs"`
		Stats     map[string]int    `json:"stats"`
		CSV       string            `json:"csv"`
		Spans     []obs.SpanSummary `json:"spans"`
	} `json:"result"`
}

// jobRec is one submitted job and what the generator saw of it.
type jobRec struct {
	spec  *jobSpec
	times opTimes
	id    string
	polls int
	// submitMs and fetchMs time the POST and the GET that returned done.
	submitMs, fetchMs float64
	view              *jobView
	digest            string
	err               string
	// then, when set, runs once the job has ended (the closed loop's next
	// submission).
	then func() []*action
}

// jobPoolFor generates the pooled job specs from the seed: class quotas
// exact per 100, order shuffled, each spec its own generated instance.
func jobPoolFor(seed int64) ([]*jobSpec, error) {
	var classes []*jobClass
	for len(classes) < jobPool {
		for i := range jobClasses {
			for k := 0; k < jobClasses[i].share; k++ {
				classes = append(classes, &jobClasses[i])
			}
		}
	}
	classes = classes[:jobPool]
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	pool := make([]*jobSpec, len(classes))
	for i, c := range classes {
		genSeed := seed*100003 + int64(i) + 1
		var clean *ftrepair.Relation
		var fds []*ftrepair.FD
		if c.workload == "tax" {
			clean = gen.Tax{Seed: genSeed}.Generate(c.rows)
			fds = gen.TaxFDs(clean.Schema)
		} else {
			clean = gen.HOSP{Seed: genSeed}.Generate(c.rows)
			fds = gen.HOSPFDs(clean.Schema)
		}
		if c.fds > 0 {
			fds = fds[:c.fds]
		}
		inst, err := newInstance(fmt.Sprintf("%s-%d", c.name, i), clean, fds, 0.04, genSeed+1, 0)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{
			"csv": string(inst.csv), "types": inst.types, "fds": fdSpecs(fds),
			"tau": oneshotTau, "wl": oneshotWL, "wr": oneshotWR, "algorithm": c.algorithm,
		})
		if err != nil {
			return nil, err
		}
		pool[i] = &jobSpec{class: c, inst: inst, body: body}
	}
	return pool, nil
}

// jobRunner submits jobs and polls them to completion.
type jobRunner struct {
	d     *daemon
	pool  []*jobSpec
	next  int
	poll  time.Duration
	mu    sync.Mutex
	recs  []*jobRec
	first map[*jobSpec]*jobRec // first finished job of each spec
}

// nextSpec returns the next pooled spec; the pool is cycled in order.
func (r *jobRunner) nextSpec() *jobSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec := r.pool[r.next%len(r.pool)]
	r.next++
	return spec
}

// phase offers jobs at a fixed rate for sec seconds and waits for all of
// them to finish.
func (r *jobRunner) phase(rate, sec float64) ([]opTimes, error) {
	n := max(int(rate*sec+0.5), 1)
	dues := fixedRate(time.Now().Add(20*time.Millisecond), rate, n)
	recs := make([]*jobRec, n)
	acts := make([]*action, n)
	for i := range recs {
		rec := &jobRec{spec: r.nextSpec()}
		rec.times.due = dues[i]
		recs[i] = rec
		acts[i] = &action{at: dues[i], run: func() []*action { return r.submit(rec) }}
	}
	runLoop(runtime.NumCPU(), acts)
	return r.record(recs), nil
}

// saturate is the closed loop: for sec seconds, or until it has submitted
// maxJobs jobs, it keeps k jobs outstanding, submitting the next pooled spec as
// soon as a poll finds a job ended, so the daemon's queue never runs dry and
// its backlog is k by construction. Jobs outstanding at the end run to
// completion. It returns the jobs' times and the seconds it submitted for.
func (r *jobRunner) saturate(k int, sec float64, maxJobs int) ([]opTimes, float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(sec * float64(time.Second)))
	var mu sync.Mutex
	var recs []*jobRec
	stopped := deadline
	var next func() []*action
	next = func() []*action {
		now := time.Now()
		mu.Lock()
		if !now.Before(deadline) || len(recs) >= maxJobs {
			if now.Before(stopped) {
				stopped = now
			}
			mu.Unlock()
			return nil
		}
		rec := &jobRec{spec: r.nextSpec(), then: next}
		rec.times.due = now
		recs = append(recs, rec)
		mu.Unlock()
		return r.submit(rec)
	}
	acts := make([]*action, k)
	for i := range acts {
		acts[i] = &action{at: start, run: next}
	}
	runLoop(runtime.NumCPU(), acts)
	return r.record(recs), stopped.Sub(start).Seconds()
}

// record keeps a phase's jobs for the checks and returns their times.
func (r *jobRunner) record(recs []*jobRec) []opTimes {
	r.mu.Lock()
	r.recs = append(r.recs, recs...)
	r.mu.Unlock()
	out := make([]opTimes, len(recs))
	for i, rec := range recs {
		out[i] = rec.times
	}
	return out
}

// ended marks a job finished, one way or another, and hands over to what
// follows it.
func (r *jobRunner) ended(rec *jobRec) []*action {
	rec.times.done = time.Now()
	if rec.then != nil {
		return rec.then()
	}
	return nil
}

func (r *jobRunner) submit(rec *jobRec) []*action {
	rec.times.sent = time.Now()
	var v jobView
	_, err := r.d.call("POST", "/v1/jobs", rec.spec.body, &v)
	rec.submitMs = msOf(time.Since(rec.times.sent))
	if err != nil {
		rec.err = err.Error()
		return r.ended(rec)
	}
	rec.id = v.ID
	return r.pollAction(rec)
}

func (r *jobRunner) pollAction(rec *jobRec) []*action {
	return []*action{{at: time.Now().Add(r.poll), run: func() []*action {
		t0 := time.Now()
		var v jobView
		_, err := r.d.call("GET", "/v1/jobs/"+rec.id, nil, &v)
		rec.polls++
		switch {
		case err != nil:
			rec.err = err.Error()
		case v.State == "queued" || v.State == "running":
			return r.pollAction(rec)
		case v.State != "done" || v.Result == nil:
			rec.err = fmt.Sprintf("job %s ended %s: %s", rec.id, v.State, v.Error)
		default:
			rec.fetchMs = msOf(time.Since(t0))
			rec.times.ok = true
			r.keep(rec, &v)
		}
		return r.ended(rec)
	}}}
}

// keep records a finished job: its digest always, its full result only for
// the first job of each spec (later ones must match it).
func (r *jobRunner) keep(rec *jobRec, v *jobView) {
	sum := sha256.Sum256([]byte(v.Result.CSV))
	rec.digest = hex.EncodeToString(sum[:])
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.first[rec.spec]; !ok {
		r.first[rec.spec] = rec
		rec.view = v
		return
	}
	v.Result.CSV = ""
	rec.view = v
}

// checkJobs verifies every job outside the timed phases: it must have
// ended done, its output must be FT-consistent and valid, and repeats of a
// spec must return the first run's relation. It returns the quality over
// all jobs.
func (r *jobRunner) checkJobs(out *outcome) quality {
	var q quality
	verified := make(map[*jobSpec]quality)
	for _, rec := range r.recs {
		out.attempted++
		if !rec.times.ok {
			out.fail("%s: %s", rec.spec.inst.name, rec.err)
			continue
		}
		first := r.first[rec.spec]
		if rec.digest != first.digest {
			out.fail("%s: job %s returned a different relation than job %s", rec.spec.inst.name, rec.id, first.id)
			continue
		}
		sq, ok := verified[rec.spec]
		if !ok {
			var err error
			sq, err = verifyJob(rec.spec, first.view.Result.CSV)
			if err != nil {
				out.fail("%s: job %s: %v", rec.spec.inst.name, rec.id, err)
				continue
			}
			verified[rec.spec] = sq
		}
		q.merge(sq)
	}
	return q
}

func verifyJob(spec *jobSpec, csv string) (quality, error) {
	var q quality
	input, err := spec.inst.parse(string(spec.inst.csv))
	if err != nil {
		return q, err
	}
	repaired, err := spec.inst.parse(csv)
	if err != nil {
		return q, fmt.Errorf("parsing result: %w", err)
	}
	if err := verifyRepair(input, repaired, spec.inst.fds, oneshotTau, oneshotWL, oneshotWR); err != nil {
		return q, err
	}
	err = q.add(spec.inst.clean, spec.inst.dirty, repaired)
	return q, err
}

// runJobs drives repaird with the job mix: a fixed base rate, then the
// closed loop that saturates it. Traced, it runs the base rate for the
// whole run and reports the per-layer split of those jobs.
func runJobs(cfg runConfig) (*outcome, error) {
	var pool []*jobSpec
	var d *daemon
	setup, err := medianSetup(daemonSetups, func() (func(), error) {
		var err error
		if pool, err = jobPoolFor(cfg.seed); err != nil {
			return nil, err
		}
		d, err = startDaemon(cfg, fmt.Sprintf("repaird-jobs-seed%d", cfg.seed))
		return func() { d.stop() }, err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	out := newOutcome()
	out.setupS = setup
	r := &jobRunner{d: d, pool: pool, poll: time.Duration(jobPollMs * float64(time.Millisecond)), first: map[*jobSpec]*jobRec{}}
	baseSec := cfg.seconds * jobBaseShare
	if cfg.trace {
		baseSec = cfg.seconds
	}
	// A fresh daemon grows its heap and connection pool on its first jobs;
	// a long-running one does not, so those jobs are checked but not timed.
	if _, err := r.phase(jobBaseRate, jobWarmupSec); err != nil {
		return nil, err
	}
	warm := len(r.recs)
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	base, err := r.phase(jobBaseRate, baseSec)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	self1 := selfCPU()
	// Peak memory is read after the base rate, at a fixed number of
	// retained jobs; the closed loop's job count varies with capacity.
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	baseRecs := append([]*jobRec(nil), r.recs[warm:]...)
	// repaird's default worker pool is GOMAXPROCS wide.
	procs := daemonProcs(d.pid())
	phases := []phaseResult{evalPhase(jobBaseRate, baseSec, base, jobLimitMs)}
	if !cfg.trace {
		var sat []opTimes
		var done, satSec float64
		for stretch, left := 1, cfg.seconds-baseSec-jobWarmupSec; left > 1; stretch++ {
			// Each stretch of the closed loop runs on a fresh daemon, so
			// that no daemon holds more than jobClosedMax jobs.
			d.stop()
			if d, err = startDaemon(cfg, fmt.Sprintf("repaird-jobs-seed%d-closed%d", cfg.seed, stretch)); err != nil {
				return nil, err
			}
			r.d = d
			ops, used := r.saturate(jobBacklogPerWorker*procs, left, jobClosedMax)
			sat = append(sat, ops...)
			done += evalPhase(0, used, ops, jobLimitMs).achieved * used
			satSec += used
			left -= used
		}
		closed := evalPhase(0, satSec, sat, jobLimitMs)
		if satSec > 0 {
			closed.achieved = done / satSec
		}
		phases = append(phases, closed)
		noteTail(out, fmt.Sprintf("jobs in the closed loop (%d outstanding)", jobBacklogPerWorker*procs), okLatencies(sat))
	}
	q := r.checkJobs(out)
	lat, late := latencies(base)
	out.meta["daemonGOMAXPROCS"], out.meta["daemonWorkers"], out.meta["pollIntervalMs"] = procs, procs, jobPollMs
	out.note("repaird-jobs: daemon GOMAXPROCS=%d workers=%d, poll interval %.0f ms, %d base jobs at %.0f/s",
		procs, procs, jobPollMs, len(base), jobBaseRate)
	noteTail(out, "jobs at the base rate", lat)
	for i := range jobClasses {
		c := &jobClasses[i]
		var cl []float64
		for _, rec := range baseRecs {
			if rec.spec.class == c && rec.times.ok {
				cl = append(cl, rec.times.latencyMs())
			}
		}
		noteTail(out, c.name, cl)
	}
	notePhases(out, phases, jobLimitMs)
	if cfg.trace {
		jobLayers(out, baseRecs, before, after, msOf(self1-self0), slices.Max(late))
		return out, nil
	}
	m := out.metrics
	m["p50_ms"] = median(lat)
	m["cpu_ms_per_op"] = msOf(cpu1-cpu0) / float64(len(base))
	m["max_rate_per_s"] = maxRate(phases[0], phases[1])
	m["peak_rss_mb"] = rss
	m["precision"], m["recall"] = q.precision(), q.recall()
	return out, nil
}

// latencies returns the successful ops' latencies and every op's lateness.
func latencies(ops []opTimes) (lat, late []float64) {
	for _, o := range ops {
		late = append(late, o.lateMs())
	}
	return okLatencies(ops), late
}

// okLatencies returns the successful ops' latencies.
func okLatencies(ops []opTimes) []float64 {
	var lat []float64
	for _, o := range ops {
		if o.ok {
			lat = append(lat, o.latencyMs())
		}
	}
	return lat
}

// noteTail records a latency distribution: the median always, p95 only
// under the percentile rule.
func noteTail(out *outcome, what string, lat []float64) {
	p95, ok := tailPercentile(lat, 0.95)
	tail := "p95 not reported (fewer than 10 samples beyond it)"
	if ok {
		tail = fmt.Sprintf("p95 %.2f ms", p95)
	}
	out.note("%s: %d ops, p50 %.2f ms, %s", what, len(lat), median(lat), tail)
}

func notePhases(out *outcome, phases []phaseResult, limitMs float64) {
	for _, r := range phases {
		what := fmt.Sprintf("phase at %.2f/s", r.rate)
		if r.rate == 0 {
			what = "closed loop"
		}
		out.note("%s: %d ops, p95 %.1f ms (limit %.0f, rule ok %v), backlog growing %v, failed %d, achieved %.2f/s, pass %v",
			what, r.ops, r.p95, limitMs, r.p95ok, r.growing, r.failed, r.achieved, r.pass)
	}
}

// jobLayers fills the per-layer metrics from the base-rate jobs: the job
// views' timestamps, spans and stats, the client's own spans and the
// /metrics deltas over the phase.
func jobLayers(out *outcome, recs []*jobRec, before, after map[string]float64, loadCPUMs, lateMax float64) {
	acc := make(map[string]float64)
	var n, exactN, exactMN float64
	var hits, misses, planeHits, planeMisses float64
	for _, rec := range recs {
		if !rec.times.ok {
			continue
		}
		v := rec.view
		n++
		acc["server.submit_ms"] += rec.submitMs
		acc["server.fetch_ms"] += rec.fetchMs
		acc["server.polls_per_job"] += float64(rec.polls)
		acc["server.queue_ms"] += msOf(v.Started.Sub(v.Submitted))
		acc["server.finalize_ms"] += msOf(v.Finished.Sub(*v.Started)) - v.Result.ElapsedMs
		b := analyzeSpans(v.Result.Spans, v.Result.ElapsedMs)
		acc["repair.span_ms"] += v.Result.ElapsedMs
		st := v.Result.Stats
		hits += float64(st["distCacheHits"])
		misses += float64(st["distCacheMisses"])
		planeHits += float64(st["distPlaneHits"])
		planeMisses += float64(st["distPlaneMisses"])
		acc["targettree.visited"] += float64(st["treeVisited"])
		switch rec.spec.class.algorithm {
		case "ExactM":
			exactMN++
			acc["repair.bnb_ms"] += b["repair.targetsearch_ms"] + b["fd.distance_ms"]
			acc["repair.bnb_combinations"] += float64(st["combinations"])
			fallthrough
		case "ExactS":
			exactN++
			acc["mis.expand_ms"] += b["mis.expand_ms"]
			acc["mis.nodes"] += float64(st["nodes"])
		}
		delete(b, "mis.expand_ms")
		b.addTo(acc)
	}
	if n == 0 {
		return
	}
	for k, v := range acc {
		switch k {
		case "repair.bnb_ms", "repair.bnb_combinations":
			out.metrics[k] = v / max(exactMN, 1)
		case "mis.expand_ms", "mis.nodes":
			out.metrics[k] = v / max(exactN, 1)
		default:
			out.metrics[k] = v / n
		}
	}
	out.metrics["fd.lookups"] = (hits + misses) / n
	out.metrics["fd.cache_hit_ratio"] = ratio(hits, hits+misses)
	out.metrics["fd.plane_hit_ratio"] = ratio(planeHits, planeHits+planeMisses)
	out.metrics["ledger.events_per_job"] = delta(before, after, "ftrepair_ledger_events_total") / n
	out.metrics["ledger.bytes_per_job"] = delta(before, after, "ftrepair_ledger_bytes_total") / n
	out.metrics["loadgen.cpu_ms_per_op"] = loadCPUMs / n
	out.metrics["loadgen.late_max_ms"] = lateMax
}
