package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/repair"
)

// newTestServer starts a Server over httptest. The logger stays nil so test
// output is clean.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func doJSON(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// hospCSV builds a HOSP-style City,State instance: clean pattern blocks
// plus one close typo per city that FT-violates its source at tau 0.3.
func hospCSV() string {
	var b strings.Builder
	b.WriteString("City,State\n")
	clean := [][2]string{{"BOSTON", "MA"}, {"CHICAGO", "IL"}, {"SEATTLE", "WA"}}
	for _, c := range clean {
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&b, "%s,%s\n", c[0], c[1])
		}
	}
	b.WriteString("BOSTN,MA\n")
	b.WriteString("CHICGO,IL\n")
	b.WriteString("SEATLE,WA\n")
	return b.String()
}

// hospConstraints mirrors the job spec constraints for local verification.
func hospConstraints(t *testing.T, csv string) (*dataset.Relation, *fd.Set, *fd.DistConfig) {
	t.Helper()
	rel, err := dataset.ReadCSV(strings.NewReader(csv), "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fd.Parse(rel.Schema, "City -> State")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := fd.NewSet([]*fd.FD{f}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return rel, set, cfg
}

// pathCSV builds the numeric path-graph instance that makes ExactS
// arbitrarily slow (see internal/repair cancel tests).
func pathCSV(n int) string {
	var b strings.Builder
	b.WriteString("A,B\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,x\n", i)
	}
	return b.String()
}

// pollJob polls a job until it reaches a terminal state or the deadline.
func pollJob(t *testing.T, base, id string, deadline time.Duration) JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		resp, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: %d %s", resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case JobDone, JobFailed, JobCanceled:
			return v
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still %s after %v", id, v.State, deadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitJob(t *testing.T, base string, spec JobSpec) JobView {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST job: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	csv := hospCSV()
	v := submitJob(t, ts.URL, JobSpec{
		CSV: csv, FDs: []string{"City -> State"},
		Tau: 0.3, WL: 0.7, WR: 0.3, Verify: true,
	})
	if v.State != JobQueued && v.State != JobRunning {
		t.Fatalf("fresh job state = %s", v.State)
	}
	final := pollJob(t, ts.URL, v.ID, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Result == nil {
		t.Fatal("done job has no result")
	}
	if final.Result.FTConsistent == nil || !*final.Result.FTConsistent {
		t.Error("server-side verification: repair not FT-consistent")
	}
	if final.Result.Valid == nil || !*final.Result.Valid {
		t.Error("server-side verification: repair not closed-world valid")
	}
	if len(final.Result.Changed) == 0 {
		t.Error("dirty instance repaired zero cells")
	}
	// Independent client-side verification of the returned CSV.
	orig, set, cfg := hospConstraints(t, csv)
	repaired, err := dataset.ReadCSV(strings.NewReader(final.Result.CSV), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := repair.VerifyFTConsistent(repaired, set, cfg); err != nil {
		t.Errorf("returned CSV not FT-consistent: %v", err)
	}
	if err := repair.VerifyValid(orig, repaired, set); err != nil {
		t.Errorf("returned CSV not closed-world valid: %v", err)
	}
}

func TestParallelJobsAllConsistent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	const n = 8
	csv := hospCSV()
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			algo := []string{"GreedyM", "ApproM"}[i%2]
			v := submitJob(t, ts.URL, JobSpec{
				CSV: csv, FDs: []string{"City -> State"},
				Algorithm: algo, Verify: true,
			})
			ids[i] = v.ID
		}()
	}
	wg.Wait()
	_, set, cfg := hospConstraints(t, csv)
	for _, id := range ids {
		final := pollJob(t, ts.URL, id, 30*time.Second)
		if final.State != JobDone {
			t.Fatalf("job %s ended %s (%s)", id, final.State, final.Error)
		}
		repaired, err := dataset.ReadCSV(strings.NewReader(final.Result.CSV), "")
		if err != nil {
			t.Fatal(err)
		}
		if err := repair.VerifyFTConsistent(repaired, set, cfg); err != nil {
			t.Errorf("job %s: %v", id, err)
		}
	}
}

func TestCancelRunningExactS(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	n := 150
	v := submitJob(t, ts.URL, JobSpec{
		CSV: pathCSV(n), Types: "numeric,string",
		FDs: []string{"A -> B"}, Algorithm: "ExactS",
		Tau: 0.005, WL: 0.5, WR: 0.5,
	})
	// Wait for the worker to pick it up so the cancel exercises the
	// in-algorithm hook, not the queued fast path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: %d %s", resp.StatusCode, body)
		}
		var cur JobView
		if err := json.Unmarshal(body, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == JobRunning {
			break
		}
		if cur.State != JobQueued {
			t.Fatalf("job reached %s before cancel (instance too easy?)", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	canceledAt := time.Now()
	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE job: %d %s", resp.StatusCode, body)
	}
	final := pollJob(t, ts.URL, v.ID, 5*time.Second)
	latency := time.Since(canceledAt)
	if final.State != JobCanceled {
		t.Fatalf("job ended %s, want canceled", final.State)
	}
	if latency > time.Second {
		t.Errorf("cancel took %v, want under ~1s", latency)
	}
	if final.Result == nil {
		t.Error("canceled job carries no partial result")
	} else if !final.Result.Partial {
		t.Error("canceled job's result not marked partial")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Occupy the single worker with a slow exact search.
	running := submitJob(t, ts.URL, JobSpec{
		CSV: pathCSV(150), Types: "numeric,string",
		FDs: []string{"A -> B"}, Algorithm: "ExactS",
		Tau: 0.005, WL: 0.5, WR: 0.5,
	})
	queued := submitJob(t, ts.URL, JobSpec{
		CSV: hospCSV(), FDs: []string{"City -> State"},
	})
	resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job: %d", resp.StatusCode)
	}
	final := pollJob(t, ts.URL, queued.ID, 2*time.Second)
	if final.State != JobCanceled {
		t.Fatalf("queued job ended %s, want canceled", final.State)
	}
	// Unblock the worker for a clean test exit.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID)
	pollJob(t, ts.URL, running.ID, 5*time.Second)
}

func TestSessionConcurrentAppends(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionSpec{
		CSV: hospCSV(), FDs: []string{"City -> State"},
		Tau: 0.3, WL: 0.7, WR: 0.3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST session: %d %s", resp.StatusCode, body)
	}
	var sv SessionView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if sv.BaseRepairedCells == 0 {
		t.Error("dirty base was not repaired at session creation")
	}

	const goroutines, perG = 8, 25
	rows := [][]string{
		{"BOSTON", "MA"}, {"CHICAGO", "IL"}, {"SEATTLE", "WA"},
		{"BOSTONN", "MA"}, {"CHICAG", "IL"},
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				row := rows[(g+i)%len(rows)]
				resp, body := postJSON(t, ts.URL+"/v1/sessions/"+sv.ID+"/tuples",
					appendRequest{Rows: [][]string{row}})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("append: %d %s", resp.StatusCode, body)
					return
				}
				var ar appendResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					errs <- err.Error()
					return
				}
				if len(ar.Results) != 1 || ar.Results[0].Error != "" {
					errs <- fmt.Sprintf("append result: %+v", ar.Results)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sv.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session: %d", resp.StatusCode)
	}
	var after SessionView
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if want := goroutines * perG; after.Accepted != want {
		t.Errorf("accepted = %d, want %d", after.Accepted, want)
	}
	if after.Repaired == 0 {
		t.Error("no appended tuple needed repair despite injected typos")
	}

	// The maintained relation must be FT-consistent throughout.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sv.ID+"/relation")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET relation: %d", resp.StatusCode)
	}
	rel, err := dataset.ReadCSV(strings.NewReader(string(body)), "")
	if err != nil {
		t.Fatal(err)
	}
	_, set, cfg := hospConstraints(t, hospCSV())
	if err := repair.VerifyFTConsistent(rel, set, cfg); err != nil {
		t.Errorf("session relation not FT-consistent: %v", err)
	}

	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sv.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sv.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("closed session still reachable: %d", resp.StatusCode)
	}
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := submitJob(t, ts.URL, JobSpec{
		CSV: pathCSV(150), Types: "numeric,string",
		FDs: []string{"A -> B"}, Algorithm: "ExactS",
		Tau: 0.005, WL: 0.5, WR: 0.5, TimeoutMs: 100,
	})
	final := pollJob(t, ts.URL, v.ID, 10*time.Second)
	if final.State != JobCanceled {
		t.Fatalf("timed-out job ended %s, want canceled", final.State)
	}
}

// TestTimedJobsReleaseDeadlineWatchers: a job's timeoutMs watcher ends with
// the job, not when the timeout would have fired, so finished timed jobs
// leave no goroutines behind.
func TestTimedJobsReleaseDeadlineWatchers(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	spec := JobSpec{CSV: hospCSV(), FDs: []string{"City -> State"}, Algorithm: "GreedyS", TimeoutMs: 60000}
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		prob, err := spec.compile()
		if err != nil {
			t.Fatal(err)
		}
		j := s.jobs.add(spec, prob)
		s.execJob(j)
		if st := j.State(); st != JobDone {
			t.Fatalf("job %d ended %s", i, st)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 20 finished timed jobs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no data", JobSpec{FDs: []string{"A -> B"}}},
		{"no fds", JobSpec{CSV: "A,B\n1,2\n"}},
		{"bad algorithm", JobSpec{CSV: "A,B\n1,2\n", FDs: []string{"A -> B"}, Algorithm: "Quantum"}},
		{"bad fd", JobSpec{CSV: "A,B\n1,2\n", FDs: []string{"A -> Nope"}}},
		{"single-FD algo, many FDs", JobSpec{CSV: "A,B,C\n1,2,3\n", FDs: []string{"A -> B", "B -> C"}, Algorithm: "ExactS"}},
		{"csv and rows", JobSpec{CSV: "A\n1\n", Header: []string{"A"}, Rows: [][]string{{"1"}}, FDs: []string{"A -> A"}}},
	}
	for _, tc := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	sessionCases := []struct {
		name string
		spec SessionSpec
	}{
		{"session, bad algorithm", SessionSpec{CSV: "A,B\n1,2\n", FDs: []string{"A -> B"}, Algorithm: "Quantum"}},
		{"session, single-FD algo, many FDs", SessionSpec{CSV: "A,B,C\n1,2,3\n", FDs: []string{"A -> B", "B -> C"}, Algorithm: "GreedyS"}},
	}
	for _, tc := range sessionCases {
		resp, _ := postJSON(t, ts.URL+"/v1/sessions", tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestTypeSpecSameForBothInputs: a CSV job and a header+rows job parse
// their type spec with one parser, so both accept every alias ("int" and
// "number" among them) and both reject the same unknown type.
func TestTypeSpecSameForBothInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	inputs := map[string]func(types string) JobSpec{
		"csv": func(types string) JobSpec {
			return JobSpec{CSV: "A,B\n1,x\n2,x\n", Types: types, FDs: []string{"A -> B"}}
		},
		"rows": func(types string) JobSpec {
			return JobSpec{Header: []string{"A", "B"}, Rows: [][]string{{"1", "x"}, {"2", "x"}}, Types: types, FDs: []string{"A -> B"}}
		},
	}
	for name, spec := range inputs {
		for _, types := range []string{"int,string", "number,str", "float,s", "numeric,"} {
			v := submitJob(t, ts.URL, spec(types))
			if final := pollJob(t, ts.URL, v.ID, 30*time.Second); final.State != JobDone {
				t.Errorf("%s with types %q: job ended %s (%s)", name, types, final.State, final.Error)
			}
		}
		if resp, body := postJSON(t, ts.URL+"/v1/jobs", spec("integer,string")); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with an unknown type: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if ok, _ := hz["ok"].(bool); !ok {
		t.Fatalf("healthz body: %s", body)
	}

	v := submitJob(t, ts.URL, JobSpec{CSV: hospCSV(), FDs: []string{"City -> State"}})
	pollJob(t, ts.URL, v.ID, 30*time.Second)

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats StatsView
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.JobsSubmitted != 1 {
		t.Errorf("jobsSubmitted = %d, want 1", stats.JobsSubmitted)
	}
	if stats.Jobs[JobDone] != 1 {
		t.Errorf("done gauge = %d, want 1", stats.Jobs[JobDone])
	}
	if st := stats.Algorithms["GreedyM"]; st == nil || st.Count != 1 {
		t.Errorf("GreedyM latency counter missing: %+v", stats.Algorithms)
	}
	if stats.CellsRepaired == 0 {
		t.Error("cellsRepaired = 0 after a repairing job")
	}
	// The repair run queried string distances, so the aggregated
	// distance-cache counters must have moved.
	if stats.DistCacheHits+stats.DistCacheMisses == 0 {
		t.Error("distance-cache counters did not move after a repairing job")
	}
}

func TestRowsInputAndInferredTypes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := submitJob(t, ts.URL, JobSpec{
		Header: []string{"City", "State"},
		Rows: [][]string{
			{"BOSTON", "MA"}, {"BOSTON", "MA"}, {"BOSTON", "MA"},
			{"BOSTN", "MA"},
		},
		FDs: []string{"City -> State"}, Verify: true,
	})
	final := pollJob(t, ts.URL, v.ID, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Result.FTConsistent == nil || !*final.Result.FTConsistent {
		t.Error("rows-input job not FT-consistent")
	}
}

func TestShutdownCancelsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	v := submitJob(t, ts.URL, JobSpec{
		CSV: pathCSV(150), Types: "numeric,string",
		FDs: []string{"A -> B"}, Algorithm: "ExactS",
		Tau: 0.005, WL: 0.5, WR: 0.5,
	})
	// Wait until it runs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		job, _ := s.jobs.get(v.ID)
		if job.State() == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	job, _ := s.jobs.get(v.ID)
	if st := job.State(); st != JobCanceled {
		t.Fatalf("in-flight job ended %s after shutdown, want canceled", st)
	}
	// Submissions after shutdown are rejected.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", JobSpec{CSV: "A,B\nx,y\n", FDs: []string{"A -> B"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: %d, want 503", resp.StatusCode)
	}
}

// TestShutdownReleasesGoroutines: after sessions close and Shutdown
// returns, no goroutine the server started is left: pool workers, session
// batchers and job deadline watchers all exit. Three sessions take
// concurrent appends, one is closed by DELETE and two by Shutdown; one job
// finishes and a running ExactS job is canceled by Shutdown.
func TestShutdownReleasesGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 3)
	for i := range ids {
		resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionSpec{CSV: hospCSV(), FDs: []string{"City -> State"}})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST session: %d %s", resp.StatusCode, body)
		}
		var sv SessionView
		if err := json.Unmarshal(body, &sv); err != nil {
			t.Fatal(err)
		}
		ids[i] = sv.ID
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(url string, g int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					body := fmt.Sprintf(`{"rows":[["BOSTN","MA"],["CHICAGO%d","IL"]]}`, g)
					resp, err := http.Post(url, "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("append to %s: status %d", url, resp.StatusCode)
						return
					}
				}
			}(ts.URL+"/v1/sessions/"+id+"/tuples", g)
		}
	}
	wg.Wait()
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+ids[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session: %d", resp.StatusCode)
	}

	done := submitJob(t, ts.URL, JobSpec{CSV: hospCSV(), FDs: []string{"City -> State"}})
	if v := pollJob(t, ts.URL, done.ID, 30*time.Second); v.State != JobDone {
		t.Fatalf("job ended %s (%s)", v.State, v.Error)
	}
	slow := submitJob(t, ts.URL, JobSpec{
		CSV: pathCSV(150), Types: "numeric,string",
		FDs: []string{"A -> B"}, Algorithm: "ExactS",
		Tau: 0.005, WL: 0.5, WR: 0.5,
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		job, _ := s.jobs.get(slow.ID)
		if job.State() == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if job, _ := s.jobs.get(slow.ID); job.State() != JobCanceled {
		t.Fatalf("running job ended %s after shutdown, want canceled", job.State())
	}

	// The HTTP server's and client's connection goroutines are not the
	// repair server's; close them before counting.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before New:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
