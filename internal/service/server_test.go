package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"calculon/internal/resultstore"
	"testing"
	"time"
)

// smallSpec is a job over a tiny strategy space (finishes in well under a
// second); bigSpec spans ~160k strategies in 317 work chunks (the
// cancel_test space), so a held job (holdJobs) pauses mid-flight.
func smallSpec() string {
	return `{"model":{"preset":"gpt3-13B","batch":8},"system":{"preset":"a100-80g","procs":8},"search":{"top_k":3}}`
}

func bigSpec() string {
	return `{"model":{"preset":"gpt3-13B","batch":64},"system":{"preset":"a100-80g","procs":64},"search":{"max_interleave":2}}`
}

// holdAt is the call of a job context's Err from which a held job pauses.
// The search calls Err before each of its (at most 28) subtrees and each
// work chunk, so with at most four workers one of them has finished a chunk
// by then, and most of bigSpec's chunks are still to come.
const holdAt = 40

// heldContext is a held job's context: from the holdAt-th call of Err on,
// each call waits until the job is cancelled or the hold released.
type heldContext struct {
	context.Context
	released <-chan struct{}
	calls    atomic.Int64
}

func (c *heldContext) Err() error {
	if c.calls.Add(1) >= holdAt {
		select {
		case <-c.Done():
		case <-c.released:
		}
	}
	return c.Context.Err()
}

// holdJobs makes every job the test starts pause mid-search until it is
// cancelled or release is called, so the test can watch a job run without
// racing the search to its end. Call it before building the server: its
// cleanup runs after the server's drain.
func holdJobs(t *testing.T) (release func()) {
	released := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(released) }) }
	jobContext = func(ctx context.Context) context.Context {
		return &heldContext{Context: ctx, released: released}
	}
	t.Cleanup(func() {
		release()
		jobContext = nil
	})
	return release
}

// newTestServer builds a server and guarantees it is drained at cleanup so
// no scheduler or job goroutines outlive the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // hard drain: cancel running jobs immediately
		s.Drain(ctx)
	})
	return s
}

// do runs one request through the server's mux and decodes the JSON reply.
func do(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func submit(t *testing.T, s *Server, spec string) JobStatus {
	t.Helper()
	var st JobStatus
	rec := do(t, s, "POST", "/v1/jobs", spec, &st)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", rec.Code, rec.Body.String())
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit: unexpected status %+v", st)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state when
// want is terminal and the job went elsewhere, which fails the test).
func waitState(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		rec := do(t, s, "GET", "/v1/jobs/"+id, "", &st)
		if rec.Code != http.StatusOK {
			t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

func TestSubmitPollResultLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, MaxRunning: 2, QueueDepth: 4})
	st := submit(t, s, smallSpec())

	done := waitState(t, s, st.ID, StateDone)
	if done.Progress.Evaluated == 0 || done.Progress.Total == 0 {
		t.Fatalf("done job carries no progress counters: %+v", done.Progress)
	}
	if done.Workers < 1 {
		t.Fatalf("done job reports %d workers", done.Workers)
	}

	var res JobResult
	rec := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "", &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("result: %d %s", rec.Code, rec.Body.String())
	}
	if !res.Found || res.Best == nil || res.Best.SampleRate <= 0 {
		t.Fatalf("result has no best configuration: %+v", res)
	}
	if len(res.Top) == 0 || len(res.Top) > 3 {
		t.Fatalf("top_k=3 returned %d entries", len(res.Top))
	}
	if res.Evaluated != int(done.Progress.Evaluated) {
		t.Fatalf("result evaluated %d != final progress %d", res.Evaluated, done.Progress.Evaluated)
	}
}

func TestResultLongPoll(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, MaxRunning: 1, QueueDepth: 4})
	st := submit(t, s, smallSpec())
	var res JobResult
	rec := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result?wait=20s", "", &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("long-poll result: %d %s", rec.Code, rec.Body.String())
	}
	if res.State != StateDone {
		t.Fatalf("long-poll returned state %s", res.State)
	}
}

func TestResultBeforeDoneIs202(t *testing.T) {
	holdJobs(t)
	s := newTestServer(t, Config{Workers: 2, MaxRunning: 1, QueueDepth: 4})
	st := submit(t, s, bigSpec())
	var got JobStatus
	rec := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "", &got)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("result on unfinished job: %d, want 202", rec.Code)
	}
	do(t, s, "DELETE", "/v1/jobs/"+st.ID, "", nil)
}

func TestCancelRunningJob(t *testing.T) {
	holdJobs(t)
	s := newTestServer(t, Config{Workers: 2, MaxRunning: 1, QueueDepth: 4})
	st := submit(t, s, bigSpec())
	// Catch it mid-search: running with progress flowing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := waitState(t, s, st.ID, StateRunning)
		if got.Progress.Evaluated > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
	}
	var cancelled JobStatus
	rec := do(t, s, "DELETE", "/v1/jobs/"+st.ID, "", &cancelled)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body.String())
	}
	final := waitState(t, s, st.ID, StateCancelled)
	if final.Progress.Evaluated >= final.Progress.Total {
		t.Fatalf("cancelled job ran to completion (%d of %d)",
			final.Progress.Evaluated, final.Progress.Total)
	}
	// The partial result is still served.
	var res JobResult
	if rec := do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "", &res); rec.Code != http.StatusOK {
		t.Fatalf("result after cancel: %d", rec.Code)
	}
	if res.State != StateCancelled {
		t.Fatalf("result state %s, want cancelled", res.State)
	}
	// Cancelling again is a no-op, not an error.
	if rec := do(t, s, "DELETE", "/v1/jobs/"+st.ID, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("re-cancel: %d", rec.Code)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	holdJobs(t)
	s := newTestServer(t, Config{Workers: 2, MaxRunning: 1, QueueDepth: 4})
	running := submit(t, s, bigSpec())
	waitState(t, s, running.ID, StateRunning)
	queued := submit(t, s, smallSpec())
	var got JobStatus
	do(t, s, "DELETE", "/v1/jobs/"+queued.ID, "", &got)
	if got.State != StateCancelled {
		t.Fatalf("queued job state after cancel: %s", got.State)
	}
	if got.Started != nil {
		t.Fatal("cancelled-while-queued job claims to have started")
	}
	do(t, s, "DELETE", "/v1/jobs/"+running.ID, "", nil)
}

func TestQueueFullRejectsWith503(t *testing.T) {
	holdJobs(t)
	s := newTestServer(t, Config{Workers: 2, MaxRunning: 1, QueueDepth: 1})
	running := submit(t, s, bigSpec())
	waitState(t, s, running.ID, StateRunning)
	submit(t, s, bigSpec()) // fills the queue
	rec := do(t, s, "POST", "/v1/jobs", bigSpec(), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit to full queue: %d, want 503", rec.Code)
	}
}

func TestBadSpecRejectedWith400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxRunning: 1, QueueDepth: 1})
	for _, body := range []string{
		`not json`,
		`{}`,
		`{"model":{"preset":"no-such-model"},"system":{"preset":"a100-80g","procs":8}}`,
		`{"model":{"preset":"gpt3-13B"},"system":{"preset":"a100-80g","procs":8},"search":{"features":"warp-speed"}}`,
		`{"model":{"preset":"gpt3-13B"},"system":{"preset":"a100-80g","procs":8},"search":{"top_k":-1}}`,
	} {
		rec := do(t, s, "POST", "/v1/jobs", body, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("submit %q: %d, want 400", body, rec.Code)
		}
	}
	if rec := do(t, s, "GET", "/v1/jobs/job-999999", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/jobs/job-999999", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job cancel: %d, want 404", rec.Code)
	}
}

// TestWorkerBudgetAcrossConcurrentJobs drives the budget end to end: two
// jobs running at once on a workers=3 daemon report shares summing to 3.
func TestWorkerBudgetAcrossConcurrentJobs(t *testing.T) {
	holdJobs(t)
	s := newTestServer(t, Config{Workers: 3, MaxRunning: 2, QueueDepth: 4})
	a := submit(t, s, bigSpec())
	b := submit(t, s, bigSpec())
	stA := waitState(t, s, a.ID, StateRunning)
	stB := waitState(t, s, b.ID, StateRunning)
	if sum := stA.Workers + stB.Workers; sum != 3 {
		t.Fatalf("concurrent jobs hold %d+%d workers, budget is 3", stA.Workers, stB.Workers)
	}
	do(t, s, "DELETE", "/v1/jobs/"+a.ID, "", nil)
	do(t, s, "DELETE", "/v1/jobs/"+b.ID, "", nil)
}

func TestRateLimiter429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxRunning: 1, QueueDepth: 1, Rate: 0.001, Burst: 2})
	hit := func(addr string) int {
		req := httptest.NewRequest("GET", "/v1/jobs", nil)
		req.RemoteAddr = addr
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	for i := 0; i < 2; i++ {
		if code := hit("10.0.0.1:1234"); code != http.StatusOK {
			t.Fatalf("request %d within burst: %d", i, code)
		}
	}
	if code := hit("10.0.0.1:9999"); code != http.StatusTooManyRequests {
		t.Fatalf("request past burst: %d, want 429 (same host, different port)", code)
	}
	if code := hit("10.0.0.2:1234"); code != http.StatusOK {
		t.Fatal("different client throttled by the first one's spending")
	}
	// healthz and metrics stay reachable for a throttled client.
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.RemoteAddr = "10.0.0.1:1"
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz throttled: %d", rec.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, MaxRunning: 2, QueueDepth: 4})
	st := submit(t, s, smallSpec())
	waitState(t, s, st.ID, StateDone)
	rec := do(t, s, "GET", "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, line := range []string{
		"calculond_jobs_submitted_total 1",
		"calculond_jobs_done_total 1",
		"calculond_jobs_queued 0",
		"calculond_jobs_running 0",
		"calculond_workers_total 4",
		"calculond_job_slots_total 2",
		"calculond_strategies_evaluated_total",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q:\n%s", line, body)
		}
	}
	// The fleet counter carries the finished job's evaluations.
	var evaluated int64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "calculond_strategies_evaluated_total ") {
			fmt.Sscanf(line, "calculond_strategies_evaluated_total %d", &evaluated)
		}
	}
	var res JobResult
	do(t, s, "GET", "/v1/jobs/"+st.ID+"/result", "", &res)
	if evaluated != int64(res.Evaluated) {
		t.Fatalf("fleet evaluated %d != job result %d", evaluated, res.Evaluated)
	}
}

func TestHealthzFlipsWhileDraining(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxRunning: 1, QueueDepth: 1})
	if rec := do(t, s, "GET", "/healthz", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", rec.Code)
	}
	s.Drain(context.Background())
	if rec := do(t, s, "GET", "/healthz", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d, want 503", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/jobs", smallSpec(), nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: %d, want 503", rec.Code)
	}
}

// waitForGoroutines is the leak check of internal/search's cancel_test: the
// count must settle back to the pre-server baseline after a drain.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestDrainCancelsAndLeaksNothing is the drain contract end to end: with a
// job running and another queued, a drain whose deadline is already past
// cancels both, unwinds every goroutine the service started, and leaves all
// jobs terminal.
func TestDrainCancelsAndLeaksNothing(t *testing.T) {
	holdJobs(t)
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 2, MaxRunning: 1, QueueDepth: 4})
	running := submit(t, s, bigSpec())
	waitState(t, s, running.ID, StateRunning)
	queued := submit(t, s, bigSpec())

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already past: running jobs are cancelled, not awaited
	start := time.Now()
	s.Drain(ctx)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("hard drain took %v", took)
	}
	for _, id := range []string{running.ID, queued.ID} {
		var st JobStatus
		do(t, s, "GET", "/v1/jobs/"+id, "", &st)
		if st.State != StateCancelled {
			t.Fatalf("job %s after drain: %s, want cancelled", id, st.State)
		}
	}
	waitForGoroutines(t, baseline)
}

// TestDrainLetsRunningJobsFinish is the graceful half: with a generous
// deadline, a job that is already running completes as done, not cancelled
// (only queued jobs are cancelled by a drain).
func TestDrainLetsRunningJobsFinish(t *testing.T) {
	release := holdJobs(t)
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 4, MaxRunning: 1, QueueDepth: 4})
	st := submit(t, s, bigSpec())
	waitState(t, s, st.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// The job is running, so the drain lets it finish, whenever the hold
	// ends.
	release()
	s.Drain(ctx)
	var got JobStatus
	do(t, s, "GET", "/v1/jobs/"+st.ID, "", &got)
	if got.State != StateDone {
		t.Fatalf("job after graceful drain: %s (err %q), want done", got.State, got.Error)
	}
	waitForGoroutines(t, baseline)
}

// TestStoreEndpoint: /v1/store reports the persistent store's counters and
// path, and degrades to enabled=false when the daemon runs without one.
func TestStoreEndpoint(t *testing.T) {
	// No store configured.
	bare := newTestServer(t, Config{Workers: 1, MaxRunning: 1, QueueDepth: 4})
	var off StoreStatus
	if rec := do(t, bare, "GET", "/v1/store", "", &off); rec.Code != http.StatusOK {
		t.Fatalf("store status without store: %d", rec.Code)
	}
	if off.Enabled || off.Path != "" || off.Rows != 0 {
		t.Fatalf("storeless daemon reports %+v, want all-zero", off)
	}

	// With a store: run a job, rerun it from cache, watch the counters.
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := newTestServer(t, Config{Workers: 1, MaxRunning: 1, QueueDepth: 4, Store: store})

	live := submit(t, s, smallSpec())
	waitState(t, s, live.ID, StateDone)
	rerun := submit(t, s, smallSpec())
	waitState(t, s, rerun.ID, StateDone)

	var st StoreStatus
	if rec := do(t, s, "GET", "/v1/store", "", &st); rec.Code != http.StatusOK {
		t.Fatalf("store status: %d", rec.Code)
	}
	if !st.Enabled || st.Path != store.Path() {
		t.Fatalf("store status = %+v, want enabled at %s", st, store.Path())
	}
	if st.Rows != 1 || st.Hits != 1 || st.Misses != 1 || st.Appends != 1 {
		t.Fatalf("store status = %+v, want 1 row / 1 hit / 1 miss / 1 append", st)
	}
}

// TestDisableStoreEvaluatesFully: a job with "disable_store" set neither
// consults nor fills the daemon's store. With the store already holding
// the job's verdict, a training and a serving job each evaluate in full
// and leave the store's counters unchanged.
func TestDisableStoreEvaluatesFully(t *testing.T) {
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := newTestServer(t, Config{Workers: 2, MaxRunning: 1, QueueDepth: 4, Store: store})
	for name, spec := range map[string]string{"training": smallSpec(), "serving": servingSeed} {
		warm := submit(t, s, spec)
		waitState(t, s, warm.ID, StateDone)
		before := store.Stats()
		var off JobSpec
		if err := json.Unmarshal([]byte(spec), &off); err != nil {
			t.Fatal(err)
		}
		off.Search.DisableStore = true
		body, err := json.Marshal(off)
		if err != nil {
			t.Fatal(err)
		}
		job := waitState(t, s, submit(t, s, string(body)).ID, StateDone)
		if p := job.Progress; p.StoreHits != 0 || p.Evaluated == 0 {
			t.Errorf("%s: job with the store disabled reports %d store hits, %d evaluated; want 0 and a full evaluation",
				name, p.StoreHits, p.Evaluated)
		}
		if after := store.Stats(); after.Hits != before.Hits || after.Misses != before.Misses || after.Appends != before.Appends {
			t.Errorf("%s: job with the store disabled touched the store: %+v, then %+v", name, before, after)
		}
	}
}
