package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"calculon/internal/config"
	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/resultstore"
	"calculon/internal/search"
	"calculon/internal/service"
	"calculon/internal/serving"
	"calculon/internal/system"
)

// daemonProc is one running calculond.
type daemonProc struct {
	cmd    *exec.Cmd
	addr   string
	ready  time.Duration // exec to the "listening on" line
	stderr bytes.Buffer
	eof    chan struct{} // closed when the daemon's stdout reaches EOF
}

// startDaemon launches calculond on an ephemeral loopback port with the
// workload's worker budget and store, and waits for its "listening on" line.
// The per-client rate limit is off (-rate 0): every benchmark client shares
// 127.0.0.1, so the limiter would throttle the benchmark, not a client.
func (e *env) startDaemon(store string) (*daemonProc, error) {
	d := &daemonProc{eof: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(e.bin, "calculond"), "-addr", "127.0.0.1:0",
		"-workers", itoa(e.workers), "-max-running", "2", "-rate", "0", "-store", store)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	listening := make(chan string, 1)
	go func() {
		defer close(d.eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "calculond: listening on "); ok {
				listening <- addr
			}
		}
	}()
	select {
	case d.addr = <-listening:
		d.ready = time.Since(start)
		return d, nil
	case <-d.eof:
	case <-time.After(60 * time.Second):
	}
	d.kill()
	return nil, fmt.Errorf("calculond did not report its address: %s", lastLine(d.stderr.String()))
}

// stop sends SIGTERM, waits for the drain, and returns the exit code and
// peak resident set. A daemon still running a minute later is killed.
func (d *daemonProc) stop() (int, float64, error) {
	// calculond prints its address before it installs its SIGTERM handler,
	// so a signal sent right after the line can kill it outright. One
	// answered request first lets start-up run past that point.
	c := newClient(d.addr)
	_, _, _ = c.do("GET", "/healthz", nil) // a failed probe shows up as the exit code below
	c.close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return -1, 0, err
	}
	select {
	case <-d.eof:
	case <-time.After(60 * time.Second):
		d.kill()
		return -1, 0, fmt.Errorf("calculond did not exit within a minute of SIGTERM")
	}
	err := d.cmd.Wait()
	ps := d.cmd.ProcessState
	if ps == nil {
		return -1, 0, err
	}
	if err != nil {
		err = fmt.Errorf("%v: %s", err, lastLine(d.stderr.String()))
	}
	return ps.ExitCode(), maxRSSMiB(ps), err
}

func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill() // the process may already have exited
	<-d.eof
	_ = d.cmd.Wait() // the exit status of a killed daemon carries nothing
}

// client is one closed-loop daemon client holding a single keep-alive
// connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: "http://" + addr}
}

// do sends one request and reads the whole response, so the connection
// returns to the pool for the next request.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one finished daemon job as its client saw it.
type outcome struct {
	job              daemonJob
	err              error
	rejected         bool
	start, submitted time.Time
	received         time.Time
	result           service.JobResult
	normalized       []byte             // result JSON with the job ID blanked
	status           *service.JobStatus // server timestamps, traced runs only
	submitState      service.State
	latency          time.Duration
}

// runJob submits one job, long-polls its result, and on traced runs fetches
// the job's status for the server-side timestamps.
func (c *client) runJob(j daemonJob, traced bool) outcome {
	o := outcome{job: j}
	body, err := json.Marshal(j.Spec)
	if err != nil {
		o.err = err
		return o
	}
	o.start = time.Now()
	code, data, err := c.do("POST", "/v1/jobs", body)
	o.submitted = time.Now()
	if err != nil {
		o.err = err
		return o
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		o.rejected = true
	}
	if code != http.StatusAccepted {
		o.err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
		return o
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		o.err = fmt.Errorf("submit: %v", err)
		return o
	}
	o.submitState = st.State
	for {
		code, data, err = c.do("GET", "/v1/jobs/"+st.ID+"/result?wait=30s", nil)
		if err != nil {
			o.err = err
			return o
		}
		if code != http.StatusAccepted {
			break
		}
	}
	o.received = time.Now()
	o.latency = o.received.Sub(o.start)
	if code != http.StatusOK {
		o.err = fmt.Errorf("result: HTTP %d: %s", code, bytes.TrimSpace(data))
		return o
	}
	if err := json.Unmarshal(data, &o.result); err != nil {
		o.err = fmt.Errorf("result: %v", err)
		return o
	}
	if o.result.State != service.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, o.result.State, o.result.Error)
		return o
	}
	o.normalized = normalizedResult(o.result)
	if traced {
		code, data, err = c.do("GET", "/v1/jobs/"+st.ID, nil)
		if err == nil && code == http.StatusOK {
			var s service.JobStatus
			if err = json.Unmarshal(data, &s); err == nil {
				o.status = &s
			}
		}
		if o.status == nil || o.status.Started == nil || o.status.Finished == nil {
			o.err = fmt.Errorf("status of %s: HTTP %d, %v", st.ID, code, err)
		}
	}
	return o
}

// normalizedResult is the job result's JSON with the job ID blanked, so
// results of different jobs of the same spec compare byte for byte.
func normalizedResult(r service.JobResult) []byte {
	r.ID = ""
	data, _ := json.Marshal(r) // a decoded JobResult always re-encodes
	return data
}

// segmentRounds is the number of job rounds between two host speed
// readings of the daemon workload.
const segmentRounds = 2

// daemonPhase runs the job lists, one goroutine per client, segment by
// segment: both clients run their jobs of segmentRounds rounds, then the
// host speed is read while the daemon idles. It returns the outcomes client
// by client, and the wall time spent running jobs.
func (e *env) daemonPhase(addr string, lists [][]daemonJob, traced bool) ([][]outcome, time.Duration) {
	clients := make([]*client, len(lists))
	for i := range clients {
		clients[i] = newClient(addr)
		defer clients[i].close()
	}
	outs := make([][]outcome, len(lists))
	var wall time.Duration
	e.speed()
	for round := 0; ; round += segmentRounds {
		start := time.Now()
		var wg sync.WaitGroup
		done := true
		for i, list := range lists {
			from, to := len(outs[i]), len(outs[i])
			for to < len(list) && list[to].Round < round+segmentRounds {
				to++
			}
			done = done && to == len(list)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range list[from:to] {
					outs[i] = append(outs[i], clients[i].runJob(j, traced))
				}
			}()
		}
		wg.Wait()
		wall += time.Since(start)
		e.speed()
		if done {
			return outs, wall
		}
	}
}

// daemonRounds is the number of job rounds (36 jobs each) the daemon
// workload runs; one round takes about 0.6 s on a 2-CPU host.
func (e *env) daemonRounds() int { return e.scaled(0.6, 2) }

// checkOutcomes applies the per-job checks: the job succeeded, its submit
// response was in a live state (the 202 may already say running or done), a
// resubmit returned exactly the first run's result, and a sample of fresh
// training jobs matches an in-process search. It returns the store-hit and
// fresh-job counts.
func (e *env) checkOutcomes(outs [][]outcome) (repeats, fresh int) {
	var sample []outcome
	for c, list := range outs {
		sampled := 0
		for i, o := range list {
			if !e.ok(o.err, fmt.Sprintf("client %d job %d (%s)", c, i, o.job.Kind)) {
				continue
			}
			switch o.submitState {
			case service.StateQueued, service.StateRunning, service.StateDone:
			default:
				e.check(false, "client %d job %d: submit answered state %q", c, i, o.submitState)
			}
			if o.job.Repeat >= 0 {
				repeats++
				e.check(bytes.Equal(o.normalized, list[o.job.Repeat].normalized),
					"client %d job %d: resubmit of job %d returned a different result", c, i, o.job.Repeat)
				continue
			}
			fresh++
			if o.job.Kind == kindTrain && sampled < 3 {
				sample = append(sample, o)
				sampled++
			}
		}
	}
	for _, o := range sample {
		want, err := inProcessResult(o.job.Spec, e.workers)
		if e.ok(err, "in-process search") {
			want.ID = o.result.ID
			e.check(bytes.Equal(normalizedResult(want), o.normalized),
				"job %s: the daemon's result differs from an in-process search of the same spec", o.result.ID)
		}
	}
	return repeats, fresh
}

// prepareTraining resolves a training job spec into the search the daemon
// runs for it, with the daemon's defaults: all features, top-1.
func prepareTraining(spec service.JobSpec, workers int) (model.LLM, system.System, search.Options, error) {
	m, err := spec.Model.Resolve()
	if err != nil {
		return m, system.System{}, search.Options{}, err
	}
	sys, err := spec.System.Resolve()
	if err != nil {
		return m, sys, search.Options{}, err
	}
	features := execution.FeatureSet(spec.Search.Features)
	if features == "" {
		features = execution.FeatureAll
	}
	topK := max(spec.Search.TopK, 1)
	return m, sys, search.Options{
		Enum:    execution.EnumOptions{Features: features, MaxInterleave: spec.Search.MaxInterleave},
		TopK:    topK,
		Pareto:  spec.Search.Pareto,
		Workers: workers,
	}, nil
}

// inProcessResult runs a training job's search in this process and renders
// it as the daemon's result endpoint does.
func inProcessResult(spec service.JobSpec, workers int) (service.JobResult, error) {
	m, sys, opts, err := prepareTraining(spec, workers)
	if err != nil {
		return service.JobResult{}, err
	}
	res, err := search.Execution(context.Background(), m, sys, opts)
	if err != nil {
		return service.JobResult{}, err
	}
	out := service.JobResult{
		State:         service.StateDone,
		Evaluated:     res.Evaluated,
		Feasible:      res.Feasible,
		PreScreened:   res.PreScreened,
		SubtreePruned: res.SubtreePruned,
		CacheHits:     res.CacheHits,
		Found:         res.Found(),
	}
	if res.Found() {
		best := res.Best
		out.Best, out.Top, out.Pareto = &best, res.Top, res.Pareto
	}
	return out, nil
}

// storeStatus fetches the daemon's result-store counters.
func storeStatus(addr string) (service.StoreStatus, error) {
	c := newClient(addr)
	defer c.close()
	var st service.StoreStatus
	code, data, err := c.do("GET", "/v1/store", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// daemonRun is what the daemon workload's job phase measured.
type daemonRun struct {
	outs   [][]outcome
	fresh  int           // successful fresh jobs, one store row each
	wall   time.Duration // spent running jobs
	rssMiB float64
	store  string
}

// runDaemonWorkload starts calculond on an empty store, drives the seeded
// job lists through it, checks every answer and the store's counters, and
// stops it with SIGTERM, which must exit 0.
func (e *env) runDaemonWorkload(traced bool) (daemonRun, bool) {
	lists := genJobs(e.seed, e.daemonRounds(), e.quick)
	r := daemonRun{store: filepath.Join(e.work, "store.jsonl")}
	d, err := e.startDaemon(r.store)
	if !e.ok(err, "starting calculond") {
		return r, false
	}
	r.outs, r.wall = e.daemonPhase(d.addr, lists, traced)
	repeats, fresh := e.checkOutcomes(r.outs)
	r.fresh = fresh
	st, err := storeStatus(d.addr)
	if e.ok(err, "store status") {
		e.check(st.Hits == int64(repeats) && st.Misses == int64(fresh) && st.Appends == int64(fresh),
			"store counted %d hits, %d misses, %d appends; the workload made %d resubmits and %d fresh jobs",
			st.Hits, st.Misses, st.Appends, repeats, fresh)
	}
	code, rss, err := d.stop()
	r.rssMiB = rss
	e.check(err == nil && code == 0, "calculond exited %d after SIGTERM: %v", code, err)
	e.logf("%d jobs (%d fresh, %d resubmits) in %.1f s", repeats+fresh, fresh, repeats, r.wall.Seconds())
	return r, true
}

// daemonMixed is the daemon workload: two closed-loop clients submit seeded
// jobs — fresh training searches, fresh serving searches and resubmits the
// store answers — then the daemon restarts on the filled store.
func daemonMixed(e *env) {
	r, ok := e.runDaemonWorkload(false)
	if !ok {
		return
	}
	var lat []float64
	evaluated := 0
	for _, list := range r.outs {
		for _, o := range list {
			if o.err != nil {
				continue
			}
			lat = append(lat, ms(o.latency))
			if o.job.Repeat < 0 {
				evaluated += o.result.Evaluated
			}
		}
	}
	e.set("latency_p50_ms", median(lat))
	e.set("latency_tail_ms", tail(lat))
	e.set("strategies_per_s", float64(evaluated)/r.wall.Seconds())
	e.set("requests_per_s", float64(len(lat))/r.wall.Seconds())
	e.set("peak_rss_mb", r.rssMiB)

	// Set-up: restarts on the filled store, each replaying it before
	// listening. The first restart also checks that every verdict survived.
	restarts := 7
	if e.quick {
		restarts = 2
	}
	var ready []float64
	e.speed()
	for i := range restarts {
		d, err := e.startDaemon(r.store)
		if !e.ok(err, "restarting calculond") {
			continue
		}
		ready = append(ready, d.ready.Seconds())
		if i == 0 {
			st, err := storeStatus(d.addr)
			if e.ok(err, "store status after restart") {
				e.check(st.Rows == r.fresh, "restarted store holds %d rows, want %d", st.Rows, r.fresh)
			}
		}
		code, _, err := d.stop()
		e.check(err == nil && code == 0, "restarted calculond exited %d after SIGTERM: %v", code, err)
	}
	e.speed()
	e.set("setup_s", median(ready))
}

// traceDaemon traces the daemon workload: spans from the API's timestamps
// for every job, then an in-process replay of the first round's jobs against
// a fresh store whose cache calls a timing wrapper records.
func traceDaemon(e *env) {
	r, ok := e.runDaemonWorkload(true)
	if !ok {
		return
	}
	outs, store := r.outs, r.store
	var submit, result, queue, runHit, runMiss []float64
	rejected := 0
	for c, list := range outs {
		for _, o := range list {
			if o.rejected {
				rejected++
			}
			if o.err != nil || o.status == nil {
				continue
			}
			s := o.status
			lane := 10 * (c + 1)
			job := e.tr.add("service.job", o.start, o.received, 0, o.result.ID, lane)
			e.tr.add("service.submit", o.start, o.submitted, job, o.result.ID, lane+1)
			e.tr.add("service.queue", s.Created, *s.Started, job, o.result.ID, lane+2)
			e.tr.add("service.run", *s.Started, *s.Finished, job, o.result.ID, lane+3)
			e.tr.add("service.result", *s.Finished, o.received, job, o.result.ID, lane+4)
			submit = append(submit, ms(o.submitted.Sub(o.start)))
			result = append(result, ms(o.received.Sub(*s.Finished)))
			queue = append(queue, ms(s.Started.Sub(s.Created)))
			if o.job.Repeat >= 0 {
				runHit = append(runHit, ms(s.Finished.Sub(*s.Started)))
			} else {
				runMiss = append(runMiss, ms(s.Finished.Sub(*s.Started)))
			}
		}
	}
	e.set("service.submit_ms", median(submit))
	e.set("service.result_ms", median(result))
	e.set("service.queue_wait_p50_ms", median(queue))
	e.set("service.queue_wait_p99_ms", percentile(queue, 99))
	e.set("service.run_hit_ms", median(runHit))
	e.set("service.run_miss_ms", median(runMiss))
	e.set("service.rejected", float64(rejected))

	if fi, err := os.Stat(store); e.ok(err, "store file") {
		e.set("resultstore.file_mb", float64(fi.Size())/(1<<20))
	}
	var opens []float64
	for range 3 {
		start := time.Now()
		st, err := resultstore.Open(store)
		d := time.Since(start)
		if e.ok(err, "opening the store") {
			opens = append(opens, d.Seconds())
			e.ok(st.Close(), "closing the store")
		}
	}
	e.set("resultstore.open_s", median(opens))

	var replay []daemonJob
	for _, list := range genJobs(e.seed, 1, e.quick) {
		replay = append(replay, list...)
	}
	// The traced replay runs between two untraced ones, as overheadPasses
	// orders its passes; each replay starts from its own empty store.
	path := func(i int) string { return filepath.Join(e.work, fmt.Sprintf("replay-%d.jsonl", i)) }
	u1, _ := e.replay(replay, path(1), false)
	traced, st := e.replay(replay, path(2), true)
	u2, _ := e.replay(replay, path(3), false)
	untraced := (u1 + u2) / 2
	e.set("resultstore.lookup_us", float64(e.tr.total("resultstore.lookup").Microseconds())/float64(max(st.Hits+st.Misses, 1)))
	e.set("resultstore.store_us", float64(e.tr.total("resultstore.store").Microseconds())/float64(max(st.Appends, 1)))
	e.set("resultstore.hit_frac", ratio(int(st.Hits), int(st.Hits+st.Misses)))
	e.set("resultstore.appends", float64(st.Appends))
	e.set("resultstore.flushes", float64(st.Flushes))
	if untraced > 0 {
		e.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replay runs jobs in this process, one after another, as the daemon would:
// each search consults a fresh store before evaluating and records its
// verdict after. With traced set, a wrapper times every store call. It
// returns the wall time and the store's counters, the final flush included.
func (e *env) replay(jobs []daemonJob, path string, traced bool) (time.Duration, resultstore.Stats) {
	st, err := resultstore.Open(path)
	if !e.ok(err, "opening the replay store") {
		return 0, resultstore.Stats{}
	}
	ctx := context.Background()
	start := time.Now()
	for i, j := range jobs {
		req := fmt.Sprintf("replay-%d", i)
		if j.Spec.Serving != nil {
			spec, err := config.ServingScenario{
				Model: j.Spec.Model, System: j.Spec.System,
				Workload: j.Spec.Serving.Workload, Space: j.Spec.Serving.Space,
			}.Resolve()
			if !e.ok(err, "resolving a serving job") {
				continue
			}
			opts := serving.Options{Workers: e.workers, Cache: st.ServingCache()}
			if traced {
				opts.Cache = timedServingCache{st.ServingCache(), e.tr, req}
			}
			_, err = serving.Search(ctx, spec, opts)
			e.ok(err, "replayed serving job")
			continue
		}
		m, sys, opts, err := prepareTraining(j.Spec, e.workers)
		if !e.ok(err, "resolving a training job") {
			continue
		}
		opts.Cache = st
		if traced {
			opts.Cache = timedCache{st, e.tr, req}
		}
		_, err = search.Execution(ctx, m, sys, opts)
		e.ok(err, "replayed training job")
	}
	wall := time.Since(start)
	e.ok(st.Close(), "closing the replay store")
	return wall, st.Stats()
}

// timedCache is the replay's timing wrapper over the store's search.Cache.
type timedCache struct {
	st  *resultstore.Store
	tr  *tracer
	req string
}

func (c timedCache) Lookup(m model.LLM, sys system.System, o search.Options) (search.Result, bool) {
	start := time.Now()
	res, ok := c.st.Lookup(m, sys, o)
	c.tr.add("resultstore.lookup", start, time.Now(), 0, c.req, laneStore)
	return res, ok
}

func (c timedCache) Store(m model.LLM, sys system.System, o search.Options, res search.Result) {
	start := time.Now()
	c.st.Store(m, sys, o, res)
	c.tr.add("resultstore.store", start, time.Now(), 0, c.req, laneStore)
}

// timedServingCache is timedCache for the store's serving.Cache.
type timedServingCache struct {
	sc  resultstore.ServingCache
	tr  *tracer
	req string
}

func (c timedServingCache) Lookup(spec serving.Spec, o serving.Options) (serving.Result, bool) {
	start := time.Now()
	res, ok := c.sc.Lookup(spec, o)
	c.tr.add("resultstore.lookup", start, time.Now(), 0, c.req, laneStore)
	return res, ok
}

func (c timedServingCache) Store(spec serving.Spec, o serving.Options, res serving.Result) {
	start := time.Now()
	c.sc.Store(spec, o, res)
	c.tr.add("resultstore.store", start, time.Now(), 0, c.req, laneStore)
}
