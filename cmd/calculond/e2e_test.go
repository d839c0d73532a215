//go:build e2e

// End-to-end smoke test for the daemon: build the real binary, boot it on
// an ephemeral port, and drive the full job lifecycle over actual HTTP —
// submit → poll → result → cancel → SIGTERM drain — failing on a nonzero
// exit or a process that outlives its drain window. CI's service-e2e job
// runs exactly this via `go test -tags e2e`.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"calculon/internal/resultstore"
)

const smallJob = `{"model":{"preset":"gpt3-13B","batch":8},"system":{"preset":"a100-80g","procs":8},"search":{"top_k":3}}`
const bigJob = `{"model":{"preset":"gpt3-175B","batch":3072},"system":{"preset":"a100-80g","procs":4096},"search":{}}`

// servingJob exercises the serving-search job kind end to end, with the
// disaggregated prefill/decode pool mode in the search space.
const servingJob = `{"model":{"preset":"gpt3-13B"},"system":{"preset":"a100-80g","procs":16},` +
	`"serving":{"workload":{"mix":[{"prompt_len":512,"gen_len":128,"weight":1}],` +
	`"slo":{"ttft_seconds":30,"tpot_seconds":1}},"space":{"procs":16,"disaggregate":true}}}`

type status struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Workers  int    `json:"workers"`
	Error    string `json:"error"`
	Progress struct {
		Evaluated int64 `json:"evaluated"`
		StoreHits int64 `json:"store_hits"`
		Total     int64 `json:"total"`
	} `json:"progress"`
}

type result struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Found bool   `json:"found"`
	Best  *struct {
		SampleRate float64 `json:"sample_rate"`
	} `json:"best"`
	Serving *struct {
		Feasible int `json:"feasible"`
		Frontier []struct {
			Disaggregated   bool    `json:"disaggregated"`
			PrefillReplicas int     `json:"prefill_replicas"`
			CostPerMToken   float64 `json:"cost_per_mtoken"`
		} `json:"frontier"`
		Best *struct {
			CostPerMToken float64 `json:"cost_per_mtoken"`
		} `json:"best"`
	} `json:"serving"`
}

// buildDaemon compiles the calculond binary into a temporary directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "calculond")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCalculondE2EPromptSIGTERM: a SIGTERM sent the moment the daemon
// announces its address, before any request, must drain it and exit 0 — the
// handler is installed before the line is printed.
func TestCalculondE2EPromptSIGTERM(t *testing.T) {
	daemon := exec.Command(buildDaemon(t), "-addr", "127.0.0.1:0", "-workers", "1")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(stdout)
	if !scanner.Scan() || !strings.Contains(scanner.Text(), "listening on ") {
		daemon.Process.Kill()
		daemon.Wait()
		t.Fatalf("no startup line; stderr:\n%s", stderr.String())
	}
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, stdout)
	waited := make(chan error, 1)
	go func() { waited <- daemon.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("prompt SIGTERM: exit %v, want a drain and exit 0\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		daemon.Process.Kill()
		<-waited
		t.Fatalf("daemon still alive 20s after SIGTERM\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr missing the draining line:\n%s", stderr.String())
	}
}

func TestCalculondE2E(t *testing.T) {
	bin := buildDaemon(t)

	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "4",
		"-max-running", "2",
		"-queue-depth", "8",
		"-rate", "0", // the smoke client polls hard; limiting is unit-tested
		"-drain-timeout", "20s",
		"-store", storePath)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	// Whatever happens below, the daemon must not outlive the test.
	exited := false
	defer func() {
		if !exited {
			daemon.Process.Kill()
			daemon.Wait()
			t.Errorf("daemon had to be killed; stderr:\n%s", stderr.String())
		}
	}()

	// The bound address is the first stdout line.
	scanner := bufio.NewScanner(stdout)
	if !scanner.Scan() {
		t.Fatalf("no startup line; stderr:\n%s", stderr.String())
	}
	line := scanner.Text()
	idx := strings.LastIndex(line, "listening on ")
	if idx < 0 {
		t.Fatalf("unexpected startup line %q", line)
	}
	base := "http://" + strings.TrimSpace(line[idx+len("listening on "):])
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	client := &http.Client{Timeout: 10 * time.Second}
	call := func(method, path, body string, out any) int {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v\ndaemon stderr:\n%s", method, path, err, stderr.String())
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil && len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				t.Fatalf("%s %s: bad JSON %q: %v", method, path, data, err)
			}
		}
		return resp.StatusCode
	}
	waitFor := func(id, want string, needProgress bool) status {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			var st status
			if code := call("GET", "/v1/jobs/"+id, "", &st); code != http.StatusOK {
				t.Fatalf("status %s: HTTP %d", id, code)
			}
			if st.State == want && (!needProgress || st.Progress.Evaluated > 0) {
				return st
			}
			if st.State != want && st.State != "queued" && st.State != "running" {
				t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("job %s never reached %s", id, want)
		return status{}
	}

	// Healthy on boot.
	if code := call("GET", "/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}

	// Submit a small job and follow it to a served result.
	var small status
	if code := call("POST", "/v1/jobs", smallJob, &small); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(small.ID, "done", true)
	var res result
	if code := call("GET", "/v1/jobs/"+small.ID+"/result", "", &res); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if !res.Found || res.Best == nil || res.Best.SampleRate <= 0 {
		t.Fatalf("result carries no best configuration: %+v", res)
	}

	// The identical spec again: the daemon's result store must serve the
	// verdict without evaluating anything, and the numbers must match the
	// live run exactly.
	var rerun status
	if code := call("POST", "/v1/jobs", smallJob, &rerun); code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", code)
	}
	cached := waitFor(rerun.ID, "done", false)
	if cached.Progress.Evaluated != 0 || cached.Progress.StoreHits != 1 {
		t.Fatalf("rerun progress = %+v, want a pure store hit (0 evaluated)", cached.Progress)
	}
	var cachedRes result
	if code := call("GET", "/v1/jobs/"+rerun.ID+"/result", "", &cachedRes); code != http.StatusOK {
		t.Fatalf("cached result: %d", code)
	}
	if !cachedRes.Found || cachedRes.Best == nil || cachedRes.Best.SampleRate != res.Best.SampleRate {
		t.Fatalf("cached result diverges from the live run: %+v vs %+v", cachedRes, res)
	}

	// The store inspection endpoint agrees with what just happened: one
	// committed row (the small job), one hit (the rerun), backed by the
	// file we pointed -store at.
	var stStatus struct {
		Enabled bool   `json:"enabled"`
		Path    string `json:"path"`
		Rows    int    `json:"rows"`
		Hits    int64  `json:"hits"`
		Misses  int64  `json:"misses"`
		Appends int64  `json:"appends"`
	}
	if code := call("GET", "/v1/store", "", &stStatus); code != http.StatusOK {
		t.Fatalf("store status: %d", code)
	}
	if !stStatus.Enabled || stStatus.Path != storePath {
		t.Fatalf("store status = %+v, want enabled at %s", stStatus, storePath)
	}
	if stStatus.Rows != 1 || stStatus.Hits != 1 || stStatus.Misses != 1 || stStatus.Appends != 1 {
		t.Fatalf("store status after cached rerun = %+v, want 1 row / 1 hit / 1 miss / 1 append", stStatus)
	}

	// A serving co-design job with disaggregation in the space: the result
	// must carry an SLO-feasible frontier that actually exercises the
	// prefill/decode pool split, and a resubmit must come straight from the
	// store, bit-identical.
	var srv status
	if code := call("POST", "/v1/jobs", servingJob, &srv); code != http.StatusAccepted {
		t.Fatalf("submit serving: %d", code)
	}
	waitFor(srv.ID, "done", true)
	var srvRes result
	if code := call("GET", "/v1/jobs/"+srv.ID+"/result", "", &srvRes); code != http.StatusOK {
		t.Fatalf("serving result: %d", code)
	}
	if !srvRes.Found || srvRes.Serving == nil || srvRes.Serving.Best == nil ||
		srvRes.Serving.Best.CostPerMToken <= 0 {
		t.Fatalf("serving result carries no best deployment: %+v", srvRes)
	}
	disaggregated := 0
	for _, d := range srvRes.Serving.Frontier {
		if d.Disaggregated {
			if d.PrefillReplicas < 1 {
				t.Fatalf("disaggregated frontier point without a prefill pool: %+v", d)
			}
			disaggregated++
		}
	}
	if disaggregated == 0 {
		t.Fatalf("no disaggregated deployment on the frontier: %+v", srvRes.Serving.Frontier)
	}
	var srvRerun status
	if code := call("POST", "/v1/jobs", servingJob, &srvRerun); code != http.StatusAccepted {
		t.Fatalf("resubmit serving: %d", code)
	}
	srvCached := waitFor(srvRerun.ID, "done", false)
	if srvCached.Progress.Evaluated != 0 || srvCached.Progress.StoreHits != 1 {
		t.Fatalf("serving rerun progress = %+v, want a pure store hit", srvCached.Progress)
	}
	var srvCachedRes result
	if code := call("GET", "/v1/jobs/"+srvRerun.ID+"/result", "", &srvCachedRes); code != http.StatusOK {
		t.Fatalf("cached serving result: %d", code)
	}
	if srvCachedRes.Serving == nil || srvCachedRes.Serving.Best == nil ||
		srvCachedRes.Serving.Best.CostPerMToken != srvRes.Serving.Best.CostPerMToken ||
		len(srvCachedRes.Serving.Frontier) != len(srvRes.Serving.Frontier) {
		t.Fatalf("cached serving result diverges from the live run: %+v vs %+v", srvCachedRes, srvRes)
	}

	// Submit a ~10M-strategy job, catch it mid-flight, cancel it.
	var big status
	if code := call("POST", "/v1/jobs", bigJob, &big); code != http.StatusAccepted {
		t.Fatalf("submit big: %d", code)
	}
	waitFor(big.ID, "running", true)
	if code := call("DELETE", "/v1/jobs/"+big.ID, "", nil); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	cancelled := waitFor(big.ID, "cancelled", false)
	if cancelled.Progress.Total > 0 && cancelled.Progress.Evaluated >= cancelled.Progress.Total {
		t.Fatalf("cancelled job ran to completion: %+v", cancelled.Progress)
	}

	// Metrics reflect the lifecycle.
	metricsReq, _ := http.NewRequest("GET", base+"/metrics", nil)
	metricsResp, err := client.Do(metricsReq)
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	for _, want := range []string{
		"calculond_jobs_done_total 4",
		"calculond_jobs_cancelled_total 1",
		"calculond_jobs_serving_total 2",
		"calculond_workers_total 4",
		"calculond_searches_from_store_total 2",
		"calculond_store_rows 2",
		"calculond_store_hits_total 2",
		// Three misses by scrape time: the live small job, the live serving
		// job, and the (cancelled, never stored) big job each looked up once;
		// both reruns were hits.
		"calculond_store_misses_total 3",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}

	// SIGTERM with a job running: the daemon must drain (cancelling the
	// job) and exit 0 within the drain window — a hung or leaked process
	// fails here.
	var last status
	if code := call("POST", "/v1/jobs", bigJob, &last); code != http.StatusAccepted {
		t.Fatalf("submit pre-drain: %d", code)
	}
	waitFor(last.ID, "running", true)
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- daemon.Wait() }()
	select {
	case err := <-waited:
		exited = true
		if err != nil {
			t.Fatalf("drain exited nonzero: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(40 * time.Second):
		t.Fatalf("daemon still alive 40s after SIGTERM (leaked process)\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("stderr missing drain confirmation:\n%s", stderr.String())
	}

	// The drain flushed the store: reopening it must find whole committed
	// rows only — no truncated tail, nothing recovered, nothing stale. The
	// small job and the serving job contribute a row each; the pre-drain big
	// job contributes a third only if it finished inside the drain window
	// (the DELETE-cancelled job never stores), so the count is 2 or 3.
	st, err := resultstore.Open(storePath)
	if err != nil {
		t.Fatalf("reopening the store after drain: %v", err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.Rows < 2 || stats.Rows > 3 || stats.Loaded != stats.Rows ||
		stats.RecoveredBytes != 0 || stats.Stale != 0 {
		t.Errorf("post-drain store stats = %+v, want 2-3 whole rows and a clean tail", stats)
	}
	fmt.Println("e2e lifecycle complete: submit, poll, result, serving job, cached reruns, cancel, drain")
}
