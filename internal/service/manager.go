package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"calculon/internal/resultstore"
	"calculon/internal/search"
)

// ErrDraining reports a submit against a daemon that is shutting down.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// maxRetainedJobs bounds the job registry: once past it, the oldest
// terminal jobs are evicted at submit time so a daemon fielding jobs for
// weeks holds a window of recent history, not every job ever run.
const maxRetainedJobs = 1024

// Manager owns the job lifecycle: a bounded FIFO queue in front of one
// runner goroutine per job slot, a registry for status lookups, and the
// drain choreography. The fleet Progress aggregates every job's counters
// for /metrics.
type Manager struct {
	queue   *queue
	workers int // the global worker budget, the sum of the runners' shares
	slots   int // the number of runners: the running-job limit
	metrics *Metrics
	fleet   *search.Progress
	// store, when non-nil, is the shared persistent result store every job
	// consults before searching and feeds afterwards. Jobs only read and
	// append; the daemon owns open/flush/close around the manager's
	// lifecycle, so a drain settles every pending row before exit.
	store *resultstore.Store

	// intakeCtx gates the runners: cancelling it stops new jobs from
	// starting. hardCtx parents every job's run context: cancelling it stops
	// running searches within one work chunk.
	intakeCtx    context.Context
	intakeCancel context.CancelFunc
	hardCtx      context.Context
	hardCancel   context.CancelFunc

	draining sync.Once
	wg       sync.WaitGroup // the runners

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
}

// NewManager starts a manager with the given worker budget (0 or less
// means GOMAXPROCS) cut into at most maxRunning concurrent jobs, and a
// queue of queueDepth waiting ones. Its runners run until Drain.
func NewManager(workers, maxRunning, queueDepth int) *Manager {
	shares := workerShares(workers, maxRunning)
	m := &Manager{
		queue:   newQueue(queueDepth),
		slots:   len(shares),
		metrics: &Metrics{},
		fleet:   &search.Progress{},
		jobs:    make(map[string]*Job),
	}
	m.intakeCtx, m.intakeCancel = context.WithCancel(context.Background())
	m.hardCtx, m.hardCancel = context.WithCancel(context.Background())
	for _, share := range shares {
		m.workers += share
		m.wg.Add(1)
		go m.runner(share)
	}
	return m
}

// workerShares cuts a budget of total workers (0 or less means GOMAXPROCS)
// into one share per job slot: total/slots each, the first total%slots
// slots one more. The slot count is clamped to [1, total], so every share
// carries at least one worker (a zero-worker share would fall through to
// GOMAXPROCS inside the search) and the shares sum to exactly total. Each
// runner keeps its share for life, so however many jobs run at once their
// workers never sum past the budget.
func workerShares(total, slots int) []int {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	slots = min(max(slots, 1), total)
	shares := make([]int, slots)
	for i := range shares {
		shares[i] = total / slots
		if i < total%slots {
			shares[i]++
		}
	}
	return shares
}

// Metrics exposes the lifecycle counters.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// FleetSnapshot is the aggregate strategy-counter view across all jobs.
func (m *Manager) FleetSnapshot() search.ProgressSnapshot { return m.fleet.Snapshot() }

// Submit validates the spec, registers the job, and queues it. It returns
// the job's status as snapshotted at registration, before a runner can see
// the job, so the snapshot always says queued however fast the job
// starts. The error distinguishes bad specs (client's fault) from a full
// queue or a draining daemon (server's state); the HTTP layer maps them to
// 400/503.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	prep, err := spec.prepare()
	if err != nil {
		return JobStatus{}, err
	}
	if m.intakeCtx.Err() != nil {
		m.metrics.rejected.Add(1)
		return JobStatus{}, ErrDraining
	}
	m.mu.Lock()
	m.seq++
	job := newJob(fmt.Sprintf("job-%06d", m.seq), prep)
	job.prog.MirrorTo(m.fleet)
	m.jobs[job.ID] = job
	m.evictLocked()
	queued := job.Status()
	m.mu.Unlock()
	if err := m.queue.Push(job); err != nil {
		m.mu.Lock()
		delete(m.jobs, job.ID)
		m.mu.Unlock()
		m.metrics.rejected.Add(1)
		return JobStatus{}, err
	}
	m.metrics.submitted.Add(1)
	m.metrics.queued.Add(1)
	if spec.Serving != nil {
		m.metrics.servingJobs.Add(1)
	}
	return queued, nil
}

// Job looks up a registered job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every registered job, oldest first.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel cancels the job with the given ID.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Job(id)
	if !ok {
		return nil, false
	}
	m.cancel(j)
	return j, true
}

// cancel cancels the job, settling the queue gauge when it was still
// queued (a running job settles when its runner unwinds).
func (m *Manager) cancel(j *Job) {
	if changed, wasQueued := j.Cancel(); changed && wasQueued {
		m.metrics.queued.Add(-1)
		m.metrics.cancelled.Add(1)
	}
}

// evictLocked drops the oldest terminal jobs once the registry exceeds the
// retention bound. Caller holds mu.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= maxRetainedJobs {
		return
	}
	var terminal []*Job
	for _, j := range m.jobs {
		if j.State().Terminal() {
			terminal = append(terminal, j)
		}
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].ID < terminal[k].ID })
	for _, j := range terminal {
		if len(m.jobs) <= maxRetainedJobs {
			break
		}
		delete(m.jobs, j.ID)
	}
}

// runner is one job slot: it pops the oldest queued job and runs it on its
// share of the worker budget, one job at a time, until Drain. A job
// cancelled while queued is skipped by runJob; a job popped after Drain
// began is cancelled, not started.
func (m *Manager) runner(workers int) {
	defer m.wg.Done()
	for {
		job, err := m.queue.Pop(m.intakeCtx)
		if err != nil {
			return
		}
		if m.intakeCtx.Err() != nil {
			m.cancel(job)
			return
		}
		m.runJob(job, workers)
	}
}

// jobContext, when set, wraps the context each job's search runs under.
// Only the package's tests set it, to hold jobs mid-search.
var jobContext func(context.Context) context.Context

// runJob executes one job under the drain-cancellable context, with the
// job's own cancel (DELETE) and optional timeout layered on top.
func (m *Manager) runJob(job *Job, workers int) {
	ctx, cancel := context.WithCancel(m.hardCtx)
	defer cancel()
	if !job.tryStart(cancel, workers) {
		return // cancelled while queued; gauges settled by cancel
	}
	m.metrics.queued.Add(-1)
	m.metrics.running.Add(1)
	if job.prep.timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, job.prep.timeout)
		defer cancelTimeout()
	}
	if jobContext != nil {
		ctx = jobContext(ctx)
	}
	store := m.store
	if job.prep.disableStore {
		store = nil
	}
	res, err := job.prep.run(ctx, workers, job.prog, store)
	state := StateDone
	switch {
	case errors.Is(err, context.Canceled):
		state, err = StateCancelled, nil
	case err != nil:
		state = StateFailed
	}
	// The gauges settle before the job turns terminal, so a client that
	// sees the job finished reads them settled too.
	m.metrics.running.Add(-1)
	switch state {
	case StateDone:
		m.metrics.done.Add(1)
	case StateFailed:
		m.metrics.failed.Add(1)
	case StateCancelled:
		m.metrics.cancelled.Add(1)
	}
	job.finish(state, &res, err)
}

// Drain shuts the manager down: no new jobs start, queued jobs are
// cancelled, and running jobs get until ctx's deadline to finish before
// their contexts are cancelled. Drain returns once every runner has
// unwound — the no-leak guarantee the daemon's exit code stands on. It is
// idempotent; later calls wait for the first to finish.
func (m *Manager) Drain(ctx context.Context) {
	m.draining.Do(func() {
		m.intakeCancel()
		for {
			job, ok := m.queue.TryPop()
			if !ok {
				break
			}
			m.cancel(job)
		}
	})
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.hardCancel()
		<-done
	}
	m.hardCancel() // release the context even on the graceful path
}
