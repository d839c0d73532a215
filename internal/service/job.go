package service

import (
	"context"
	"sync"
	"time"

	"calculon/internal/search"
)

// State is a job's position in its lifecycle.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Job is one submitted search. The spec is resolved at submit time; prog is
// the job's own Progress (mirrored into the daemon's fleet aggregate), read
// lock-free by status handlers while the search runs. Everything else is
// guarded by mu.
type Job struct {
	ID string

	prep    prepared
	prog    *search.Progress
	created time.Time

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	workers  int
	cancel   context.CancelFunc // set while running
	result   *JobResult         // set in terminal states when the search ran
	err      error

	// done closes on entry to a terminal state; result long-polls and the
	// drain path wait on it.
	done chan struct{}
}

func newJob(id string, prep prepared) *Job {
	j := &Job{
		ID:      id,
		prep:    prep,
		prog:    &search.Progress{},
		created: time.Now(),
		state:   StateQueued,
		done:    make(chan struct{}),
	}
	return j
}

// tryStart moves queued→running, recording the cancel hook and worker
// share. It fails when the job was cancelled while queued.
func (j *Job) tryStart(cancel context.CancelFunc, workers int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.workers = workers
	return true
}

// finish records a running job's terminal state and the search's result.
// Only the job's runner calls it, once: Cancel leaves a running job
// running until its search unwinds.
func (j *Job) finish(state State, res *JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.finished = time.Now()
	j.result = res
	j.err = err
	j.cancel = nil
	close(j.done)
}

// Cancel requests cancellation. A queued job goes terminal immediately; a
// running job has its context cancelled and goes terminal when the search
// unwinds (within one work chunk). Terminal jobs are untouched. The return
// reports whether this call changed anything — the queued case also reports
// queued=true so the caller can settle the queue gauge.
func (j *Job) Cancel() (changed, queued bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.finished = time.Now()
		close(j.done)
		return true, true
	case StateRunning:
		j.cancel()
		return true, false
	}
	return false, false
}

// Done exposes the terminal-state signal for waiters.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the API: lifecycle fields under the lock,
// live counters from the lock-free Progress.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	state, started, finished, workers, err := j.state, j.started, j.finished, j.workers, j.err
	j.mu.Unlock()
	s := JobStatus{
		ID:       j.ID,
		State:    state,
		Created:  j.created,
		Workers:  workers,
		Progress: progressStatus(j.prog.Snapshot()),
	}
	if !started.IsZero() {
		s.Started = &started
	}
	if !finished.IsZero() {
		s.Finished = &finished
	}
	if err != nil {
		s.Error = err.Error()
	}
	return s
}

// Snapshot returns the terminal result, if any: ok is false while the job
// has not finished, and res is nil for a job cancelled while queued.
// Cancelled and timed-out jobs may still carry a partial result (counters
// up to the cancellation point).
func (j *Job) Snapshot() (res *JobResult, state State, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, j.state, nil, false
	}
	return j.result, j.state, j.err, true
}
