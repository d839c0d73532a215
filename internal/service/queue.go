package service

import (
	"context"
	"errors"
)

// ErrQueueFull reports a submit against a queue at capacity. The server maps
// it to 503 so clients back off instead of piling work the daemon has
// already promised it cannot start soon.
var ErrQueueFull = errors.New("service: job queue full")

// queue is a bounded FIFO of accepted-but-not-yet-running jobs. A buffered
// channel is the whole implementation: sends preserve submission order,
// capacity is the bound, and Pop's receive parks an idle runner until work
// or cancellation arrives. Cancelled jobs stay in the queue (a channel
// cannot remove from the middle); the runners discard them at Pop time, which
// keeps cancellation O(1) and the queue free of locks.
type queue struct {
	ch chan *Job
}

func newQueue(depth int) *queue {
	if depth < 1 {
		depth = 1
	}
	return &queue{ch: make(chan *Job, depth)}
}

// Push appends the job, or returns ErrQueueFull without blocking.
func (q *queue) Push(j *Job) error {
	select {
	case q.ch <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Pop removes the oldest job, blocking until one is available or the context
// is cancelled.
func (q *queue) Pop(ctx context.Context) (*Job, error) {
	select {
	case j := <-q.ch:
		return j, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryPop removes the oldest job if one is queued; the drain path uses it to
// empty the queue without blocking.
func (q *queue) TryPop() (*Job, bool) {
	select {
	case j := <-q.ch:
		return j, true
	default:
		return nil, false
	}
}

// Len is the number of queued jobs (including any cancelled-but-unpopped
// ones awaiting discard).
func (q *queue) Len() int { return len(q.ch) }
