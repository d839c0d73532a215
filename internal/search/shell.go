package search

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Watch is how a caller observes a search. search.Options and
// serving.Options embed it.
type Watch struct {
	// Progress, when non-nil, receives live counter updates the caller can
	// Snapshot from any goroutine while the search runs. The same Progress
	// may be shared across searches to aggregate a sweep. A search adds its
	// closed-form space size to it, so snapshots carry an ETA.
	Progress *Progress
	// OnProgress, when non-nil, is invoked about every ProgressInterval from
	// a dedicated goroutine while the search runs, and once more,
	// synchronously, just before the search returns — so the final callback
	// always carries the exact end-of-search counters (or the partial
	// counters of a cancelled run). The callback must be safe to call from
	// another goroutine.
	OnProgress func(ProgressSnapshot)
	// ProgressInterval is the OnProgress cadence; 0 means one second.
	ProgressInterval time.Duration
}

// Start begins a search's observation. It returns the Progress the search
// flushes into — the caller's, or a fresh one when only OnProgress is set,
// nil when neither is — marked started, and starts the OnProgress ticker.
// The returned finish must be called once the search is done: it stops the
// ticker and then delivers exactly one final, synchronous snapshot, so the
// last callback carries the end-of-search counters (or a cancelled run's
// partial ones).
func (w Watch) Start(ctx context.Context) (*Progress, func()) {
	prog := w.Progress
	if prog == nil && w.OnProgress != nil {
		prog = &Progress{}
	}
	if prog != nil {
		prog.MarkStart()
	}
	if w.OnProgress == nil {
		return prog, func() {}
	}
	return prog, tick(ctx, prog, w.OnProgress, w.ProgressInterval)
}

// tick calls cb with a snapshot of p about every interval (one second when
// unset) until ctx is done or the returned finish is called; finish stops
// the ticker, waits for its goroutine to exit, and calls cb once more.
func tick(ctx context.Context, p *Progress, cb func(ProgressSnapshot), interval time.Duration) (finish func()) {
	if interval <= 0 {
		interval = time.Second
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				cb(p.Snapshot())
			case <-ctx.Done():
				return
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		cb(p.Snapshot())
	}
}

// Stored is a search's store policy: Lookup and Store reach a persistent
// store under the search's identity, which the caller derives after
// normalizing its inputs so every spelling of one search shares a key. The
// zero Stored bypasses the store.
type Stored[R any] struct {
	Lookup func() (R, bool)
	Store  func(R)
}

// Consult looks the search up. A hit is the whole verdict; the only trace
// it leaves on prog is StoreHits = 1, since counting work this process
// never did would corrupt throughput and ETA accounting.
func (s Stored[R]) Consult(prog *Progress) (R, bool) {
	if s.Lookup == nil {
		var zero R
		return zero, false
	}
	res, ok := s.Lookup()
	if ok && prog != nil {
		prog.storeHit()
	}
	return res, ok
}

// Keep stores a finished search's result. A failed or cancelled search is
// never stored: its counters and fronts cover an unpredictable prefix of
// the space.
func (s Stored[R]) Keep(ctx context.Context, res R, err error) {
	if s.Store != nil && err == nil && ctx.Err() == nil {
		s.Store(res)
	}
}

// Run is the lifecycle of one execution search, whole or sharded: observation
// starts (Watch.Start), the store is consulted, and on a miss the expected
// total — size, called only when someone observes — is added to the
// Progress, run evaluates, and its result is stored when it finished
// cleanly. run receives the Progress to flush its counters into (nil when
// nobody observes).
func Run[R any](ctx context.Context, w Watch, st Stored[R], size func() int, run func(prog *Progress) (R, error)) (R, error) {
	prog, finish := w.Start(ctx)
	defer finish()
	if res, ok := st.Consult(prog); ok {
		return res, nil
	}
	if prog != nil {
		prog.AddTotal(int64(size()))
	}
	res, err := run(prog)
	st.Keep(ctx, res, err)
	return res, err
}

// Pool calls job(w, i) for every i in [0, n) on up to workers workers
// (GOMAXPROCS when workers ≤ 0), w being the calling worker's index, and
// returns once all are done. The calling goroutine is worker 0, so a
// one-worker pool starts no goroutine. Indices are claimed in increasing
// order from one cursor, and claiming stops once ctx is done. The error
// returned is that of the lowest index that failed, whatever the scheduling.
func Pool(ctx context.Context, workers, n int, job func(w, i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	failed, firstErr := n, error(nil)
	work := func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := job(w, i); err != nil {
				mu.Lock()
				if i < failed {
					failed, firstErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(poolSize(workers), n); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work(w) }()
	}
	work(0)
	wg.Wait()
	return firstErr
}

// poolSize is a worker budget: workers, or GOMAXPROCS when it is not
// positive.
func poolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}
