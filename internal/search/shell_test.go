package search

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunStorePolicy pins the shell's store policy: a hit is served whole
// and leaves only StoreHits = 1 on the counters; a miss adds its size to
// the total, runs, and stores a clean finish; a failed or cancelled run is
// never stored.
func TestRunStorePolicy(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		hit    bool
		err    error
		stores int
	}{
		{name: "hit", ctx: context.Background(), hit: true},
		{name: "miss", ctx: context.Background(), stores: 1},
		{name: "failed", ctx: context.Background(), err: errors.New("boom")},
		{name: "cancelled", ctx: cancelled},
	} {
		var prog Progress
		stores, runs := 0, 0
		st := Stored[int]{
			Lookup: func() (int, bool) { return 7, tc.hit },
			Store:  func(int) { stores++ },
		}
		res, err := Run(tc.ctx, Watch{Progress: &prog}, st, func() int { return 100 },
			func(p *Progress) (int, error) {
				runs++
				p.AddCounts(Counts{Evaluated: 100})
				return 42, tc.err
			})
		if stores != tc.stores {
			t.Errorf("%s: stored %d times, want %d", tc.name, stores, tc.stores)
		}
		s := prog.Snapshot()
		if tc.hit {
			if res != 7 || err != nil || runs != 0 {
				t.Errorf("hit: (%d, %v) after %d runs, want the stored 7 and no run", res, err, runs)
			}
			if s.StoreHits != 1 || s.Evaluated != 0 || s.Total != 0 {
				t.Errorf("hit: progress %+v, want 1 store hit and nothing else", s)
			}
			continue
		}
		if res != 42 || !errors.Is(err, tc.err) || runs != 1 {
			t.Errorf("%s: (%d, %v) after %d runs, want the run's own result", tc.name, res, err, runs)
		}
		if s.StoreHits != 0 || s.Evaluated != 100 || s.Total != 100 {
			t.Errorf("%s: progress %+v, want the run's counts and its size as the total", tc.name, s)
		}
	}
}

// TestPoolWorkers: a job learns its worker's index, in [0, workers), every
// index is claimed once, and the calling goroutine is worker 0, so a
// one-worker pool starts no goroutine.
func TestPoolWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_ = Pool(context.Background(), 1, 10, func(w, i int) error {
		if n := runtime.NumGoroutine(); w != 0 || n != baseline {
			t.Errorf("one-worker pool: job %d on worker %d with %d goroutines, want worker 0 and %d", i, w, n, baseline)
		}
		return nil
	})
	var perWorker [3]atomic.Int64
	var claimed [300]atomic.Int64
	_ = Pool(context.Background(), len(perWorker), len(claimed), func(w, i int) error {
		perWorker[w].Add(1)
		claimed[i].Add(1)
		return nil
	})
	total := int64(0)
	for w := range perWorker {
		total += perWorker[w].Load()
	}
	for i := range claimed {
		if c := claimed[i].Load(); c != 1 {
			t.Fatalf("index %d claimed %d times", i, c)
		}
	}
	if total != int64(len(claimed)) {
		t.Fatalf("workers ran %d jobs, want %d", total, len(claimed))
	}
}
