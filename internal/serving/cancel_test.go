package serving

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calculon/internal/search"
)

// waitForGoroutines fails the test if the goroutine count does not settle
// back to the baseline — the leak check behind the cancellation contract.
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

// goroutineID reads the calling goroutine's number from its stack header,
// "goroutine 17 [running]:".
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// heldContext holds a search at the second call of its Err — with one
// worker, stage 1 claiming its second (tp, pp) pair — until the context is
// cancelled, so the first progress tick lands while stage 1 prices engines
// however fast the machine prices them.
type heldContext struct {
	context.Context
	calls atomic.Int64
}

func (c *heldContext) Err() error {
	if c.calls.Add(1) == 2 {
		<-c.Done()
	}
	return c.Context.Err()
}

// TestCancelDuringStageOne: cancelled by its first progress tick, while it
// prices engines, a search or a sweep returns context.Canceled and no
// points, composes nothing, leaves no goroutine behind, and ends with
// exactly one final OnProgress, delivered on the caller's goroutine after
// the ticker stopped.
func TestCancelDuringStageOne(t *testing.T) {
	spec := basicSpec()
	spec.System = spec.System.WithProcs(512)
	spec.Space = Space{Procs: 512, MaxBatch: 256, Disaggregate: true}
	for _, tc := range []struct {
		name string
		// run reports whether the result carries no points.
		run func(context.Context, Options) (bool, error)
		// composed reports whether the final counters show stage 2 ran.
		composed func(search.ProgressSnapshot) bool
	}{
		{
			name: "search",
			run: func(ctx context.Context, o Options) (bool, error) {
				res, err := Search(ctx, spec, o)
				return reflect.DeepEqual(res, Result{}), err
			},
			// Search counts engines as stage 1 prices them.
			composed: func(s search.ProgressSnapshot) bool { return s.Evaluated >= s.Total },
		},
		{
			name: "sweep",
			run: func(ctx context.Context, o Options) (bool, error) {
				out, err := Sweep(ctx, spec, []int{64, 128, 256, 512}, o)
				return out == nil, err
			},
			// Sweep counts every budget's engines once its fold is done.
			composed: func(s search.ProgressSnapshot) bool { return s.Evaluated > 0 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			base, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &heldContext{Context: base}
			caller := goroutineID()
			var mu sync.Mutex
			var calls int
			var onCaller []int // the numbers of the calls made on the caller's goroutine
			var last search.ProgressSnapshot
			var prog search.Progress
			opts := Options{
				Workers: 1,
				Watch: search.Watch{Progress: &prog, EstimateTotal: true, ProgressInterval: time.Millisecond,
					OnProgress: func(s search.ProgressSnapshot) {
						mu.Lock()
						defer mu.Unlock()
						calls++
						last = s
						if goroutineID() == caller {
							onCaller = append(onCaller, calls)
						}
						cancel()
					}},
			}
			empty, err := tc.run(ctx, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !empty {
				t.Error("a cancelled run returned points")
			}
			final := prog.Snapshot()
			if tc.composed(final) {
				t.Errorf("the cancel did not land in stage 1: %+v", final)
			}
			waitForGoroutines(t, baseline)
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			if len(onCaller) != 1 || onCaller[0] != calls || calls < 2 {
				t.Errorf("%d OnProgress calls, the caller's goroutine made calls %v: want ticks, then exactly one final call", calls, onCaller)
			}
			// The clock-derived fields move between the two snapshots.
			last.Elapsed, last.Rate, last.ETA = final.Elapsed, final.Rate, final.ETA
			if last != final {
				t.Errorf("last OnProgress snapshot %+v, want the final counters %+v", last, final)
			}
		})
	}
}
