package search

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// bigOptions spans ~160k strategies (~0.5s of evaluation), so cancelling on
// first progress always lands mid-search with a wide margin.
func bigOptions() Options {
	return Options{
		Enum:    execution.EnumOptions{Procs: 64, Features: execution.FeatureAll, MaxInterleave: 2},
		Workers: 4,
	}
}

func bigSpace() (model.LLM, system.System) {
	return model.MustPreset("gpt3-13B").WithBatch(64), system.A100(64)
}

// cancellingContext cancels itself at the at-th call of Err, so a test
// cancels a search at a fixed point of its walk instead of racing it from
// another goroutine. A Pool worker calls Err once before each claim: an
// Execution worker before each work chunk, a sweep before each size.
type cancellingContext struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	calls  atomic.Int64
}

func cancelAt(at int64) *cancellingContext {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancellingContext{Context: ctx, cancel: cancel, at: at}
}

func (c *cancellingContext) Err() error {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

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

func TestExecutionCancelledMidSearch(t *testing.T) {
	m, sys := bigSpace()
	opts := bigOptions()
	var prog Progress
	opts.Progress = &prog

	baseline := runtime.NumGoroutine()
	// The search has 26 subtrees and 126 work chunks (microbatch rows), so
	// the 100th call of Err comes after 99 chunk claims, each of which the
	// worker evaluates whole, and the last 27 chunks are never claimed.
	ctx := cancelAt(100)
	defer ctx.cancel()

	start := time.Now()
	res, err := Execution(ctx, m, sys, opts)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap := prog.Snapshot()
	if snap.Total == 0 {
		t.Fatal("the search did not add its space size to the total")
	}
	if int64(res.Evaluated) >= snap.Total {
		t.Fatalf("search ran to completion (%d of %d) despite cancellation", res.Evaluated, snap.Total)
	}
	if res.Evaluated == 0 {
		t.Fatal("cancel fired after the first chunks were claimed, yet nothing was evaluated")
	}
	// Partial counters must be consistent between the Result and the
	// Progress attachment.
	if snap.Evaluated != int64(res.Evaluated) || snap.Feasible != int64(res.Feasible) {
		t.Fatalf("progress (%d, %d) disagrees with result (%d, %d)",
			snap.Evaluated, snap.Feasible, res.Evaluated, res.Feasible)
	}
	if res.Feasible > res.Evaluated {
		t.Fatalf("feasible %d > evaluated %d", res.Feasible, res.Evaluated)
	}
	// "Returns within one chunk": generous wall-clock bound for CI noise —
	// a full run takes ~0.5s locally, a chunk well under 10ms.
	if took > 2*time.Second {
		t.Fatalf("cancelled search took %v", took)
	}
	waitForGoroutines(t, baseline)
}

func TestExecutionPreCancelled(t *testing.T) {
	m, sys := bigSpace()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Execution(ctx, m, sys, bigOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A worker checks the context before each claim, so no work chunk is
	// claimed: not even a pruned subtree is counted.
	if res.Evaluated != 0 {
		t.Fatalf("pre-cancelled search still evaluated %d strategies", res.Evaluated)
	}
	waitForGoroutines(t, baseline)
}

// TestExecutionDeadline checks that a deadline surfaces as
// context.DeadlineExceeded. The deadline has passed before the search
// starts, so no search is fast enough to finish first;
// TestExecutionCancelledMidSearch covers cancellation while workers run.
func TestExecutionDeadline(t *testing.T) {
	m, sys := bigSpace()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Execution(ctx, m, sys, bigOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitForGoroutines(t, baseline)
}

func TestSystemSizeCancelled(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	baseline := runtime.NumGoroutine()
	var prog Progress
	opts := Options{
		Enum:  execution.EnumOptions{Features: execution.FeatureAll, MaxInterleave: 2},
		Watch: Watch{Progress: &prog},
	}
	// The whole sweep calls Err about 3,000 times; the 50th lands in its
	// first sizes.
	ctx := cancelAt(50)
	defer ctx.cancel()
	_, err := SystemSize(ctx, m, func(n int) system.System { return system.A100(n) },
		Sizes(16, 128), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, baseline)
}

func TestOnProgressTickerAndFinalSnapshot(t *testing.T) {
	m, sys := bigSpace()
	baseline := runtime.NumGoroutine()
	var calls atomic.Int64
	var last atomic.Int64
	opts := bigOptions()
	opts.ProgressInterval = time.Millisecond
	opts.OnProgress = func(s ProgressSnapshot) {
		calls.Add(1)
		last.Store(s.Evaluated)
	}
	res, err := Execution(context.Background(), m, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("OnProgress never fired")
	}
	// The final synchronous callback must carry the exact end counters.
	if last.Load() != int64(res.Evaluated) {
		t.Fatalf("final snapshot saw %d evaluated, result has %d", last.Load(), res.Evaluated)
	}
	waitForGoroutines(t, baseline)
}

func TestDeterministicWithCancellationMachinery(t *testing.T) {
	// Attaching Progress and a ticker must not perturb the search outcome.
	m, sys := bigSpace()
	plain, err := Execution(context.Background(), m, sys, Options{
		Enum:    execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	observed, err := Execution(context.Background(), m, sys, Options{
		Enum:    execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2},
		Workers: 8,
		Watch:   Watch{Progress: &prog, OnProgress: func(ProgressSnapshot) {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.Strategy != observed.Best.Strategy {
		t.Errorf("best differs with observability attached:\nplain: %v\nobserved: %v",
			plain.Best.Strategy, observed.Best.Strategy)
	}
	if plain.Evaluated != observed.Evaluated || plain.Feasible != observed.Feasible {
		t.Errorf("counts differ: (%d,%d) vs (%d,%d)",
			plain.Evaluated, plain.Feasible, observed.Evaluated, observed.Feasible)
	}
	if got := prog.Snapshot(); got.Evaluated != int64(observed.Evaluated) || got.Total != got.Evaluated {
		t.Errorf("progress snapshot (%d of %d) disagrees with result %d",
			got.Evaluated, got.Total, observed.Evaluated)
	}
}

func TestProgressSnapshotDerivedFields(t *testing.T) {
	var p Progress
	p.MarkStart()
	p.AddTotal(1000)
	p.AddCounts(Counts{Evaluated: 250, Feasible: 40})
	time.Sleep(10 * time.Millisecond)
	s := p.Snapshot()
	if s.Evaluated != 250 || s.Feasible != 40 || s.Total != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Elapsed <= 0 || s.Rate <= 0 {
		t.Fatalf("elapsed/rate not derived: %+v", s)
	}
	if s.ETA <= 0 {
		t.Fatalf("ETA missing with total known: %+v", s)
	}
	if str := s.String(); str == "" {
		t.Fatal("empty String()")
	}
	// Finished searches must not report an ETA.
	p.AddCounts(Counts{Evaluated: 750})
	if s := p.Snapshot(); s.ETA != 0 {
		t.Fatalf("ETA %v after completion", s.ETA)
	}
}
