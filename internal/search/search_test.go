package search

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

func smallSearch(t *testing.T, workers int) Result {
	t.Helper()
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64)
	res, err := Execution(context.Background(), m, sys, Options{
		Enum:    execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2},
		Workers: workers,
		TopK:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExecutionFindsFeasibleBest(t *testing.T) {
	res := smallSearch(t, 4)
	if !res.Found() {
		t.Fatal("no feasible configuration found")
	}
	if res.Feasible > res.Evaluated {
		t.Fatalf("feasible %d > evaluated %d", res.Feasible, res.Evaluated)
	}
	if res.Best.SampleRate <= 0 {
		t.Fatal("best has no sample rate")
	}
	if res.Best.Strategy.Procs() != 64 {
		t.Fatalf("best uses %d procs, want 64", res.Best.Strategy.Procs())
	}
}

// TestDeterministicAcrossWorkerCounts is the core parallel-search invariant:
// the same best configuration regardless of pool size.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	r1 := smallSearch(t, 1)
	r8 := smallSearch(t, 8)
	if r1.Best.Strategy != r8.Best.Strategy {
		t.Errorf("best differs across worker counts:\n1: %v\n8: %v", r1.Best.Strategy, r8.Best.Strategy)
	}
	if r1.Evaluated != r8.Evaluated || r1.Feasible != r8.Feasible {
		t.Errorf("counts differ: (%d,%d) vs (%d,%d)", r1.Evaluated, r1.Feasible, r8.Evaluated, r8.Feasible)
	}
	if len(r1.Top) != len(r8.Top) {
		t.Fatalf("top-k sizes differ: %d vs %d", len(r1.Top), len(r8.Top))
	}
	for i := range r1.Top {
		if r1.Top[i].Strategy != r8.Top[i].Strategy {
			t.Errorf("top[%d] differs: %v vs %v", i, r1.Top[i].Strategy, r8.Top[i].Strategy)
		}
	}
}

func TestTopKSortedAndBestFirst(t *testing.T) {
	res := smallSearch(t, 4)
	if len(res.Top) == 0 || len(res.Top) > 10 {
		t.Fatalf("top-k size %d", len(res.Top))
	}
	if res.Top[0].Strategy != res.Best.Strategy {
		t.Error("top[0] must be the best")
	}
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].SampleRate > res.Top[i-1].SampleRate {
			t.Errorf("top-k not sorted at %d", i)
		}
	}
}

func TestBestIsTrulyBestWithRates(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(16)
	res, err := Execution(context.Background(), m, sys, Options{
		Enum:         execution.EnumOptions{Procs: 16, Features: execution.FeatureBaseline, MaxInterleave: 2},
		CollectRates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rates) != res.Feasible {
		t.Fatalf("rates %d != feasible %d", len(res.Rates), res.Feasible)
	}
	for _, r := range res.Rates {
		if r > res.Best.SampleRate+1e-9 {
			t.Fatalf("found rate %f above best %f", r, res.Best.SampleRate)
		}
	}
}

func TestExecutionInfeasibleEverywhere(t *testing.T) {
	// Megatron-1T on 2 A100s: nothing can fit.
	m := model.MustPreset("megatron-1T").WithBatch(2)
	sys := system.A100(2)
	res, err := Execution(context.Background(), m, sys, Options{Enum: execution.EnumOptions{Procs: 2, MaxInterleave: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() || res.Feasible != 0 {
		t.Fatalf("expected nothing feasible, got %d", res.Feasible)
	}
	if res.Evaluated == 0 {
		t.Fatal("strategies must still be evaluated")
	}
}

func TestExecutionRejectsBadInputs(t *testing.T) {
	sys := system.A100(8)
	if _, err := Execution(context.Background(), model.LLM{}, sys, Options{}); err == nil {
		t.Error("bad model must error")
	}
	if _, err := Execution(context.Background(), model.MustPreset("gpt3-13B"), system.System{}, Options{}); err == nil {
		t.Error("bad system must error")
	}
	if _, err := Execution(context.Background(), model.MustPreset("gpt3-13B").WithBatch(8), sys, Options{TopK: -1}); err == nil {
		t.Error("negative top-k must error")
	}
}

func TestSystemSizeSweep(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sizes := Sizes(16, 64) // 16, 32, 48, 64
	pts, err := SystemSize(context.Background(), m, func(n int) system.System { return system.A100(n) }, sizes, Options{
		Enum: execution.EnumOptions{Features: execution.FeatureSeqPar, MaxInterleave: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.Procs != sizes[i] {
			t.Errorf("point %d procs %d want %d", i, p.Procs, sizes[i])
		}
		if !p.Found {
			t.Errorf("13B should fit at %d GPUs", p.Procs)
		}
	}
	// The scaling envelope: more GPUs should never reduce best sample rate
	// by more than cliff noise; at least the largest should beat the
	// smallest for this well-divisible model.
	if !(pts[3].Best.SampleRate > pts[0].Best.SampleRate) {
		t.Errorf("64 GPUs (%f) should outperform 16 (%f)",
			pts[3].Best.SampleRate, pts[0].Best.SampleRate)
	}
}

// TestSystemSizeErrorIsLowestIndex pins the sweep's error to the first
// failing size in input order, however the sizes are scheduled.
func TestSystemSizeErrorIsLowestIndex(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(8)
	sysAt := func(n int) system.System { return system.A100(n) }
	opts := Options{Enum: execution.EnumOptions{Features: execution.FeatureBaseline}}
	_, err := Execution(context.Background(), m, sysAt(0), opts)
	if err == nil {
		t.Fatal("a zero-processor system must not validate")
	}
	want := "size 0: " + err.Error()
	for _, workers := range []int{1, 3} {
		opts.Workers = workers
		for rep := 0; rep < 5; rep++ {
			pts, err := SystemSize(context.Background(), m, sysAt, []int{8, 0, -8, -16}, opts)
			if err == nil || err.Error() != want {
				t.Fatalf("workers %d: sweep error %v, want %s", workers, err, want)
			}
			if pts != nil {
				t.Fatalf("workers %d: a failed sweep returned %d points", workers, len(pts))
			}
		}
	}
}

// TestSystemSizeSweepEquivalence extends the search equivalence guarantee
// to the sweep path: the cross-size shared memo, the subtree prune, and the
// worker-budget split must leave every scaling point bit-identical to a
// referenceSearch at that size, and to the same sweep on one worker.
func TestSystemSizeSweepEquivalence(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	sizes := Sizes(16, 48)
	sysAt := func(n int) system.System { return system.A100(n) }
	base := Options{
		Enum:   execution.EnumOptions{Features: execution.FeatureSeqPar, MaxInterleave: 2},
		TopK:   4,
		Pareto: true,
	}
	got, err := SystemSize(context.Background(), m, sysAt, sizes, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		o := base
		o.Enum.Procs = n
		ref := referenceSearch(t, m, sysAt(n), o)
		want := ScalingPoint{Procs: n, Best: ref.Best, Feasible: ref.Feasible, Found: ref.Found()}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%d procs: scaling point diverges from the reference search", n)
		}
	}
	o := base
	o.Workers = 1
	one, err := SystemSize(context.Background(), m, sysAt, sizes, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, got) {
		t.Error("one-worker sweep diverges from the default sweep")
	}
}

func TestSizesHelper(t *testing.T) {
	got := Sizes(8, 32)
	want := []int{8, 16, 24, 32}
	if len(got) != len(want) {
		t.Fatalf("Sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
	if Sizes(8, 4) != nil {
		t.Error("empty range must be nil")
	}
	// A step that does not advance gives no sizes rather than looping.
	for _, step := range []int{0, -8} {
		if got := Sizes(step, 64); got != nil {
			t.Errorf("Sizes(%d, 64) = %v, want nil", step, got)
		}
	}
}

func TestOffloadSearchUsesMem2(t *testing.T) {
	// With a big model on few GPUs, only offload strategies fit; the search
	// must find them when (and only when) the system has a second tier.
	m := model.MustPreset("megatron-1T").WithBatch(8)
	bare := system.A100(8)
	r1, err := Execution(context.Background(), m, bare, Options{Enum: execution.EnumOptions{Procs: 8, MaxInterleave: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Found() {
		t.Fatal("1T cannot fit on 8 bare A100s")
	}
	off := bare.WithMem2(system.DDR5(4 * units.TiB))
	r2, err := Execution(context.Background(), m, off, Options{Enum: execution.EnumOptions{Procs: 8, MaxInterleave: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Found() {
		t.Fatal("offload tier should make 1T trainable on 8 GPUs (§6: 'training of Megatron-1T ... on less than 256 GPUs')")
	}
	st := r2.Best.Strategy
	if !(st.WeightOffload || st.ActOffload || st.OptimOffload) {
		t.Errorf("best strategy should use offloading: %v", st)
	}
}

func TestHistogram(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h := NewHistogram(vals, 10)
	if h.Min != 0 || h.Max != 10 {
		t.Fatalf("range [%f,%f]", h.Min, h.Max)
	}
	if h.Total() != len(vals) {
		t.Fatalf("total %d", h.Total())
	}
	// max value lands in the last bin
	if h.Counts[9] != 2 { // 9 and 10
		t.Errorf("last bin = %d, want 2", h.Counts[9])
	}
	if NewHistogram(nil, 10).Total() != 0 {
		t.Error("empty histogram must be empty")
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		return NewHistogram(vals, 10).Total() == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("len %d", len(pts))
	}
	if pts[0].Value != 1 || pts[2].Value != 3 {
		t.Errorf("not sorted: %+v", pts)
	}
	if math.Abs(pts[2].Frac-1) > 1e-12 || math.Abs(pts[0].Frac-1.0/3) > 1e-12 {
		t.Errorf("fractions wrong: %+v", pts)
	}
	if CDF(nil) != nil {
		t.Error("empty CDF must be nil")
	}
}

func TestWithinFraction(t *testing.T) {
	vals := []float64{100, 95, 89, 50, 10}
	if got := WithinFraction(vals, 0.10); got != 2 {
		t.Errorf("within 10%% = %d, want 2", got)
	}
	if got := WithinFraction(vals, 0.5); got != 4 {
		t.Errorf("within 50%% = %d, want 4", got)
	}
	if WithinFraction(nil, 0.1) != 0 {
		t.Error("empty must be 0")
	}
}
