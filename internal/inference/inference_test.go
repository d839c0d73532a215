package inference

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

func serving(tp, pp int) execution.Strategy {
	return execution.Strategy{
		TP: tp, PP: pp, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeNone, TPRSAG: true,
	}
}

func estimate(t *testing.T, m model.LLM, sys system.System, st execution.Strategy, w Workload) Result {
	t.Helper()
	r, err := Estimate(m, sys, st, w)
	if err != nil {
		t.Fatalf("Estimate(%v, %+v): %v", st, w, err)
	}
	return r
}

func TestBasicServingEstimate(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	sys := system.A100(8)
	r := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 512, GenLen: 128, Batch: 4})
	if r.PrefillTime <= 0 || r.StepTime <= 0 || r.TokensPerSec <= 0 {
		t.Fatalf("implausible estimate: %+v", r)
	}
	if r.TotalTime < r.PrefillTime {
		t.Fatal("total must include prefill")
	}
	if r.Mem1Used > sys.Mem1.Capacity {
		t.Fatal("reported usage exceeds capacity without error")
	}
}

// TestDecodeIsBandwidthBoundAtSmallBatch pins the defining property of
// autoregressive decoding: at batch 1 the step streams all weights and is
// bandwidth-bound; at large batch the GEMMs become compute-bound.
func TestDecodeIsBandwidthBoundAtSmallBatch(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	sys := system.A100(8).WithMem1Capacity(units.TiB)
	small := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 128, GenLen: 32, Batch: 1})
	if !small.DecodeBandwidthBound {
		t.Error("batch-1 decode must be bandwidth-bound")
	}
	big := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 128, GenLen: 32, Batch: 512})
	if big.DecodeBandwidthBound {
		t.Error("batch-512 decode should be compute-bound")
	}
	// Lower bound: a bandwidth-bound step cannot beat weights/bandwidth.
	minStep := small.WeightBytes.Div(sys.Mem1.Bandwidth)
	if small.StepTime < minStep {
		t.Errorf("step %v beats the weight-streaming bound %v", small.StepTime, minStep)
	}
}

// TestBatchingAmortizesWeightStreaming: throughput grows strongly with
// batch in the bandwidth-bound regime while per-token latency barely moves.
func TestBatchingAmortizesWeightStreaming(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	sys := system.A100(8).WithMem1Capacity(units.TiB)
	b1 := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 128, GenLen: 32, Batch: 1})
	b16 := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 128, GenLen: 32, Batch: 16})
	if !(b16.TokensPerSec > 8*b1.TokensPerSec) {
		t.Errorf("batching 16× should lift throughput ≫8×: %f vs %f", b16.TokensPerSec, b1.TokensPerSec)
	}
	if b16.StepTime > 2*b1.StepTime {
		t.Errorf("latency should barely grow while bandwidth-bound: %v vs %v", b16.StepTime, b1.StepTime)
	}
}

func TestTPReducesLatency(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	sys := system.A100(8).WithMem1Capacity(units.TiB)
	t1 := estimate(t, m, sys, serving(1, 1), Workload{PromptLen: 128, GenLen: 32, Batch: 1})
	t8 := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 128, GenLen: 32, Batch: 1})
	if !(t8.StepTime < t1.StepTime) {
		t.Errorf("TP must reduce decode latency: %v vs %v", t8.StepTime, t1.StepTime)
	}
	if !(t8.WeightBytes < t1.WeightBytes) {
		t.Error("TP must shard weights")
	}
}

func TestPipelineTradesLatencyForMemory(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	sys := system.A100(32).WithMem1Capacity(units.TiB)
	p1 := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 128, GenLen: 32, Batch: 8})
	p4 := estimate(t, m, sys, serving(8, 4), Workload{PromptLen: 128, GenLen: 32, Batch: 8})
	if !(p4.WeightBytes < p1.WeightBytes) {
		t.Error("PP must cut per-GPU weights")
	}
	if !(p4.TokensPerSec > p1.TokensPerSec) {
		t.Error("PP should raise steady-state throughput (stages work concurrently)")
	}
	if !(p4.StepTime > p1.StepTime/4) {
		// sanity only: latency does not shrink with p the way throughput does
		t.Error("unexpected step latency")
	}
}

// TestKVCacheAccounting: the cache is 2·ctx·h·2B per block per sequence,
// sharded by TP — and it can dominate memory at long context.
func TestKVCacheAccounting(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	sys := system.A100(8).WithMem1Capacity(units.TiB)
	w := Workload{PromptLen: 1024, GenLen: 1024, Batch: 16}
	r := estimate(t, m, sys, serving(8, 1), w)
	ctx := w.PromptLen + w.GenLen
	want := units.Bytes(2*ctx*m.Hidden*2) / 8 * units.Bytes(w.Batch) * units.Bytes(m.Blocks)
	if r.KVCacheBytes != want {
		t.Errorf("KV cache = %v, want %v", r.KVCacheBytes, want)
	}
	short := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 128, GenLen: 64, Batch: 16})
	if !(r.KVCacheBytes > 5*short.KVCacheBytes) {
		t.Error("KV cache must grow with context")
	}
}

func TestKVCacheOverflowIsInfeasible(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	sys := system.A100(8) // 80 GiB
	// 512 concurrent 2k-context sequences: KV cache alone ≫ 80 GiB.
	_, err := Estimate(m, sys, serving(8, 1), Workload{PromptLen: 1024, GenLen: 1024, Batch: 512})
	if !errors.Is(err, perf.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestPrefillScalesWithPrompt(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	sys := system.A100(8).WithMem1Capacity(units.TiB)
	short := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 256, GenLen: 1, Batch: 4})
	long := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 2048, GenLen: 1, Batch: 4})
	if !(long.PrefillTime > 4*short.PrefillTime) {
		t.Errorf("8× prompt should cost ≫4× prefill: %v vs %v", long.PrefillTime, short.PrefillTime)
	}
}

func TestWorkloadValidate(t *testing.T) {
	bad := []Workload{
		{PromptLen: 0, GenLen: 1, Batch: 1},
		{PromptLen: 1, GenLen: -1, Batch: 1},
		{PromptLen: 1, GenLen: 1, Batch: 0},
	}
	for i, w := range bad {
		if _, err := Estimate(model.MustPreset("gpt3-13B"), system.A100(8), serving(8, 1), w); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestZeroGenLenIsPrefillOnly(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	sys := system.A100(8).WithMem1Capacity(units.TiB)
	r := estimate(t, m, sys, serving(8, 1), Workload{PromptLen: 512, GenLen: 0, Batch: 2})
	if r.TotalTime != r.PrefillTime {
		t.Errorf("gen-0 total %v should equal prefill %v", r.TotalTime, r.PrefillTime)
	}
}

// TestKVOffloadEnablesLongContext: a batch whose KV cache overflows HBM
// becomes servable with the cache in the second tier, at a latency cost.
func TestKVOffloadEnablesLongContext(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	bare := system.A100(8)
	w := Workload{PromptLen: 1024, GenLen: 1024, Batch: 512}
	if _, err := Estimate(m, bare, serving(8, 1), w); !errors.Is(err, perf.ErrInfeasible) {
		t.Fatalf("want infeasible without offload, got %v", err)
	}
	tiered := bare.WithMem2(system.DDR5(8 * units.TiB))
	w.KVOffload = true
	r, err := Estimate(m, tiered, serving(8, 1), w)
	if err != nil {
		t.Fatalf("KV offload should make the workload servable: %v", err)
	}
	if r.Mem1Used > bare.Mem1.Capacity {
		t.Errorf("HBM use %v must fit with the cache offloaded", r.Mem1Used)
	}
	// The latency cost: the same (smaller, HBM-feasible) workload runs
	// slower with the cache behind the 100 GB/s link.
	small := Workload{PromptLen: 1024, GenLen: 1024, Batch: 8}
	inHBM, err := Estimate(m, tiered, serving(8, 1), small)
	if err != nil {
		t.Fatal(err)
	}
	smallOff := small
	smallOff.KVOffload = true
	offloaded, err := Estimate(m, tiered, serving(8, 1), smallOff)
	if err != nil {
		t.Fatal(err)
	}
	if !(offloaded.StepTime > inHBM.StepTime) {
		t.Errorf("offloaded KV must cost step latency: %v vs %v", offloaded.StepTime, inHBM.StepTime)
	}
}

func TestKVOffloadRequiresMem2(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	w := Workload{PromptLen: 128, GenLen: 8, Batch: 1, KVOffload: true}
	if _, err := Estimate(m, system.A100(8), serving(8, 1), w); !errors.Is(err, perf.ErrInfeasible) {
		t.Fatalf("want infeasible, got %v", err)
	}
}

func TestKVOffloadCapacityChecked(t *testing.T) {
	m := model.MustPreset("gpt3-175B")
	tiny := system.A100(8).WithMem2(system.Memory{Capacity: units.GiB, Bandwidth: 100e9})
	w := Workload{PromptLen: 1024, GenLen: 1024, Batch: 64, KVOffload: true}
	if _, err := Estimate(m, tiny, serving(8, 1), w); !errors.Is(err, perf.ErrInfeasible) {
		t.Fatalf("want infeasible for 1 GiB tier, got %v", err)
	}
}

// TestPricerConcurrent prices one grid of engines and workloads on a shared
// Pricer from four goroutines at once, as a serving search's workers do:
// every answer must be the one-shot Estimate's, and every goroutine fills
// the memos it misses while the others read them (run it under -race).
func TestPricerConcurrent(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	sys := system.A100(64)
	type point struct {
		tp, pp int
		w      Workload
	}
	var grid []point
	for _, tp := range []int{1, 2, 4, 8} {
		for _, pp := range []int{1, 2, 4} {
			for _, prompt := range []int{128, 2048} {
				for _, batch := range []int{1, 16} {
					grid = append(grid, point{tp, pp, Workload{PromptLen: prompt, GenLen: 64, Batch: batch}})
				}
			}
		}
	}
	p := NewPricer(m, sys)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range grid {
				pt := grid[(i+g*len(grid)/4)%len(grid)]
				got, gotErr := p.Estimate(pt.tp*pt.pp, serving(pt.tp, pt.pp), pt.w)
				want, wantErr := Estimate(m, sys.WithProcs(pt.tp*pt.pp), serving(pt.tp, pt.pp), pt.w)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("t%d p%d %+v: shared Pricer gives %+v (%v), Estimate %+v (%v)",
						pt.tp, pt.pp, pt.w, got, gotErr, want, wantErr)
				}
			}
		}()
	}
	wg.Wait()
}
