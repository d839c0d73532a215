package serving

import (
	"context"
	"testing"

	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
)

// BenchmarkServingSearch measures the serving co-design search end to end
// on a mid-size model with the disaggregated mode on — the configuration a
// right-sizing study runs per budget point. The strategies/s metric counts
// engine configurations (the parallel evaluation unit), matching the
// Evaluated accounting, so it is comparable across pre-screen on/off runs.
func BenchmarkServingSearch(b *testing.B) {
	spec := Spec{
		Model:  model.MustPreset("gpt3-13B"),
		System: system.A100(32),
		Workload: Workload{
			Mix: []Bucket{
				{PromptLen: 512, GenLen: 128, Weight: 3},
				{PromptLen: 2048, GenLen: 256, Weight: 1},
			},
			SLO: SLO{TTFT: 30, TPOT: 1},
		},
		Space: Space{Procs: 32, MaxBatch: 32, Disaggregate: true},
	}
	var evaluated int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Search(context.Background(), spec, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Feasible == 0 {
			b.Fatal("benchmark search found nothing")
		}
		// Accumulate across iterations: the summed count is exact, where
		// extrapolating from one iteration over-reports under variance.
		evaluated += res.Evaluated
	}
	b.ReportMetric(float64(evaluated)/b.Elapsed().Seconds(), "strategies/s")
}

// BenchmarkServingSweep measures the right-sizing sweep end to end: a small
// disaggregated mix over eight budgets, which prices every engine once and
// folds every budget from the shared profiles. The strategies/s metric
// counts the engine configurations the per-budget results report (summed
// Evaluated), as BenchmarkServingSearch does, so it reads as the
// throughput a sweep of standalone searches would need to match.
func BenchmarkServingSweep(b *testing.B) {
	spec := Spec{
		Model:  model.MustPreset("gpt3-13B"),
		System: system.A100(64),
		Workload: Workload{
			Mix: []Bucket{
				{PromptLen: 512, GenLen: 128, Weight: 3},
				{PromptLen: 2048, GenLen: 256, Weight: 1},
				{PromptLen: 4096, GenLen: 64, Weight: 1},
			},
			SLO: SLO{TTFT: 30, TPOT: 1},
		},
		Space: Space{MaxBatch: 32, Disaggregate: true},
	}
	sizes := []int{8, 16, 24, 32, 40, 48, 56, 64}
	var evaluated int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := Sweep(context.Background(), spec, sizes, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			evaluated += p.Result.Evaluated
		}
		if pts[len(pts)-1].Result.Feasible == 0 {
			b.Fatal("benchmark sweep found nothing")
		}
	}
	b.ReportMetric(float64(evaluated)/b.Elapsed().Seconds(), "strategies/s")
}

// BenchmarkServingSweepWide is BenchmarkServingSweep at the shape of the
// end-to-end serve-sweep workload: GPT-3 175B on A100-80GB, a 3-bucket
// disaggregated mix, and 64 budgets from 8 to 512 processors. It has
// 7,311 SLO-feasible candidates at the top budget and 227,008 over the 64
// budgets summed, so the fold's share of the time shows here where the
// eight small budgets above hide it.
func BenchmarkServingSweepWide(b *testing.B) {
	sys, err := system.Preset("a100-80g", 512)
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{
		Model:  model.MustPreset("gpt3-175B"),
		System: sys,
		Workload: Workload{
			Mix: []Bucket{
				{PromptLen: 446, GenLen: 234, Weight: 4},
				{PromptLen: 391, GenLen: 119, Weight: 2},
				{PromptLen: 1961, GenLen: 286, Weight: 3},
			},
			SLO: SLO{TTFT: 2.3, TPOT: 0.07},
		},
		Space: Space{MaxBatch: 32, Disaggregate: true},
	}
	sizes := search.Sizes(8, 512)
	var evaluated int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := Sweep(context.Background(), spec, sizes, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			evaluated += p.Result.Evaluated
		}
		if pts[len(pts)-1].Result.Feasible == 0 {
			b.Fatal("benchmark sweep found nothing")
		}
	}
	b.ReportMetric(float64(evaluated)/b.Elapsed().Seconds(), "strategies/s")
}
