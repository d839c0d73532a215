package search

import (
	"context"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// BenchmarkExecutionSearch measures end-to-end search throughput — the
// paper's headline capability ("millions of combinations in only a few
// minutes on a standard desktop computer"). Each worker runs the memory
// and floor passes on each segment and starts its chain on the classes
// they select, pricing only the terms a leaf's variant fields reach. The
// strategies-per-second metric is the number to watch.
func BenchmarkExecutionSearch(b *testing.B) {
	benchExecutionSearch(b, func(*Options) {})
}

// BenchmarkExecutionSearchFold is the same search keeping a top-10 and the
// Pareto front, as the CLI's headline search does, so the gate also sees the
// cost of folding every feasible result into best/top-K/Pareto.
func BenchmarkExecutionSearchFold(b *testing.B) {
	benchExecutionSearch(b, func(o *Options) { o.TopK, o.Pareto = 10, true })
}

func benchExecutionSearch(b *testing.B, configure func(*Options)) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64)
	opts := Options{
		Enum: execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2},
	}
	configure(&opts)
	var evaluated int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Execution(context.Background(), m, sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		// Accumulate across iterations: extrapolating from the last
		// iteration (evaluated/elapsed·N) over-reports whenever per-
		// iteration times vary; the summed count is exact.
		evaluated += res.Evaluated
	}
	b.ReportMetric(float64(evaluated)/b.Elapsed().Seconds(), "strategies/s")
}

// BenchmarkSegmentSearch is a search whose toggle segments are full ones:
// every feature with a second memory tier, 4,032 leaves in 576 memory
// classes per segment, as in the paper's headline search, where the
// BenchmarkExecutionSearch pair has 12-leaf SeqPar segments. It keeps a
// top-10 and the Pareto front, as the CLI does, so it times the passes,
// the class entries and the leaves the fold asks for.
func BenchmarkSegmentSearch(b *testing.B) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(16).WithMem2(system.DDR5(512 * units.GiB))
	opts := Options{
		Enum: execution.EnumOptions{Procs: 16, Features: execution.FeatureAll, MaxTP: 8, MaxInterleave: 1},
		TopK: 10, Pareto: true,
	}
	var evaluated int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Execution(context.Background(), m, sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		evaluated += res.Evaluated
	}
	b.ReportMetric(float64(evaluated)/b.Elapsed().Seconds(), "strategies/s")
}

// sweepBenchOptions is the §5.2-shaped configuration of the sweep
// benchmark: the full feature space with the beneficial toggles pinned, as the
// scaling studies run it. On a capacity-limited accelerator most low-TP
// subtrees fail the closed-form memory bound, which is exactly the regime the
// lattice prune targets.
func sweepBenchOptions() (model.LLM, []int, Options) {
	m := model.MustPreset("turing-530B").WithBatch(3072)
	sizes := Sizes(16, 128) // spans the fit cliff: nothing fits below 112 procs
	opts := Options{Enum: execution.EnumOptions{
		Features:      execution.FeatureAll,
		PinBeneficial: true,
		MaxTP:         32,
		MaxInterleave: 4,
	}}
	return m, sizes, opts
}

// BenchmarkSystemSizeSweep measures a §5.2 system-size sweep end to end with
// the lattice prune and the cross-size shared memo on — the configuration
// the scaling and right-sizing studies actually run. The strategies/s metric
// counts the full space (pruned subtrees included, since their verdicts are
// decided exactly), matching the Evaluated accounting.
func BenchmarkSystemSizeSweep(b *testing.B) {
	m, sizes, opts := sweepBenchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := SystemSize(context.Background(), m, func(n int) system.System { return system.A100(n) }, sizes, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !pts[len(pts)-1].Found {
			b.Fatal("175B should fit at 512 GPUs")
		}
	}
	b.ReportMetric(sweepSpace(m, sizes, opts)*float64(b.N)/b.Elapsed().Seconds(), "strategies/s")
}

// sweepSpace is the exact number of strategies one sweep pass covers.
func sweepSpace(m model.LLM, sizes []int, opts Options) float64 {
	total := 0
	for _, n := range sizes {
		e := opts.Enum
		e.Procs = n
		total += e.SpaceSize(m)
	}
	return float64(total)
}
