package perf

import (
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// BenchmarkRun measures the cost of one analytical evaluation — the paper
// quotes "much less than 1 ms per configuration"; this implementation
// targets single-digit microseconds.
func BenchmarkRun(b *testing.B) {
	m := model.MustPreset("gpt3-175B").WithBatch(2048)
	sys := system.A100(4096)
	st := execution.Strategy{TP: 8, PP: 64, DP: 4, Microbatch: 1, Interleave: 2,
		OneFOneB: true, Recompute: execution.RecomputeFull, TPRSAG: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, sys, st); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStrategy is the shared configuration of the cold/memoized pair below;
// the two benchmarks differ only in whether the Runner and its block-profile
// memo are warm, so their delta is the phase-2 win and their allocs/op
// difference is the Runner set-up and layer-graph construction the memo
// avoids.
func benchStrategy() (model.LLM, system.System, execution.Strategy) {
	return model.MustPreset("gpt3-175B").WithBatch(2048),
		system.A100(4096),
		execution.Strategy{TP: 8, PP: 64, DP: 4, Microbatch: 1, Interleave: 2,
			OneFOneB: true, Recompute: execution.RecomputeFull, TPRSAG: true}
}

// BenchmarkRunnerCold evaluates on a fresh Runner every iteration, so each
// one builds the pre-screen and the memos, rebuilds the block layer graph
// and re-times all layers — the phase-2 worst case, and the regression
// guard for the cold path.
func BenchmarkRunnerCold(b *testing.B) {
	m, sys, st := benchStrategy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := NewRunner(m, sys)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerMemoized evaluates the same strategy through a warm
// Runner: after the first iteration the block profile comes from the memo,
// so the steady state is the per-strategy pipeline/DP math alone. Tracked
// by BENCH_BASELINE.json for both time and allocs/op.
func BenchmarkRunnerMemoized(b *testing.B) {
	m, sys, st := benchStrategy()
	r, err := NewRunner(m, sys)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(st); err != nil { // warm the memo outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(st); err != nil {
			b.Fatal(err)
		}
	}
}
