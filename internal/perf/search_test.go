package perf_test

import (
	"context"
	"sync/atomic"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestSegmentSearchMemoryHalves pins how often the search's chains run the
// memory half on BenchmarkSegmentSearch's space (gpt3-13B at batch 16 on 16
// A100s with a 512 GiB second tier, every feature, TP up to 8, no
// interleaving, top-10 and the Pareto front: 100 segments of 4,032 leaves
// in 576 memory classes). The memory pass answers every class and its
// floor half prices the floors of the classes the fold may keep, so a chain
// runs the memory half only on the leaves of the classes it selects, while
// their floors pass: 3,264 times at one worker, stepping the selected
// classes fastest floor first, where stepping every leaf of them in the
// class walk's Gray order ran it 4,695 times, the slots chosen on their
// bound alone 4,767 times, stepping to each class for its floor 14,654
// times and the class-by-class walk 60,819. At two workers which
// chunks each worker's fold sees depends on timing, and so does the count:
// 3,264 to 5,166 in 40 runs. It must stay under the one-worker count of
// stepping for floors, and the search's counters must not move.
func TestSegmentSearchMemoryHalves(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(16).WithMem2(system.DDR5(512 * units.GiB))
	opts := search.Options{
		Enum: execution.EnumOptions{Procs: 16, Features: execution.FeatureAll, MaxTP: 8, MaxInterleave: 1},
		TopK: 10, Pareto: true,
	}
	var halves atomic.Int64
	perf.SetOnMemoryHalf(func() { halves.Add(1) })
	defer perf.SetOnMemoryHalf(nil)
	var counts []search.Counts
	for _, workers := range []int{1, 2} {
		halves.Store(0)
		opts.Workers = workers
		res, err := search.Execution(context.Background(), m, sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Counts)
		switch n := halves.Load(); {
		case workers == 1 && n != 3264:
			t.Errorf("one worker ran %d memory halves, want 3,264", n)
		case workers == 2 && n >= 14654:
			t.Errorf("two workers ran %d memory halves, want fewer than 14,654", n)
		}
	}
	if counts[0] != counts[1] || counts[0].Evaluated != 403200 {
		t.Errorf("counts %+v at one worker, %+v at two; want 403,200 evaluated at both", counts[0], counts[1])
	}
}

// TestSearchRunsMirrorMemoryHalves holds mirrorSearches, the tests' copy of
// the search worker's segment step that the count tests pin, to the search
// itself: on TestTermGroupRecomputeCounts' space, search.Execution at one
// worker under a top-10 + Pareto fold must run the memory half exactly as
// often as the mirror does.
func TestSearchRunsMirrorMemoryHalves(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64).WithMem2(system.DDR5(512 * units.GiB))
	r, err := perf.NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	enum := execution.EnumOptions{Procs: 64, Features: execution.FeatureAll, HasMem2: true}
	want := perf.MirrorSearches(t, m, []*perf.Runner{r}, enum)["memory-half runs"]
	var halves atomic.Int64
	perf.SetOnMemoryHalf(func() { halves.Add(1) })
	defer perf.SetOnMemoryHalf(nil)
	opts := search.Options{Enum: enum, Workers: 1, TopK: 10, Pareto: true}
	if _, err := search.Execution(context.Background(), m, sys, opts); err != nil {
		t.Fatal(err)
	}
	if n := halves.Load(); n != int64(want) || want == 0 {
		t.Errorf("the search ran %d memory halves, the mirror %d", n, want)
	}
}
