package perf

import (
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// TestBlockProfileProcsIndependent is the invariant behind RunnerGroup's
// cross-size memo sharing: the per-block profile reads nothing that depends
// on the processor count, so profiles computed at one system size are
// bit-identical at every other. If a size-dependent input ever leaks into
// computeProfile, sharing the memo across a §5.2 sweep would silently serve
// wrong timings — this test catches that before the equivalence suite does.
func TestBlockProfileProcsIndependent(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	o := execution.EnumOptions{Procs: 16, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	var sts []execution.Strategy
	o.Enumerate(m, func(s execution.Strategy) bool {
		sts = append(sts, s)
		return len(sts) < 64
	})
	if len(sts) == 0 {
		t.Fatal("no strategies enumerated")
	}
	sizes := []int{8, 64, 1024}
	for _, st := range sts {
		base := system.A100(sizes[0])
		ref := computeProfile(&m, &base, &st)
		for _, n := range sizes[1:] {
			sys := system.A100(n)
			got := computeProfile(&m, &sys, &st)
			if got != ref {
				t.Fatalf("profile for %v differs between %d and %d procs:\n%+v\nvs\n%+v",
					st, sizes[0], n, ref, got)
			}
		}
	}
}

// TestRunnerGroupSharesMemo checks the RunnerGroup contract end to end:
// results served through a group Runner are bit-identical to a standalone
// Runner's, and a profile memoized at one size is a cache hit at the next.
func TestRunnerGroupSharesMemo(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	base := system.A100(16)
	group, err := NewRunnerGroup(m, base)
	if err != nil {
		t.Fatal(err)
	}

	// Sample strategies from across the whole space, not just the first
	// subtrees — the low-TP ones all die in the pre-screen and would never
	// touch the memo.
	o := execution.EnumOptions{Procs: 16, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	var all []execution.Strategy
	o.Enumerate(m, func(s execution.Strategy) bool {
		all = append(all, s)
		return true
	})
	stride := len(all)/48 + 1
	var sts []execution.Strategy
	for i := 0; i < len(all); i += stride {
		sts = append(sts, all[i])
	}

	var feasible *execution.Strategy
	for _, procs := range []int{16, 32} {
		sys := base.WithProcs(procs)
		shared, err := group.RunnerFor(sys)
		if err != nil {
			t.Fatalf("RunnerFor(%d procs): %v", procs, err)
		}
		fresh, err := NewRunner(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			got, gotErr := shared.Run(st)
			want, wantErr := fresh.Run(st)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("procs %d, %v: feasibility diverges: shared %v vs fresh %v",
					procs, st, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("procs %d, %v: result diverges through the shared memo", procs, st)
			}
			if gotErr == nil && feasible == nil {
				s := st
				feasible = &s
			}
		}
	}
	if feasible == nil {
		t.Fatal("no feasible strategy in the sample — the cache-hit probe below would be vacuous")
	}

	// After the first sizes warmed the memo, the very first evaluation of an
	// already-seen strategy at a new size must hit the cache.
	probe, err := group.RunnerFor(base.WithProcs(64))
	if err != nil {
		t.Fatal(err)
	}
	probe.EnableStats()
	if _, err := probe.Run(*feasible); err != nil {
		t.Fatalf("strategy feasible at 16 procs infeasible at 64: %v", err)
	}
	if s := probe.Stats(); s.CacheHits != 1 {
		t.Errorf("first evaluation at a new size missed the shared memo: %+v", s)
	}
}

// TestRunnerGroupRefusesForeignHardware pins the guard: a group must not hand
// out Runners for systems whose memo-relevant hardware (compute engines,
// first-tier timing) differs from the base, since the shared profiles were
// computed under the base's timing.
func TestRunnerGroupRefusesForeignHardware(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	base := system.A100(16)
	group, err := NewRunnerGroup(m, base)
	if err != nil {
		t.Fatal(err)
	}

	otherCompute := base
	otherCompute.Compute.MatrixPeak *= 2
	if _, err := group.RunnerFor(otherCompute); err == nil {
		t.Error("RunnerFor accepted a system with different compute engines")
	}

	otherMem := base
	otherMem.Mem1.Bandwidth *= 2
	if _, err := group.RunnerFor(otherMem); err == nil {
		t.Error("RunnerFor accepted a system with different first-tier bandwidth")
	}

	// Size-dependent knobs may vary freely: processor count, first-tier
	// capacity, and the second tier.
	for _, ok := range []system.System{
		base.WithProcs(4096),
		base.WithMem1Capacity(base.Mem1.Capacity / 2),
	} {
		if _, err := group.RunnerFor(ok); err != nil {
			t.Errorf("RunnerFor refused a memo-compatible system: %v", err)
		}
	}
}
