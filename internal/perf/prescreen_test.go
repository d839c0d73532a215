package perf

import (
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestPreScreenSoundAndExact locks in the two contracts of the phase-1
// filter against the full evaluation, strategy by strategy over a real
// enumeration:
//
//   - soundness: whenever the pre-screen rejects, the reference evaluator
//     (which has no pre-screen) also rejects — the filter never costs a
//     feasible configuration;
//   - verdict identity: the two-phase Runner, through Run and through a
//     RunLeaf chain, agrees with the reference on feasibility for every
//     strategy, and feasible results carry identical numbers.
func TestPreScreenSoundAndExact(t *testing.T) {
	cases := []struct {
		m   model.LLM
		sys system.System
	}{
		// Tight tier 1: the memory lower bound does the rejecting.
		{model.MustPreset("gpt3-13B").WithBatch(16), system.A100(16)},
		// Second tier present: offload strategies enter and the mem2 bound
		// and offload-tier checks are live.
		{model.MustPreset("megatron-22B").WithBatch(8),
			system.A100(8).WithMem2(system.DDR5(256 * units.GiB))},
		// Roomy system: almost everything passes the screen; exactness of
		// the feasible path dominates.
		{model.MustPreset("gpt2-1.5B").WithBatch(16),
			system.A100(16).WithMem1Capacity(1 * units.TiB)},
	}
	for _, tc := range cases {
		fast, err := NewRunner(tc.m, tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := NewRunner(tc.m, tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		lc := leafChain{r: leaf}

		screen := execution.NewPreScreen(tc.m, execution.Limits{
			Procs: tc.sys.Procs,
			Mem1:  tc.sys.Mem1.Capacity,
			Mem2:  tc.sys.Mem2.Capacity,
		})

		enum := execution.EnumOptions{
			Procs:         tc.sys.Procs,
			Features:      execution.FeatureAll,
			HasMem2:       tc.sys.Mem2.Present(),
			MaxInterleave: 2,
		}
		checked, screened := 0, 0
		enum.Enumerate(tc.m, func(st execution.Strategy) bool {
			checked++
			label := tc.m.Name + " on " + tc.sys.Name
			fastRes, info, fastErr := fast.RunDetailed(st)
			checkReference(t, label+" Run", tc.m, tc.sys, st, fastRes, info, fastErr)
			leafGot, leafErr := lc.run(st)
			checkReference(t, label+" RunLeaf", tc.m, tc.sys, st, leafGot, lc.chain, leafErr)
			if info.PreScreened {
				screened++
			}
			// The standalone screen must agree with the Runner's own use of it.
			norm := st
			norm.Normalize()
			if norm.Validate(&tc.m) == nil && !screen.Check(&norm).OK() != info.PreScreened {
				t.Fatalf("%s on %s, %v: standalone Check disagrees with RunInfo.PreScreened",
					tc.m.Name, tc.sys.Name, st)
			}
			return true
		})
		if checked == 0 {
			t.Fatalf("%s on %s: enumeration produced no strategies", tc.m.Name, tc.sys.Name)
		}
		t.Logf("%s on %s: %d strategies, %d pre-screened", tc.m.Name, tc.sys.Name, checked, screened)
	}
}

// TestRunnerMemoKeyCoversBlockInputs guards the memo key against drift: two
// strategies that differ in any field the block profile reads must never
// share a cache entry. It runs every pairwise variant of the key fields
// through one memoized Runner and the reference evaluator and demands
// identical results.
func TestRunnerMemoKeyCoversBlockInputs(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(16).WithMem1Capacity(1 * units.TiB)
	base := execution.Strategy{TP: 4, PP: 2, DP: 2, Microbatch: 1, Interleave: 1, OneFOneB: true}
	variants := []execution.Strategy{base}
	for _, f := range []func(*execution.Strategy){
		func(s *execution.Strategy) { s.TP = 8; s.DP = 1 },
		func(s *execution.Strategy) { s.Microbatch = 2 },
		func(s *execution.Strategy) { s.Recompute = execution.RecomputeFull },
		func(s *execution.Strategy) {
			s.Recompute = execution.RecomputeAttn
			s.TPRSAG = true
			s.SeqParallel = true
		},
		func(s *execution.Strategy) {
			s.TPRSAG = true
			s.SeqParallel = true
			s.TPRedoForSP = true
		},
		func(s *execution.Strategy) { s.FusedLayers = true },
	} {
		v := base
		f(&v)
		variants = append(variants, v)
	}

	shared, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range variants {
		// Each variant twice through the shared runner: the second hit comes
		// from the memo and must not leak another variant's profile.
		first, _, err1 := shared.RunDetailed(st)
		second, info, err2 := shared.RunDetailed(st)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v / %v", st, err1, err2)
		}
		if !info.CacheHit {
			t.Errorf("%v: second evaluation missed the memo", st)
		}
		if first != second {
			t.Errorf("%v: memoized result differs from first evaluation", st)
		}
		ref, refErr := referenceRun(m, sys, st)
		if refErr != nil {
			t.Fatalf("%v: %v", st, refErr)
		}
		if second != ref {
			t.Errorf("%v: memoized result diverges from the reference", st)
		}
	}
}
