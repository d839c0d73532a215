package perf

import (
	"math"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/pipesim"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestBubbleMatchesDiscreteSimulation validates the analytical pipeline
// model the way the paper validates against Selene: the closed-form bubble
// term must agree with a discrete simulation of the actual (interleaved)
// 1F1B schedule built from the same per-chunk times.
func TestBubbleMatchesDiscreteSimulation(t *testing.T) {
	m := model.MustPreset("gpt3-175B").WithBatch(512)
	sys := system.A100(4096).WithMem1Capacity(10 * units.TiB)
	cases := []execution.Strategy{
		{TP: 8, PP: 8, DP: 8, Microbatch: 1, Interleave: 1, OneFOneB: true, Recompute: execution.RecomputeFull},
		{TP: 8, PP: 16, DP: 4, Microbatch: 1, Interleave: 1, OneFOneB: true, Recompute: execution.RecomputeFull},
		{TP: 8, PP: 16, DP: 4, Microbatch: 1, Interleave: 2, OneFOneB: true, Recompute: execution.RecomputeFull},
		{TP: 8, PP: 8, DP: 8, Microbatch: 2, Interleave: 3, OneFOneB: true, Recompute: execution.RecomputeAttn, TPRSAG: true, SeqParallel: true},
	}
	for _, st := range cases {
		st.Normalize()
		if err := st.Validate(&m); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		e := newEval(m, sys, st)
		e.tensorComm()
		e.pipelineComm()
		var bd TimeBreakdown
		e.assemble(&bd)

		hop := units.Seconds(0)
		if st.PP > 1 {
			hop = e.ppPerMicrobatch / units.Seconds(2*st.Interleave)
		}
		chunkFwd := units.Seconds(float64(e.bc)) * (e.blockFwd + e.fwdPenalty + e.tpFwdExposedPerBlock)
		chunkBwd := units.Seconds(float64(e.bc)) * (e.blockBwd + e.blockRecompute + e.bwdPenalty + e.tpBwdExposedPerBlock)

		simRes, err := pipesim.Simulate(pipesim.Params{
			Stages:       st.PP,
			Chunks:       st.Interleave,
			Microbatches: e.n,
			FwdChunk:     chunkFwd,
			BwdChunk:     chunkBwd,
			Hop:          hop,
			Schedule:     pipesim.OneFOneB,
		})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		analytical := float64(bd.PPBubble)
		simulated := float64(simRes.Bubble)
		if st.PP == 1 {
			if analytical != 0 {
				t.Errorf("%v: bubble must be zero without pipelining", st)
			}
			continue
		}
		rel := math.Abs(analytical-simulated) / simulated
		if rel > 0.25 {
			t.Errorf("%v: analytical bubble %.3fs vs simulated %.3fs (rel %.2f)",
				st, analytical, simulated, rel)
		}
	}
}

// TestInFlightMatchesDiscreteSimulation validates the activation-residency
// factor of the memory model against the simulator's peak in-flight count.
func TestInFlightMatchesDiscreteSimulation(t *testing.T) {
	m := model.MustPreset("gpt3-175B").WithBatch(512)
	sys := system.A100(4096).WithMem1Capacity(10 * units.TiB)
	cases := []execution.Strategy{
		{TP: 8, PP: 8, DP: 8, Microbatch: 1, Interleave: 1, OneFOneB: true, Recompute: execution.RecomputeFull},
		{TP: 8, PP: 16, DP: 4, Microbatch: 1, Interleave: 2, OneFOneB: true, Recompute: execution.RecomputeFull},
		{TP: 8, PP: 8, DP: 8, Microbatch: 1, Interleave: 4, OneFOneB: true, Recompute: execution.RecomputeFull},
	}
	for _, st := range cases {
		st.Normalize()
		e := newEval(m, sys, st)
		analytical := e.inflightMicrobatches()

		simRes, err := pipesim.Simulate(pipesim.Params{
			Stages:       st.PP,
			Chunks:       st.Interleave,
			Microbatches: e.n,
			FwdChunk:     e.blockFwd * units.Seconds(float64(e.bc)),
			BwdChunk:     (e.blockBwd + e.blockRecompute) * units.Seconds(float64(e.bc)),
			Schedule:     pipesim.OneFOneB,
		})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		simulated := float64(simRes.PeakInFlight) / float64(st.Interleave)
		rel := math.Abs(analytical-simulated) / simulated
		if rel > 0.35 {
			t.Errorf("%v: analytical in-flight %.2f vs simulated %.2f (rel %.2f)",
				st, analytical, simulated, rel)
		}
	}
}
