package perf

import (
	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/pipesim"
	"calculon/internal/system"
	"calculon/internal/units"
)

// PipelineParams derives the discrete pipeline-simulation parameters
// (internal/pipesim) for a configuration: the per-chunk forward/backward
// times priced by the analytical model, the boundary-hop cost, and the
// schedule shape. This is how the closed-form bubble model is
// cross-validated, and it lets users render Fig. 2-style timelines for
// their own configurations.
func PipelineParams(m model.LLM, sys system.System, st execution.Strategy) (pipesim.Params, error) {
	st.Normalize()
	if err := m.Validate(); err != nil {
		return pipesim.Params{}, err
	}
	if err := sys.Validate(); err != nil {
		return pipesim.Params{}, err
	}
	if err := st.Validate(&m); err != nil {
		return pipesim.Params{}, verdict{kind: invalidStrategy, cause: err}.err()
	}
	e := newEval(m, sys, st)
	e.tensorComm()
	e.pipelineComm()

	var hop units.Seconds
	if st.PP > 1 {
		hop = e.ppPerMicrobatch.DivN(float64(2 * st.Interleave))
	}
	sched := pipesim.GPipe
	if st.OneFOneB {
		sched = pipesim.OneFOneB
	}
	return pipesim.Params{
		Stages:       st.PP,
		Chunks:       st.Interleave,
		Microbatches: e.n,
		FwdChunk:     (e.blockFwd + e.fwdPenalty + e.tpFwdExposedPerBlock).Times(float64(e.bc)),
		BwdChunk:     (e.blockBwd + e.blockRecompute + e.bwdPenalty + e.tpBwdExposedPerBlock).Times(float64(e.bc)),
		Hop:          hop,
		Schedule:     sched,
	}, nil
}
