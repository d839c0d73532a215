package perf

import (
	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/pipesim"
	"calculon/internal/system"
)

// PipelineParams derives the discrete pipeline-simulation parameters
// (internal/pipesim) for a configuration: the per-chunk forward/backward
// times priced by the analytical model, the boundary-hop cost, and the
// schedule shape. This is how the closed-form bubble model is
// cross-validated, and it lets users render Fig. 2-style timelines for
// their own configurations.
func PipelineParams(m model.LLM, sys system.System, st execution.Strategy) (pipesim.Params, error) {
	if err := checkInputs(&m, &sys, &st); err != nil {
		return pipesim.Params{}, err
	}
	e := newEval(m, sys, st)
	e.tensorComm()
	e.pipelineComm() // leaves the hop 0 without pipeline parallelism
	fwd, bwd, hop := e.chunk()
	sched := pipesim.GPipe
	if st.OneFOneB {
		sched = pipesim.OneFOneB
	}
	return pipesim.Params{
		Stages:       st.PP,
		Chunks:       st.Interleave,
		Microbatches: e.n,
		FwdChunk:     fwd,
		BwdChunk:     bwd,
		Hop:          hop,
		Schedule:     sched,
	}, nil
}

// checkInputs is the input check of the entry points that price one
// configuration outside a Runner: it normalizes the strategy and validates
// the model, the system and the strategy, a strategy the model cannot run
// being ErrInfeasible.
func checkInputs(m *model.LLM, sys *system.System, st *execution.Strategy) error {
	st.Normalize()
	if err := m.Validate(); err != nil {
		return err
	}
	if err := sys.Validate(); err != nil {
		return err
	}
	if err := st.Validate(m); err != nil {
		return verdict{kind: invalidStrategy, cause: err}.err()
	}
	return nil
}
