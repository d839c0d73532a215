package perf

import (
	"errors"
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// referenceRun is the test-only reference evaluator every fast path is held
// to: one straight-line evaluation with no pre-screen, no memo, no field
// mask and no verdict table. It normalizes and validates the strategy,
// applies the exact processor and offload-tier rules, builds the block
// profile from the layer graph, runs all six term groups and the memory
// accounting, and checks capacity. Its verdicts and Results must equal
// Run's, except that a strategy the pre-screen rejects fails here on the
// capacity check, with that check's message.
func referenceRun(m model.LLM, sys system.System, st execution.Strategy) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	r := newRunner(m, sys)
	st.Normalize()
	if err := st.Validate(&r.m); err != nil {
		return Result{}, verdict{kind: invalidStrategy, cause: err}.err()
	}
	if sv := r.screen.CheckFit(&st); !sv.OK() {
		return Result{}, verdict{kind: preScreened, screen: sv}.err()
	}
	prof := computeProfile(&r.m, &r.sys, &st)
	e := makeEval(&r.m, &r.sys, &st, &prof)
	e.tensorComm()
	e.pipelineComm()
	e.dataComm()
	e.optimizer()
	e.offload()
	mem1, mem2 := e.memory()
	if v := r.capacity(&mem1, &mem2); v.kind != feasible {
		return Result{}, v.err()
	}
	var out Result
	r.finish(&e, &mem1, &mem2, &out)
	return out, nil
}

// runLeaf evaluates st through RunLeaf on the chain, into *out, and returns
// it in checkReference's terms: the Result when feasible; otherwise a zero
// Result and the bare ErrInfeasible, as RunLeaf reports no message.
func runLeaf(r *Runner, chain *RunInfo, st execution.Strategy, out *Result) (Result, error) {
	if r.RunLeaf(chain, &st, out) {
		return *out, nil
	}
	return Result{}, ErrInfeasible
}

// checkReference holds one fast-path evaluation (got, info, err) of st to
// referenceRun: the same Result bit for bit, the same feasibility, and the
// same error text unless the pre-screen rejected the strategy — whose
// message names the bound rather than the overflowing tier — in which case
// the reference must reject it too (the pre-screen's soundness). A bare
// ErrInfeasible, from a caller that has no message (RunLeaf), is checked
// for feasibility only.
func checkReference(t *testing.T, label string, m model.LLM, sys system.System, st execution.Strategy, got Result, info RunInfo, err error) {
	t.Helper()
	want, wantErr := referenceRun(m, sys, st)
	switch {
	case info.PreScreened:
		if err == nil || !errors.Is(wantErr, ErrInfeasible) {
			t.Fatalf("%s %v: pre-screened (err %v), but the reference says %v", label, st, err, wantErr)
		}
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s %v: err %v, reference err %v", label, st, err, wantErr)
	case err != nil && err != ErrInfeasible && err.Error() != wantErr.Error():
		t.Fatalf("%s %v: error text differs:\n got %q\nwant %q", label, st, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v: result differs from the reference:\n got %+v\nwant %+v", label, st, got, want)
	}
}
