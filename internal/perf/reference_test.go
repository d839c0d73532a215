package perf

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// referenceRun is the test-only reference evaluator every fast path is held
// to: one straight-line evaluation with no pre-screen, no memo, no class
// reuse and no verdict table. It normalizes and validates the strategy,
// applies the exact processor and offload-tier rules, builds the block
// profile from the layer graph, runs all six term groups and the memory
// accounting (referenceEval), and checks capacity. Its verdicts and Results
// must equal Run's, except that a strategy the pre-screen rejects fails
// here on the capacity check, with that check's message.
func referenceRun(m model.LLM, sys system.System, st execution.Strategy) (Result, error) {
	r, s, err := referenceEval(m, sys, st)
	if err != nil {
		return Result{}, err
	}
	var v verdict
	if !r.capacity(s, &v) {
		return Result{}, v.err()
	}
	s.e.assemble(&s.time)
	s.keys.BatchTime = s.time.Total()
	s.keys.SampleRate = s.keys.BatchTime.Rate(float64(r.m.Batch))
	var out Result
	r.finish(s, &out)
	return out, nil
}

// referenceEval is referenceRun up to the capacity check: it returns the
// runner and the state with every term group and memory row of st priced
// straight-line, or the model's, the system's or st's validation error or
// the exact fit rules' verdict.
func referenceEval(m model.LLM, sys system.System, st execution.Strategy) (*Runner, *evalState, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, nil, err
	}
	r := newRunner(m, sys, nil) // the reference builds its profile without the memo
	st.Normalize()
	if err := st.Validate(&r.m); err != nil {
		return nil, nil, verdict{kind: invalidStrategy, cause: err}.err()
	}
	if sv := r.screen.CheckFit(&st); !sv.OK() {
		return nil, nil, verdict{kind: preScreened, screen: sv}.err()
	}
	s := &evalState{e: *newEval(r.m, r.sys, st)}
	e := &s.e
	e.tensorComm()
	e.pipelineComm()
	e.dataComm()
	e.optimizer()
	e.offload()
	e.weightRows(&s.mem1, &s.mem2)
	e.optimizerRows(&s.mem1, &s.mem2)
	e.activationRows(&s.mem1, &s.mem2)
	return r, s, nil
}

// leafChain feeds strategies to RunLeaf the way the search's walk does,
// one chain for the whole sequence, whether or not the chain admitted the
// leaf before.
type leafChain struct {
	r     *Runner
	chain RunInfo
	out   Result // reused across leaves, as the search reuses one
}

// run evaluates st on the chain and returns it in checkReference's terms:
// the Result when feasible, built as the search builds a kept leaf's;
// otherwise a zero Result and the bare ErrInfeasible, as RunLeaf reports no
// message. A feasible leaf's exact keys (chain.Keys) must be the Result's,
// and its bound keys must bound them (checkBound).
func (c *leafChain) run(st execution.Strategy) (Result, error) {
	if !c.r.RunLeaf(&c.chain, &st) {
		return Result{}, ErrInfeasible
	}
	bound := c.chain.Bound()
	exact := c.chain.Keys()
	c.chain.Result(&c.out)
	if exact != (Keys{c.out.BatchTime, c.out.SampleRate, c.out.Mem1.Total()}) {
		return Result{}, fmt.Errorf("keys %+v disagree with the Result", exact)
	}
	if err := checkBound(bound, exact); err != nil {
		return Result{}, err
	}
	return c.out, nil
}

// checkBound holds a leaf's bound keys (RunInfo.Bound) to a leaf's exact keys: the same
// first-tier total, a batch time no higher, a sample rate no lower.
func checkBound(bound, exact Keys) error {
	if bound.Mem1 != exact.Mem1 || !(bound.BatchTime <= exact.BatchTime) || !(bound.SampleRate >= exact.SampleRate) {
		return fmt.Errorf("bound keys %+v do not bound the exact keys %+v", bound, exact)
	}
	return nil
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
