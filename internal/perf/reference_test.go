package perf

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
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
	if t := s.mem1.Total(); t > r.sys.Mem1.Capacity {
		return Result{}, verdict{kind: mem1Overflow, need: t, have: r.sys.Mem1.Capacity}.err()
	}
	if t := s.mem2.Total(); t > r.sys.Mem2.Capacity {
		return Result{}, verdict{kind: mem2Overflow, need: t, have: r.sys.Mem2.Capacity}.err()
	}
	s.keys.Mem1 = s.mem1.Total()
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

// classChain evaluates leaves of a toggle lattice the way the search does,
// on one chain: the segment pass (PassSegment) on a leaf's segment root,
// once per run of leaves of one segment; the class entry (EnterClass) when
// the pass fits the leaf's class and the chain is not in it already; then
// the leaf's variant fields written into the class root and RunLeaf. A
// leaf of the class the chain is in is priced with no pass or entry, on the
// class terms the entry priced and the terms the leaves before it left.
type classChain struct {
	r     *Runner
	tog   execution.Toggles
	lat   *SegmentLattice
	chain RunInfo
	p     SegmentPass
	seg   execution.Strategy // the segment key of the last pass (segmentKey)
	root  execution.Strategy // the class root
	in    bool               // the chain is in root's class, which fits
	out   Result             // reused across leaves, as the search reuses one
}

func newClassChain(r *Runner, opts execution.EnumOptions) *classChain {
	return &classChain{r: r, tog: opts.Toggles(), lat: LatticeFor(&opts)}
}

// run evaluates st, a leaf of the chain's lattice (latticeLeaf), and
// returns it in checkReference's terms: the Result when its class fits,
// built as the search builds a kept leaf's; otherwise a zero Result and the
// bare ErrInfeasible, as the pass reports no message. A fitting leaf's
// exact keys (RunLeaf) must be the Result's, and its class's bound keys
// must bound them (checkBound).
func (c *classChain) run(st execution.Strategy) (Result, error) {
	if !c.enter(st) {
		return Result{}, ErrInfeasible
	}
	bound := c.chain.Bound()
	exact := c.r.RunLeaf(&c.chain)
	c.chain.Result(&c.out)
	if exact != (Keys{c.out.BatchTime, c.out.SampleRate, c.out.Mem1.Total()}) {
		return Result{}, fmt.Errorf("keys %+v disagree with the Result", exact)
	}
	if err := checkBound(bound, exact); err != nil {
		return Result{}, err
	}
	return c.out, nil
}

// enter puts the chain on st's class — the pass on st's segment unless it
// is the last pass's, the class entry unless the chain is in st's class —
// and writes st's variant fields into the class root. It reports whether
// the class fits.
func (c *classChain) enter(st execution.Strategy) bool {
	st.Normalize()
	if seg := segmentKey(st); seg != c.seg {
		c.seg, c.root, c.in = seg, st, false
		c.r.PassSegment(&c.chain, c.lat, &c.root, &c.p)
	}
	if !c.in || classKey(st) != classKey(c.root) {
		c.root, c.in = st, false
		i, b := int(c.lat.slotOf[slotFor(&st)]), screenBits(&st)
		if c.p.slots[i].fits&(1<<b) == 0 {
			return false
		}
		c.r.EnterClass(&c.chain, &c.p, &c.root, i, b)
		c.in = true
	}
	c.root.TPRSAG, c.root.PPRSAG, c.root.TPOverlap = st.TPRSAG, st.PPRSAG, st.TPOverlap
	return true
}

// segmentKey is a leaf with every switch a toggle lattice sets cleared: the
// leaves of one segment share it.
func segmentKey(s execution.Strategy) execution.Strategy {
	s = classKey(s)
	s.Recompute, s.SeqParallel, s.TPRedoForSP, s.FusedLayers = "", false, false, false
	setScreenBits(&s, 0)
	return s
}

// latticeLeaf reports whether st, normalized, is a training leaf of the
// lattice of tog and lat: its block switches pick one of the lattice's
// profile slots, its screen switches one of its combinations, and its
// variant fields one of the leaves ClassLeaves walks in its class.
func latticeLeaf(tog *execution.Toggles, lat *SegmentLattice, st execution.Strategy) bool {
	st.Normalize()
	if st.Inference || lat.slotOf[slotFor(&st)] < 0 || !slices.Contains(lat.screens, screenBits(&st)) {
		return false
	}
	found := false
	c := st
	tog.ClassLeaves(&c, func(int) bool {
		found = c == st
		return !found
	})
	return found
}

// scratchState evaluates st on r as RunDetailed does and returns the
// evaluation state — holding the memory rows of an admitted strategy,
// whether or not it fits — with the flags, the verdict and whether st fits.
func scratchState(r *Runner, st execution.Strategy) (*evalState, RunInfo, verdict, bool) {
	s := &evalState{e: eval{m: &r.m, sys: &r.sys, st: &st, memo: new(termMemo)}}
	var info RunInfo
	var v verdict
	ok := r.scratch(s, &info, &v)
	return s, info, v, ok
}

// checkBound holds a leaf's bound keys (RunInfo.Bound) to its exact keys: the same
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
// ErrInfeasible, from a caller that has no message (classChain), is
// checked for feasibility only.
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
