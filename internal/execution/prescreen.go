package execution

import (
	"fmt"

	"calculon/internal/layers"
	"calculon/internal/model"
	"calculon/internal/units"
)

// Limits carries the system-side bounds the analytic pre-screen checks
// against. It is a plain-number view of the system so the execution package
// stays on the software side of the model.
type Limits struct {
	// Procs is the number of processors available.
	Procs int
	// Mem1 is the first-level (HBM) per-processor capacity.
	Mem1 units.Bytes
	// Mem2 is the second-level (offload) capacity; zero when the system has
	// no second tier.
	Mem2 units.Bytes
}

// PreScreen is the phase-1 filter of the two-phase strategy evaluation: a
// set of closed-form feasibility bounds cheap enough to run during
// enumeration, rejecting obviously infeasible strategies before any
// layer-level evaluation is built. It is conservative by construction —
// every bound it checks is a provable lower bound on what the full
// performance model would charge — so it never rejects a strategy the full
// evaluation would accept, and search results are bit-identical with the
// pre-screen on or off (only faster). The equivalence property tests pin
// this.
type PreScreen struct {
	m   model.LLM
	lim Limits
}

// NewPreScreen builds the filter for one fixed (model, limits) pair.
func NewPreScreen(m model.LLM, lim Limits) *PreScreen {
	return &PreScreen{m: m, lim: lim}
}

// Check reports whether the strategy certainly cannot run within the
// limits: a non-OK verdict names the bound that rejects it, an OK one means
// it might be feasible and deserves a full evaluation. The strategy must
// already be normalized and structurally valid (Validate). Check is pure,
// allocation-free, and safe for concurrent use.
//
// The memory bound replicates the weight, weight-gradient, and optimizer
// rows of the full model's per-tier accounting exactly — those rows need no
// layer timing, only the closed-form block weight bytes — and the remaining
// rows (activations, gradient working space) are non-negative, so the sum
// here is a true lower bound on each tier's total.
//
// The bound must also round identically to the full model's rows on every
// architecture — a pre-screen that fuses a multiply-add the evaluation does
// not could reject at the boundary — so the arithmetic below is kept
// FMA-free (see docs/LINT.md).
//
//calculonvet:ordered
func (p *PreScreen) Check(st *Strategy) ScreenVerdict {
	if v := p.CheckFit(st); !v.OK() {
		return v
	}

	bp := st.BlocksPerProc(&p.m)
	blockW := layers.BlockWeightBytes(&p.m, st.TP)
	weights := blockW.Times(float64(bp))

	var mem1, mem2 units.Bytes
	w1 := weights
	if st.WeightOffload {
		w1 = minB(weights, 3*blockW)
		mem2 += weights - w1
	}
	mem1 += w1

	if !st.Inference {
		grads := weights
		if st.OptimSharding && st.DPOverlap {
			grads = minB(weights, units.Bytes(3*blockW)+weights.DivN(float64(st.DP)))
		}
		g1 := grads
		if st.WeightOffload {
			g1 = minB(grads, 3*blockW)
			mem2 += grads - g1
		}
		mem1 += g1

		optim := 6 * weights
		if st.OptimSharding {
			optim = optim.DivN(float64(st.DP))
		}
		o1 := optim
		if st.OptimOffload {
			o1 = minB(optim, 3*optim.DivN(float64(bp)))
			mem2 += optim - o1
		}
		mem1 += o1
	}

	if mem1 > p.lim.Mem1 {
		return ScreenVerdict{kind: screenMem1, need: int64(mem1), have: int64(p.lim.Mem1)}
	}
	if mem2 > p.lim.Mem2 {
		return ScreenVerdict{kind: screenMem2, need: int64(mem2), have: int64(p.lim.Mem2)}
	}
	return ScreenVerdict{}
}

// CheckFit applies the two bounds of Check that need no memory accounting:
// the strategy must fit the processor count, and an offloading strategy
// needs a second memory tier. They are exact rather than lower bounds, so
// an evaluation without the pre-screen (the perf tests' reference
// evaluator) still applies them.
func (p *PreScreen) CheckFit(st *Strategy) ScreenVerdict {
	if st.Procs() > p.lim.Procs {
		return ScreenVerdict{kind: screenProcs, need: int64(st.Procs()), have: int64(p.lim.Procs)}
	}
	if (st.WeightOffload || st.ActOffload || st.OptimOffload) && p.lim.Mem2 <= 0 {
		return ScreenVerdict{kind: screenNoMem2}
	}
	return ScreenVerdict{}
}

type screenKind uint8

const (
	screenPass screenKind = iota
	screenProcs
	screenNoMem2
	screenMem1
	screenMem2
)

// ScreenVerdict is the pre-screen's answer for one strategy. It is a plain
// value carrying the rejecting bound and its raw operands: the search path
// screens millions of strategies and reads none of the messages, so Check
// builds no error and pays no fmt (nor units.Bytes' log10-based rendering).
// Err formats the message only when someone asks for it. The zero value is
// the passing verdict.
type ScreenVerdict struct {
	kind       screenKind
	need, have int64
}

// OK reports whether the strategy passed the screen.
func (v ScreenVerdict) OK() bool { return v.kind == screenPass }

// Err returns the rejection as an error, or nil for a passing verdict.
func (v ScreenVerdict) Err() error {
	if v.OK() {
		return nil
	}
	return screenError(v)
}

type screenError ScreenVerdict

func (e screenError) Error() string {
	switch e.kind {
	case screenProcs:
		return fmt.Sprintf("strategy needs %d procs, system has %d", e.need, e.have)
	case screenNoMem2:
		return "offloading requires a second memory tier"
	case screenMem1:
		return fmt.Sprintf("mem1 needs at least %v of %v for weights+gradients+optimizer",
			units.Bytes(e.need), units.Bytes(e.have))
	default:
		return fmt.Sprintf("mem2 needs at least %v of %v for offloaded weights+gradients+optimizer",
			units.Bytes(e.need), units.Bytes(e.have))
	}
}

// CheckTriple reports why every leaf of the (t,p,d) subtree certainly fails
// the pre-screen, or nil when at least one toggle combination passes the
// bound and the subtree must be enumerated. Check's verdict depends only on
// the parallelism degrees and four switches (see EnumOptions.boundLeaves),
// so trying one representative per projection class decides the whole
// subtree exactly: a non-nil return means Check would reject every leaf —
// the lattice search may drop the subtree and count its leaves as
// pre-screened without enumerating them, bit-identically to the leaf-by-leaf
// path. The returned error is the first projection's rejection.
func (p *PreScreen) CheckTriple(o EnumOptions, tpd [3]int) error {
	var first ScreenVerdict
	leaves := o.boundLeaves(tpd)
	for i := range leaves {
		v := p.Check(&leaves[i])
		if v.OK() {
			return nil
		}
		if first.OK() {
			first = v
		}
	}
	return first.Err()
}

func minB(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
