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
// The memory bound is the weight, weight-gradient and optimizer rows of the
// full model's per-tier accounting (WeightRows, OptimizerRows, the same
// functions the full model calls), which need no layer timing, only the
// closed-form block weight bytes. The remaining rows (activations, gradient
// working space) are non-negative, so the sum here is a true lower bound on
// each tier's total. The sums are kept FMA-free (see docs/LINT.md).
//
//calculonvet:ordered
func (p *PreScreen) Check(st *Strategy) ScreenVerdict {
	if v := p.CheckFit(st); !v.OK() {
		return v
	}
	bp := st.BlocksPerProc(&p.m)
	blockW := layers.BlockWeightBytes(&p.m, st.TP)
	w1, w2, g1, g2 := st.WeightRows(blockW, bp)
	o1, o2 := st.OptimizerRows(blockW, bp)
	if mem1 := w1 + g1 + o1; mem1 > p.lim.Mem1 {
		return ScreenVerdict{kind: screenMem1, need: int64(mem1), have: int64(p.lim.Mem1)}
	}
	if mem2 := w2 + g2 + o2; mem2 > p.lim.Mem2 {
		return ScreenVerdict{kind: screenMem2, need: int64(mem2), have: int64(p.lim.Mem2)}
	}
	return ScreenVerdict{}
}

// The memory rows below give the per-processor bytes of a category in each
// tier, for blockW weight bytes per block and bp blocks per processor. They
// are the one implementation of those rows: the full model's accounting
// (perf) and the pre-screen's bound both call them. Offloaded categories
// keep a Fig. 8 working set — compute, prefetch, and writeback buffers for
// one block — resident in the first tier and stash the remainder in the
// second. Their rounding is part of the pre-screen's and the segment
// floor's soundness proofs on every architecture, so the arithmetic is kept
// FMA-free (see docs/LINT.md).

// WeightRows returns the weights and their fp16 gradients, the same size,
// per tier; an inference strategy keeps no gradients. With a sharded
// optimizer and overlapped DP communication the gradients are
// reduce-scattered per block as the backward drains, so only the local
// shard plus a per-block working set persists (ZeRO).
//
//calculonvet:ordered
func (s *Strategy) WeightRows(blockW units.Bytes, bp int) (w1, w2, g1, g2 units.Bytes) {
	weights := blockW.Times(float64(bp))
	w1, w2 = Residency(weights, 3*blockW, s.WeightOffload)
	if s.Inference {
		return w1, w2, 0, 0
	}
	grads := weights
	if s.OptimSharding && s.DPOverlap {
		grads = minBytes(weights, units.Bytes(3*blockW)+weights.DivN(float64(s.DP)))
	}
	g1, g2 = Residency(grads, 3*blockW, s.WeightOffload)
	return w1, w2, g1, g2
}

// OptimizerRows returns the Adam state per tier: fp32 master weights + two
// fp32 moments = 12 bytes per parameter = 6× the fp16 weight bytes, sharded
// across DP when optimizer sharding is on. An inference strategy keeps none.
//
//calculonvet:ordered
func (s *Strategy) OptimizerRows(blockW units.Bytes, bp int) (o1, o2 units.Bytes) {
	if s.Inference {
		return 0, 0
	}
	optim := 6 * blockW.Times(float64(bp))
	if s.OptimSharding {
		optim = optim.DivN(float64(s.DP))
	}
	return Residency(optim, 3*optim.DivN(float64(bp)), s.OptimOffload)
}

// Residency splits a category's bytes between the tiers: all in the first,
// or when offloaded, at most the working set there and the rest in the
// second.
func Residency(total, working units.Bytes, offloaded bool) (mem1, mem2 units.Bytes) {
	if !offloaded {
		return total, 0
	}
	resident := minBytes(total, working)
	return resident, total - resident
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
// bound and the subtree must be enumerated. Check reads only the
// parallelism degrees and the screen switches, so trying each combination
// of them the lattice holds (Toggles.ScreenSwitches) decides the whole
// subtree exactly: a non-nil return means Check would reject every leaf —
// the lattice search may drop the subtree and count its leaves as
// pre-screened without enumerating them, bit-identically to the leaf-by-leaf
// path. The returned error is the first combination's rejection. CheckTriple
// inlines, so a caller that only compares the error with nil allocates
// nothing.
func (p *PreScreen) CheckTriple(o EnumOptions, tpd [3]int) error {
	return p.screenTriple(o, tpd).Err()
}

// screenTriple is CheckTriple's verdict: the first combination's rejection,
// or a pass when any combination passes.
func (p *PreScreen) screenTriple(o EnumOptions, tpd [3]int) ScreenVerdict {
	root := Strategy{TP: tpd[0], PP: tpd[1], DP: tpd[2], Microbatch: 1, Interleave: 1}
	tog := o.Toggles()
	var first ScreenVerdict
	for i := 0; i < tog.screenCombos(); i++ {
		tog.setScreen(&root, i)
		v := p.Check(&root)
		if v.OK() {
			return v
		}
		if i == 0 {
			first = v
		}
	}
	return first
}

func minBytes(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
