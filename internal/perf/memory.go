package perf

import (
	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/units"
)

// actPerMBPerBlock returns the stored-activation bytes one microbatch leaves
// behind in one block, under the strategy's recompute mode (storedActs).
func (e *eval) actPerMBPerBlock() units.Bytes {
	if e.st.Inference {
		return 0
	}
	return storedActs(e.tot, e.boundaryBytes, e.st.Recompute)
}

// storedActs returns a training block's stored activations per microbatch
// under a recompute mode, from its profile's totals and boundary bytes:
// everything, the non-attention-matrix tensors, or just the block's input.
func storedActs(tot *layers.Totals, boundary units.Bytes, mode execution.RecomputeMode) units.Bytes {
	switch mode {
	case execution.RecomputeFull:
		return boundary
	case execution.RecomputeAttn:
		return tot.ActBytes - tot.SqActBytes
	default:
		return tot.ActBytes
	}
}

// inflightMicrobatches returns how many microbatches' activations the
// busiest (first) pipeline stage holds simultaneously. Plain 1F1B holds p;
// the interleaved schedule holds p·(1 + (p−1)/(p·v)) — "an even larger
// activation space", §4.1 — and a GPipe-style schedule holds all n.
func (e *eval) inflightMicrobatches() float64 {
	if e.st.Inference {
		return 1
	}
	p, v, n := e.st.PP, e.st.Interleave, e.n
	if p == 1 {
		return 1
	}
	if !e.st.OneFOneB {
		return float64(n)
	}
	base := float64(p)
	if v > 1 {
		base = float64(p) * (1 + float64(p-1)/float64(p*v))
	}
	if float64(n) < base {
		return float64(n)
	}
	return base
}

// The three memory rows produce the per-processor consumption of both
// tiers (§2.4's memory reporting), each writing its own categories of *mem1
// and *mem2 in place. The weight and optimizer rows are execution's
// (Strategy.WeightRows, OptimizerRows), which the pre-screen's bound calls
// too; all three rows split an offloaded category with
// execution.Residency.

// weightRows writes the weights and their gradients.
func (e *eval) weightRows(mem1, mem2 *MemBreakdown) {
	mem1.Weights, mem2.Weights, mem1.WeightGrads, mem2.WeightGrads = e.st.WeightRows(e.tot.WeightBytes, e.bp)
}

// optimizerRows writes the optimizer state.
func (e *eval) optimizerRows(mem1, mem2 *MemBreakdown) {
	mem1.Optimizer, mem2.Optimizer = e.st.OptimizerRows(e.tot.WeightBytes, e.bp)
}

// activationRows writes the stored activations and the working space for
// the gradient through the current layer (double-buffered largest tensor),
// which inference needs for the live activations instead.
//
//calculonvet:ordered
func (e *eval) activationRows(mem1, mem2 *MemBreakdown) {
	actBlock := e.actPerMBPerBlock()
	acts := actBlock.Times(float64(e.bp) * e.inflightMicrobatches())
	mem1.Activations, mem2.Activations = execution.Residency(acts, 3*actBlock, e.st.ActOffload)
	work := 2 * e.tot.MaxOutputBytes
	if e.st.Inference {
		mem1.Activations += work
		mem1.ActGrads = 0
	} else {
		mem1.ActGrads = work
	}
}

func minBytes(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
