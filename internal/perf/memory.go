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
	return storedActs(&e.tot, e.boundaryBytes, e.st.Recompute)
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
// and *mem2 in place. Offloaded categories keep a Fig. 8 working set —
// compute, prefetch, and writeback buffers for one block — resident in the
// first tier and stash the remainder in the second. The rows must agree bit
// for bit with the pre-screen's analytic lower bound on every architecture,
// so the arithmetic is kept FMA-free (see docs/LINT.md).
//
// weightRows writes the weights and their fp16 gradients, the same size.
// With a sharded optimizer and overlapped DP communication the gradients
// are reduce-scattered per block as the backward drains, so only the local
// shard plus a per-block working set persists (ZeRO).
//
//calculonvet:ordered
func (e *eval) weightRows(mem1, mem2 *MemBreakdown) {
	blockW := e.tot.WeightBytes
	weights := blockW.Times(float64(e.bp))
	mem1.Weights, mem2.Weights = residency(weights, 3*blockW, e.st.WeightOffload)
	mem1.WeightGrads, mem2.WeightGrads = 0, 0
	if e.st.Inference {
		return
	}
	grads := weights
	if e.st.OptimSharding && e.st.DPOverlap {
		grads = minBytes(weights, units.Bytes(3*blockW)+weights.DivN(float64(e.st.DP)))
	}
	mem1.WeightGrads, mem2.WeightGrads = residency(grads, 3*blockW, e.st.WeightOffload)
}

// optimizerRows writes the Adam state: fp32 master weights + two fp32
// moments = 12 bytes per parameter = 6× the fp16 weight bytes, sharded
// across DP when optimizer sharding is on.
//
//calculonvet:ordered
func (e *eval) optimizerRows(mem1, mem2 *MemBreakdown) {
	mem1.Optimizer, mem2.Optimizer = 0, 0
	if e.st.Inference {
		return
	}
	optim := 6 * e.tot.WeightBytes.Times(float64(e.bp))
	if e.st.OptimSharding {
		optim = optim.DivN(float64(e.st.DP))
	}
	mem1.Optimizer, mem2.Optimizer = residency(optim, 3*optim.DivN(float64(e.bp)), e.st.OptimOffload)
}

// activationRows writes the stored activations and the working space for
// the gradient through the current layer (double-buffered largest tensor),
// which inference needs for the live activations instead.
//
//calculonvet:ordered
func (e *eval) activationRows(mem1, mem2 *MemBreakdown) {
	actBlock := e.actPerMBPerBlock()
	acts := actBlock.Times(float64(e.bp) * e.inflightMicrobatches())
	mem1.Activations, mem2.Activations = residency(acts, 3*actBlock, e.st.ActOffload)
	work := 2 * e.tot.MaxOutputBytes
	if e.st.Inference {
		mem1.Activations += work
		mem1.ActGrads = 0
	} else {
		mem1.ActGrads = work
	}
}

// residency splits a category's bytes between the tiers: all in the first,
// or when offloaded, at most the working set there and the rest in the
// second.
func residency(total, working units.Bytes, offloaded bool) (mem1, mem2 units.Bytes) {
	if !offloaded {
		return total, 0
	}
	resident := minBytes(total, working)
	return resident, total - resident
}

func minBytes(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
