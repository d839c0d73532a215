package perf

import (
	"calculon/internal/units"
)

// offload prices the Fig. 8 tensor-offloading engine: while a block
// computes, the previous block's results are written back to second-level
// memory and the next block's operands are prefetched, double-buffered so
// that only ~3 block slots stay resident. Transfers are driven by a
// DMA/TMA-like engine (no processor compute, §6) but are throttled to the
// HBM-idle portion of the compute window (§2.4): time the first-level
// memory is busy cannot also stream offload traffic.
//
// Eq. 1 of the paper gives the seamless-offload requirement
// Bandwidth ≥ Size_tensor / T_compute; the peak of that requirement across
// the forward, backward, and optimizer phases is reported as
// OffloadBWRequired, which the §6 infinite-memory probe reads off.
func (e *eval) offload() {
	w, a, o := e.st.WeightOffload, e.st.ActOffload, e.st.OptimOffload
	if !w && !a && !o {
		return
	}

	blockW := e.tot.WeightBytes
	actBlock := e.actPerMBPerBlock()

	// Bytes crossing the offload link per block visit.
	var fwdBytes, bwdBytes units.Bytes
	if w {
		fwdBytes += blockW     // prefetch weights for the next block
		bwdBytes += 2 * blockW // prefetch weights, stream gradients out
	}
	if a {
		fwdBytes += actBlock // stash this microbatch's activations
		bwdBytes += actBlock // prefetch them for the backward pass
	}
	if o && !e.st.Inference {
		// Optimizer state is prefetched per block during the backward pass
		// (§6: "prefetching activations, weights, and optimizer during the
		// backward pass") — only on the last microbatch's visit, so the
		// per-visit share divides by n.
		params := e.tot.Params()
		if e.st.OptimSharding {
			params /= float64(e.st.DP)
		}
		bwdBytes += units.Bytes(24 * params).DivN(float64(e.n))
	}

	// Overlap windows per block visit: compute slack where HBM is idle plus
	// exposed network time, during which offload streaming is allowed.
	fwdWindow := e.blockFwdSlack + e.tpFwdExposedPerBlock
	bwdWindow := e.blockBwdSlack + e.recompSlack + e.tpBwdExposedPerBlock
	// Eq. 1 windows use the full phase times.
	fwdFull := e.blockFwd + e.tpFwdExposedPerBlock
	bwdFull := e.blockBwd + e.blockRecompute + e.tpBwdExposedPerBlock

	bw2f := e.sys.Mem2.EffectiveBandwidth(fwdBytes)
	bw2b := e.sys.Mem2.EffectiveBandwidth(bwdBytes)
	xferF := fwdBytes.Div(bw2f)
	xferB := bwdBytes.Div(bw2b)
	e.xferFwd, e.xferBwd = xferF, xferB

	visits := float64(e.n) * float64(e.bp)
	e.offloadTotal = (xferF + xferB).Times(visits)
	e.offloadExposed = (maxSec(0, xferF-fwdWindow) + maxSec(0, xferB-bwdWindow)).Times(visits)

	req := maxBPS(fwdBytes.Per(fwdFull), bwdBytes.Per(bwdFull))
	if o && !e.st.Inference {
		// The updated state and weights stream back during the step itself;
		// that write-back time is priced inside optimTime (the step is the
		// max of compute and streaming), counted here in the total. The
		// optimizer, which classTimes runs before offload, priced it.
		e.offloadTotal += e.optimWriteback
	}
	e.offloadBWRequired = req
	if e.sys.Mem2.Bandwidth.IsUnbounded() {
		e.offloadBWUsed = req
	} else {
		// The bandwidth at the larger of the two transfers, already priced.
		bw := bw2b
		if fwdBytes > bwdBytes {
			bw = bw2f
		}
		e.offloadBWUsed = minBPS(req, bw)
	}
}

func maxBPS(a, b units.BytesPerSec) units.BytesPerSec {
	if a > b {
		return a
	}
	return b
}

func minBPS(a, b units.BytesPerSec) units.BytesPerSec {
	if a < b {
		return a
	}
	return b
}
