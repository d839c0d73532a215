// Package inference extends the performance model to LLM serving, the
// second use the paper names ("training and inference of LLMs", §1;
// inference-oriented optimizations are folded into the execution space in
// §2.3). Generation has two phases with very different characters:
//
//   - prefill — one full forward pass over the prompt, GEMM-dominated and
//     priced by the same block graph the training model uses;
//   - decode — one token at a time, where every step must stream the full
//     weight set and the growing key/value cache through memory, making it
//     bandwidth-bound at small batch sizes.
//
// The model accounts KV-cache capacity (the dominant memory consumer of
// long-context serving), tensor/pipeline sharding of both phases, and the
// batch-size crossover from bandwidth-bound to compute-bound decode.
package inference

import (
	"fmt"

	"calculon/internal/comm"
	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

// Workload describes a serving request mix.
type Workload struct {
	// PromptLen is the prompt length in tokens (prefill phase).
	PromptLen int
	// GenLen is the number of generated tokens per sequence (decode phase).
	GenLen int
	// Batch is the number of sequences decoded concurrently.
	Batch int
	// KVOffload stashes the key/value cache in the system's second memory
	// tier (§6's offload memory applied to serving): decode then streams
	// the cache over the offload link instead of holding it in HBM, trading
	// step latency for the ability to serve far longer contexts and bigger
	// batches.
	KVOffload bool
}

// Validate checks the workload.
func (w Workload) Validate() error {
	switch {
	case w.PromptLen < 1:
		return fmt.Errorf("inference: prompt length must be ≥1, got %d", w.PromptLen)
	case w.GenLen < 0:
		return fmt.Errorf("inference: generation length must be ≥0, got %d", w.GenLen)
	case w.Batch < 1:
		return fmt.Errorf("inference: batch must be ≥1, got %d", w.Batch)
	}
	return nil
}

// Result is a serving estimate.
type Result struct {
	// PrefillTime is the time to first token (one prompt forward pass
	// through the pipeline).
	PrefillTime units.Seconds
	// StepTime is the steady-state per-token decode latency.
	StepTime units.Seconds
	// TotalTime is prefill plus GenLen decode steps.
	TotalTime units.Seconds
	// TokensPerSec is generated-token throughput across the batch.
	TokensPerSec float64
	// KVCacheBytes is the per-processor key/value cache at full context.
	KVCacheBytes units.Bytes
	// WeightBytes is the per-processor weight residency.
	WeightBytes units.Bytes
	// Mem1Used is the total first-tier usage (weights + KV + working set).
	Mem1Used units.Bytes
	// DecodeBandwidthBound reports whether the decode step is limited by
	// memory bandwidth rather than compute.
	DecodeBandwidthBound bool
}

// Estimate prices the workload on the system under the strategy. Only the
// parallelism degrees, microbatching, and fused-layer switches of the
// strategy apply; training-only techniques must be off (the strategy is
// validated with Inference forced on).
//
// The memory rows must round identically to the serving pre-screen's
// analytic bound on every architecture, so the arithmetic is kept FMA-free
// (see docs/LINT.md).
//
//calculonvet:ordered
func Estimate(m model.LLM, sys system.System, st execution.Strategy, w Workload) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	st.Normalize()
	st.Inference = true
	st.Recompute = execution.RecomputeNone

	// Prefill: a forward pass over the prompt, reusing the training model's
	// forward path with seq = PromptLen.
	pm := m
	pm.Seq = w.PromptLen
	pm.Batch = w.Batch * st.DP // perf treats Batch globally across DP
	if st.Microbatch > w.Batch {
		st.Microbatch = w.Batch
	}
	pr, err := perf.Run(pm, sys, st)
	if err != nil {
		return Result{}, err
	}

	var res Result
	res.PrefillTime = pr.BatchTime

	// Decode step: GEMMs become skinny matrix-vector products over the
	// batch; attention reads the whole KV cache. Everything is sharded by
	// TP; the pipeline processes the step stage by stage.
	sh := layers.Shard{TP: st.TP, Microbatch: 1, Inference: true, Fused: st.FusedLayers}
	tot := layers.Sum(layers.Block(m, sh))
	blocksPerProc := st.BlocksPerProc(&m)
	// The context length, and the KV bytes below, are formed in floating
	// point: exact (so bit-identical to integer arithmetic) at every size
	// that could fit in memory, and free of integer wrap-around beyond, so
	// an absurd context is reported infeasible instead of as a negative
	// cache.
	ctx := float64(w.PromptLen) + float64(w.GenLen)
	b := float64(w.Batch)

	// Per block per decode step: 2 FLOPs per parameter per sequence in the
	// dense GEMVs, plus the attention reads of the KV cache (QKᵀ and AV,
	// 2·ctx·(h/t) MACs each per sequence).
	blockParams := tot.Params()
	blockDense := units.FLOPs(2 * blockParams * b)
	blockAttn := units.FLOPs(4 * b * ctx * float64(m.Hidden) / float64(st.TP))
	blockFLOPs := blockDense + blockAttn
	procFLOPs := blockFLOPs.Times(float64(blocksPerProc))
	// The per-op size keys the efficiency curve: decode GEMVs are small and
	// run far from peak, which is exactly why decode is bandwidth-bound.
	rate := sys.Compute.MatrixRate(blockFLOPs)
	computeT := procFLOPs.Div(rate)

	kvPerBlock := units.Bytes(2*2*m.Hidden).Times(ctx) / units.Bytes(st.TP) * units.Bytes(w.Batch)
	weights := tot.WeightBytes
	// Per decode step each block streams its weights once and the KV cache
	// of every sequence. With KV offload the cache crosses the second
	// tier's link instead of HBM (new keys/values still write through HBM,
	// a negligible 2·h bytes per token).
	if w.KVOffload && !sys.Mem2.Present() {
		return Result{}, fmt.Errorf("%w: KV offload requires a second memory tier", perf.ErrInfeasible)
	}
	memT := sys.Mem1.AccessTime((weights + kvPerBlock).Times(float64(blocksPerProc)))
	if w.KVOffload {
		kvAll := kvPerBlock.Times(float64(blocksPerProc))
		memT = sys.Mem1.AccessTime(weights.Times(float64(blocksPerProc))) +
			kvAll.Div(sys.Mem2.EffectiveBandwidth(kvAll))
	}

	step := computeT
	res.DecodeBandwidthBound = memT > computeT
	if res.DecodeBandwidthBound {
		step = memT
	}

	// TP communication per decode step: two collectives per block over the
	// batch's hidden vectors — all-reduce normally, or reduce-scatter +
	// all-gather when the strategy shards the boundary (TPRSAG), priced by
	// the shared collective model in internal/comm.
	if st.TP > 1 {
		net := sys.NetworkPtrFor(st.TP)
		vec := units.Bytes(w.Batch*m.Hidden) * 2
		var commOne units.Seconds
		if st.TPRSAG {
			commOne = comm.Time(net, comm.ReduceScatter, st.TP, vec) +
				comm.Time(net, comm.AllGather, st.TP, vec)
		} else {
			commOne = comm.Time(net, comm.AllReduce, st.TP, vec)
		}
		step += commOne.Times(float64(2 * blocksPerProc))
	}
	// A token's latency crosses every pipeline stage plus the boundary
	// hops; steady-state throughput is set by one stage's step time because
	// different sequences of the batch keep the other stages busy
	// (autoregressive decoding cannot pipeline a single sequence).
	stepLatency := step.Times(float64(st.PP)) + p2pLat(sys, st, m, w)
	res.StepTime = stepLatency
	if st.PP > 1 {
		res.TokensPerSec = step.Rate(b * float64(st.DP))
	} else {
		res.TokensPerSec = stepLatency.Rate(b * float64(st.DP))
	}
	res.TotalTime = res.PrefillTime + res.StepTime.Times(float64(w.GenLen))

	res.KVCacheBytes = kvPerBlock.Times(float64(blocksPerProc))
	res.WeightBytes = weights.Times(float64(blocksPerProc))
	res.Mem1Used = res.KVCacheBytes + res.WeightBytes + tot.MaxOutputBytes.Times(2)
	if w.KVOffload {
		// The cache lives in the second tier; HBM keeps a block-sized
		// streaming buffer.
		res.Mem1Used = res.WeightBytes + kvPerBlock.Times(3) + tot.MaxOutputBytes.Times(2)
		if res.KVCacheBytes > sys.Mem2.Capacity {
			return Result{}, fmt.Errorf("%w: KV cache %v exceeds offload tier %v",
				perf.ErrInfeasible, res.KVCacheBytes, sys.Mem2.Capacity)
		}
	}
	if res.Mem1Used > sys.Mem1.Capacity {
		return Result{}, fmt.Errorf("%w: inference needs %v of %v (KV cache %v)",
			perf.ErrInfeasible, res.Mem1Used, sys.Mem1.Capacity, res.KVCacheBytes)
	}
	return res, nil
}

// p2pLat prices the pipeline-boundary hops of one token's latency path:
// PP−1 point-to-point sends of the batch's hidden vectors.
func p2pLat(sys system.System, st execution.Strategy, m model.LLM, w Workload) units.Seconds {
	if st.PP <= 1 {
		return 0
	}
	net := sys.NetworkPtrFor(st.TP * st.PP)
	vec := units.Bytes(w.Batch*m.Hidden) * 2
	return comm.Time(net, comm.P2P, 2, vec).Times(float64(st.PP - 1))
}
