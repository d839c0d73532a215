package layers

import (
	"calculon/internal/model"
	"calculon/internal/units"
)

// BlockWeightBytes returns one transformer block's per-processor parameter
// storage under tensor parallelism, in closed form — the same value, bit for
// bit, as Sum(Block(m, Shard{TP: tp})).WeightBytes, but without building the
// layer graph. Weight storage depends only on the tensor-parallel degree:
// sequence parallelism, recompute, fusion, microbatch size, and inference
// mode all leave it unchanged.
//
// The execution pre-screen uses this to bound weight/gradient/optimizer
// memory analytically during enumeration, before any layer-level evaluation
// exists; TestBlockWeightBytesMatchesGraph pins the equality against the
// graph sum so the two can never drift apart. The equality must hold on
// every architecture, so the arithmetic is kept FMA-free (see docs/LINT.md).
//
//calculonvet:ordered
func BlockWeightBytes(m *model.LLM, tp int) units.Bytes {
	if tp < 1 {
		tp = 1
	}
	h := float64(m.Hidden)
	hl := float64(ceilDiv(m.AttnHeads, tp)) * float64(m.HeadSize())
	ffl := float64(ceilDiv(m.FF(), tp))
	ln := 2 * units.Bytes(h) * dtype
	gemm := func(k, n float64) units.Bytes { return units.Bytes(float64(k*n)+n) * dtype }
	// Accumulated in the execution order of the weight-bearing layers of
	// Block: attn_ln, attn_qkv, attn_proj, mlp_ln, mlp_fc1, mlp_fc2.
	return ln + gemm(h, 3*hl) + gemm(hl, h) + ln + gemm(h, ffl) + gemm(ffl, h)
}
