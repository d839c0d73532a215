// Package layers builds the transformer-block layer graph of Fig. 1 of the
// paper: multi-head attention followed by an MLP block, with LayerNorms,
// dropouts and residual connections. For every layer it accounts forward and
// backward FLOPs, memory traffic, parameter storage, and the activation
// bytes that must be stored for the backward pass — each under the sharding
// induced by tensor parallelism and sequence parallelism.
//
// The per-layer activation accounting intentionally reproduces the published
// closed forms: with fp16 and no parallelism a block stores
// 34·s·b·h + 5·a·s²·b bytes, tensor parallelism leaves 10·s·b·h of that
// replicated, and sequence parallelism shards the remainder (Korthikanti et
// al., reimplemented per layer). Tests pin these identities.
package layers

import (
	"slices"

	"calculon/internal/model"
	"calculon/internal/units"
)

// Engine selects which computational unit executes a layer (§2.2:
// computation is assigned to either "matrix" or "vector" execution).
type Engine int

const (
	// Matrix is the GEMM/tensor-core engine.
	Matrix Engine = iota
	// Vector is the element-wise/SIMT engine.
	Vector
)

func (e Engine) String() string {
	if e == Matrix {
		return "matrix"
	}
	return "vector"
}

// Layer is one node of the block graph with everything the processing model
// needs to time it and account its memory.
type Layer struct {
	Name   string
	Engine Engine

	// FLOPs is the forward operation count for one microbatch.
	FLOPs units.FLOPs
	// BwdFLOPs is the backward operation count (GEMMs: dgrad + wgrad ≈ 2×).
	BwdFLOPs units.FLOPs

	// Traffic is forward memory traffic in bytes (inputs + weights read,
	// outputs written). BwdTraffic is the backward equivalent.
	Traffic    units.Bytes
	BwdTraffic units.Bytes

	// WeightBytes is this processor's parameter storage for the layer.
	WeightBytes units.Bytes
	// ActBytes is the per-microbatch activation storage the backward pass
	// needs (the layer's saved inputs/outputs/masks).
	ActBytes units.Bytes
	// SqActBytes is the portion of ActBytes proportional to s² — the
	// attention-matrix tensors that selective (attn) recomputation drops.
	SqActBytes units.Bytes
	// OutputBytes is the size of the layer's output tensor (gradient
	// working-space accounting and offload sizing).
	OutputBytes units.Bytes

	// AttnGroup marks the attention-matrix layers (QKᵀ, softmax, dropout,
	// AV) that selective recomputation re-executes.
	AttnGroup bool
	// Fusable marks element-wise layers that layer fusion folds into their
	// neighbouring GEMM, eliminating their traffic and saved tensors.
	Fusable bool
	// GatheredInput marks layers whose stored input is the full-sequence
	// (all-gathered) tensor under sequence parallelism; the "TP redo"
	// optimization stores the sharded version instead and re-gathers it
	// during the backward pass.
	GatheredInput bool
}

// Params returns the number of parameters in the layer on this processor.
func (l Layer) Params() float64 { return l.WeightBytes.Ratio(2) }

// Shard describes how a block is partitioned and executed on one processor.
type Shard struct {
	// TP is the tensor-parallel degree t.
	TP int
	// SeqParallel shards the residual path (LayerNorms, dropouts) by t.
	SeqParallel bool
	// TPRedo stores sharded GEMM inputs and re-gathers in backward.
	TPRedo bool
	// Fused enables element-wise layer fusion.
	Fused bool
	// Microbatch is the per-pipeline microbatch size b.
	Microbatch int
	// Inference drops all backward-related accounting.
	Inference bool
}

const (
	// dtype is fp16/bf16: two bytes for weights, activations, gradients.
	dtype = units.Bytes(2)
	// maskByte is the dropout-mask element size.
	maskByte = units.Bytes(1)
)

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// blockLayers is the number of layers in a block's graph.
const blockLayers = 13

// Block builds the layer graph of one transformer block for the given model
// under the given sharding. Layers appear in execution order.
func Block(m model.LLM, sh Shard) []Layer {
	return AppendBlock(nil, &m, sh)
}

// AppendBlock appends Block's layer graph to dst and returns the extended
// slice, so a caller that builds many graphs can reuse one buffer. It grows
// dst at most once.
func AppendBlock(dst []Layer, m *model.LLM, sh Shard) []Layer {
	if sh.TP < 1 {
		sh.TP = 1
	}
	if sh.Microbatch < 1 {
		sh.Microbatch = 1
	}
	b := float64(sh.Microbatch)
	s := float64(m.Seq)
	h := float64(m.Hidden)
	headSize := float64(m.HeadSize())
	// Uneven shards are carried by the busiest processor: ceil everywhere.
	localHeads := float64(ceilDiv(m.AttnHeads, sh.TP))
	hl := localHeads * headSize            // local attention width
	ffl := float64(ceilDiv(m.FF(), sh.TP)) // local MLP inner width
	sl := s                                // residual-path sequence slice
	if sh.SeqParallel {
		sl = float64(ceilDiv(m.Seq, sh.TP))
	}

	ls, first := slices.Grow(dst, blockLayers), len(dst)
	add := func(l Layer) {
		if sh.Inference {
			l.BwdFLOPs, l.BwdTraffic, l.ActBytes = 0, 0, 0
		}
		ls = append(ls, l)
	}

	layerNorm := func(name string) Layer {
		elems := b * sl * h
		return Layer{
			Name: name, Engine: Vector,
			FLOPs:    units.FLOPs(5 * elems),
			BwdFLOPs: units.FLOPs(8 * elems),
			// read input + gamma/beta, write output
			Traffic:     units.Bytes(2*elems)*dtype + 2*units.Bytes(h)*dtype,
			BwdTraffic:  units.Bytes(3*elems) * dtype,
			WeightBytes: 2 * units.Bytes(h) * dtype,
			ActBytes:    units.Bytes(elems) * dtype, // saved input
			OutputBytes: units.Bytes(elems) * dtype,
		}
	}

	gemm := func(name string, rows, k, n float64, storedIn units.Bytes, gathered bool) Layer {
		flops := 2 * rows * k * n
		w := units.Bytes(k*n+n) * dtype // matrix + bias
		in := units.Bytes(rows*k) * dtype
		out := units.Bytes(rows*n) * dtype
		return Layer{
			Name: name, Engine: Matrix,
			FLOPs:         units.FLOPs(flops),
			BwdFLOPs:      units.FLOPs(2 * flops), // dgrad + wgrad
			Traffic:       in + w + out,
			BwdTraffic:    2 * (in + w + out),
			WeightBytes:   w,
			ActBytes:      storedIn,
			OutputBytes:   out,
			GatheredInput: gathered,
		}
	}

	// --- Attention half ---------------------------------------------------

	add(layerNorm("attn_ln"))

	// QKV projection consumes the all-gathered full-sequence tensor. Under
	// sequence parallelism with TP-redo the saved copy is the sharded slice.
	qkvStored := units.Bytes(b*s*h) * dtype
	if sh.SeqParallel && sh.TPRedo {
		qkvStored = units.Bytes(b*sl*h) * dtype
	}
	add(gemm("attn_qkv", b*s, h, 3*hl, qkvStored, sh.SeqParallel))

	// QKᵀ attention scores: needs Q and K saved.
	scoreElems := b * localHeads * s * s
	add(Layer{
		Name: "attn_scores", Engine: Matrix,
		FLOPs:       units.FLOPs(2 * b * s * s * hl),
		BwdFLOPs:    units.FLOPs(4 * b * s * s * hl),
		Traffic:     units.Bytes(2*b*s*hl+scoreElems) * dtype,
		BwdTraffic:  2 * units.Bytes(2*b*s*hl+scoreElems) * dtype,
		ActBytes:    2 * units.Bytes(b*s*hl) * dtype, // Q and K
		OutputBytes: units.Bytes(scoreElems) * dtype,
		AttnGroup:   true,
	})

	add(Layer{
		Name: "attn_softmax", Engine: Vector,
		FLOPs:       units.FLOPs(5 * scoreElems),
		BwdFLOPs:    units.FLOPs(8 * scoreElems),
		Traffic:     2 * units.Bytes(scoreElems) * dtype,
		BwdTraffic:  3 * units.Bytes(scoreElems) * dtype,
		ActBytes:    units.Bytes(scoreElems) * dtype, // saved output
		SqActBytes:  units.Bytes(scoreElems) * dtype,
		OutputBytes: units.Bytes(scoreElems) * dtype,
		AttnGroup:   true,
	})

	add(Layer{
		Name: "attn_dropout", Engine: Vector,
		FLOPs:       units.FLOPs(scoreElems),
		BwdFLOPs:    units.FLOPs(scoreElems),
		Traffic:     2*units.Bytes(scoreElems)*dtype + units.Bytes(scoreElems)*maskByte,
		BwdTraffic:  2*units.Bytes(scoreElems)*dtype + units.Bytes(scoreElems)*maskByte,
		ActBytes:    units.Bytes(scoreElems) * maskByte, // mask
		SqActBytes:  units.Bytes(scoreElems) * maskByte,
		OutputBytes: units.Bytes(scoreElems) * dtype,
		AttnGroup:   true,
		Fusable:     true,
	})

	// Attention × V: needs the dropped scores and V saved.
	add(Layer{
		Name: "attn_av", Engine: Matrix,
		FLOPs:       units.FLOPs(2 * b * s * s * hl),
		BwdFLOPs:    units.FLOPs(4 * b * s * s * hl),
		Traffic:     units.Bytes(scoreElems+2*b*s*hl) * dtype,
		BwdTraffic:  2 * units.Bytes(scoreElems+2*b*s*hl) * dtype,
		ActBytes:    units.Bytes(scoreElems+b*s*hl) * dtype, // scores + V
		SqActBytes:  units.Bytes(scoreElems) * dtype,        // V is kept
		OutputBytes: units.Bytes(b*s*hl) * dtype,
		AttnGroup:   true,
	})

	add(gemm("attn_proj", b*s, hl, h, units.Bytes(b*s*hl)*dtype, false))

	// Post-attention dropout + residual add (on the sharded residual path
	// under sequence parallelism).
	residElems := b * sl * h
	add(Layer{
		Name: "attn_resid", Engine: Vector,
		FLOPs:       units.FLOPs(2 * residElems),
		BwdFLOPs:    units.FLOPs(2 * residElems),
		Traffic:     3*units.Bytes(residElems)*dtype + units.Bytes(residElems)*maskByte,
		BwdTraffic:  2*units.Bytes(residElems)*dtype + units.Bytes(residElems)*maskByte,
		ActBytes:    units.Bytes(residElems) * maskByte, // mask
		OutputBytes: units.Bytes(residElems) * dtype,
		Fusable:     true,
	})

	// --- MLP half ----------------------------------------------------------

	add(layerNorm("mlp_ln"))

	fc1Stored := units.Bytes(b*s*h) * dtype
	if sh.SeqParallel && sh.TPRedo {
		fc1Stored = units.Bytes(b*sl*h) * dtype
	}
	add(gemm("mlp_fc1", b*s, h, ffl, fc1Stored, sh.SeqParallel))

	geluElems := b * s * ffl
	add(Layer{
		Name: "mlp_gelu", Engine: Vector,
		FLOPs:       units.FLOPs(8 * geluElems),
		BwdFLOPs:    units.FLOPs(13 * geluElems),
		Traffic:     2 * units.Bytes(geluElems) * dtype,
		BwdTraffic:  3 * units.Bytes(geluElems) * dtype,
		ActBytes:    units.Bytes(geluElems) * dtype, // saved input
		OutputBytes: units.Bytes(geluElems) * dtype,
		Fusable:     true,
	})

	add(gemm("mlp_fc2", b*s, ffl, h, units.Bytes(geluElems)*dtype, false))

	add(Layer{
		Name: "mlp_resid", Engine: Vector,
		FLOPs:       units.FLOPs(2 * residElems),
		BwdFLOPs:    units.FLOPs(2 * residElems),
		Traffic:     3*units.Bytes(residElems)*dtype + units.Bytes(residElems)*maskByte,
		BwdTraffic:  2*units.Bytes(residElems)*dtype + units.Bytes(residElems)*maskByte,
		ActBytes:    units.Bytes(residElems) * maskByte,
		OutputBytes: units.Bytes(residElems) * dtype,
		Fusable:     true,
	})

	if sh.Fused {
		for i := first; i < len(ls); i++ {
			if ls[i].Fusable {
				// The op is executed inside the neighbouring kernel's
				// epilogue: its tensors never round-trip through memory and
				// its masks are regenerated rather than stored.
				ls[i].Traffic = 0
				ls[i].BwdTraffic = 0
				ls[i].ActBytes = 0
				ls[i].SqActBytes = 0
			}
		}
	}
	return ls
}

// BlockInputBytes returns the size of a block's boundary tensor for one
// microbatch — what full recomputation stores, what pipeline point-to-point
// communication carries, and what activation offload moves per block. Under
// sequence parallelism the boundary tensor lives sharded.
func BlockInputBytes(m model.LLM, sh Shard) units.Bytes {
	if sh.TP < 1 {
		sh.TP = 1
	}
	if sh.Microbatch < 1 {
		sh.Microbatch = 1
	}
	rows := float64(sh.Microbatch) * float64(m.Seq)
	if sh.SeqParallel {
		rows = float64(sh.Microbatch) * float64(ceilDiv(m.Seq, sh.TP))
	}
	return units.Bytes(rows*float64(m.Hidden)) * dtype
}
