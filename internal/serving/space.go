package serving

import (
	"fmt"

	"calculon/internal/execution"
	"calculon/internal/inference"
	"calculon/internal/layers"
	"calculon/internal/model"
	"calculon/internal/units"
)

// engineConfig is one replica-engine point of the enumeration: the
// parallelism degrees, the in-flight batch, and the KV placement. Replica
// counts and the disaggregation split are composed on top in closed form
// (stage 2), so they are not part of the parallel evaluation unit.
type engineConfig struct {
	tp, pp, batch int
	kvOffload     bool
}

// enumerate lists the engine space in the deterministic order every search
// of this spec uses: tp over the divisors of the attention heads, pp over
// the divisors of the blocks, batch in powers of two up to the cap, KV
// placement last. The index in the returned slice is the engine's sequence
// number; deployment tie-breaks derive from it, so the order is part of the
// byte-identical-output contract.
func enumerate(m model.LLM, sp Space) []engineConfig {
	var cfgs []engineConfig
	for _, tp := range divisors(m.AttnHeads) {
		if sp.MaxTP > 0 && tp > sp.MaxTP {
			break
		}
		if tp > sp.Procs {
			break
		}
		for _, pp := range divisors(m.Blocks) {
			if sp.MaxPP > 0 && pp > sp.MaxPP {
				break
			}
			if tp*pp > sp.Procs {
				break
			}
			for _, b := range batchSizes(sp.MaxBatch) {
				cfgs = append(cfgs, engineConfig{tp: tp, pp: pp, batch: b})
				if sp.KVOffload {
					cfgs = append(cfgs, engineConfig{tp: tp, pp: pp, batch: b, kvOffload: true})
				}
			}
		}
	}
	return cfgs
}

// divisors returns the positive divisors of n in ascending order.
func divisors(n int) []int {
	var ds []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// batchSizes returns 1, 2, 4, … up to max, including max itself when it is
// not a power of two.
func batchSizes(max int) []int {
	var bs []int
	for b := 1; b <= max; b *= 2 {
		bs = append(bs, b)
	}
	if last := bs[len(bs)-1]; last != max {
		bs = append(bs, max)
	}
	return bs
}

// strategyFor is the serving execution strategy of one replica engine: a
// single data-parallel engine (replication is modeled above the engine),
// sharded-boundary TP collectives like the CLI's serving defaults.
func strategyFor(tp, pp int) execution.Strategy {
	return execution.Strategy{
		TP: tp, PP: pp, DP: 1,
		Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeNone,
		TPRSAG:    true,
		Inference: true,
	}
}

// preScreen is the serving counterpart of execution.PreScreen: closed-form
// per-processor capacity bounds that reject an engine configuration before
// any pricing. Every bound is a provable lower bound on what
// inference.Estimate charges for the steady-state (mean) workload — the
// working-set term it omits is non-negative — so the screen never rejects an
// engine the full evaluation would accept, and search results are those of
// a search without it (only PreScreened and speed differ). The randomized
// soundness test, which prices every rejected engine directly, pins this.
type preScreen struct {
	m       model.LLM
	ctx     float64 // mean prompt + mean generation length, as Estimate forms it
	batchKV units.Bytes
	mem1    units.Bytes
	mem2    units.Bytes
	hasMem2 bool
}

func newPreScreen(spec *Spec, pbar, gbar int) *preScreen {
	return &preScreen{
		m:       spec.Model,
		ctx:     float64(pbar) + float64(gbar),
		mem1:    spec.System.Mem1.Capacity,
		mem2:    spec.System.Mem2.Capacity,
		hasMem2: spec.System.Mem2.Present(),
	}
}

// check reports why the engine certainly cannot hold its weights and
// steady-state KV cache, or nil when it might be feasible and deserves
// pricing.
//
// The bound must round identically to the full model's accounting on every
// architecture — a screen that fuses a multiply-add the evaluation does not
// could reject at the boundary — so the arithmetic is kept FMA-free and in
// the evaluation's operation order (see docs/LINT.md).
//
//calculonvet:ordered
func (p *preScreen) check(cfg engineConfig) error {
	bp := (p.m.Blocks + cfg.pp - 1) / cfg.pp
	blockW := layers.BlockWeightBytes(&p.m, cfg.tp)
	weights := blockW.Times(float64(bp))
	kvPerBlock := inference.KVBytes(&p.m, p.ctx, cfg.tp, cfg.batch)
	if cfg.kvOffload {
		if !p.hasMem2 {
			return &screenError{kind: screenNoMem2}
		}
		kvAll := kvPerBlock.Times(float64(bp))
		if kvAll > p.mem2 {
			return &screenError{kind: screenMem2, need: int64(kvAll), have: int64(p.mem2)}
		}
		buf := 3 * kvPerBlock
		need := weights + buf
		if need > p.mem1 {
			return &screenError{kind: screenMem1, need: int64(need), have: int64(p.mem1)}
		}
		return nil
	}
	kv := kvPerBlock.Times(float64(bp))
	need := kv + weights
	if need > p.mem1 {
		return &screenError{kind: screenMem1, need: int64(need), have: int64(p.mem1)}
	}
	return nil
}

type screenKind uint8

const (
	screenNoMem2 screenKind = iota
	screenMem1
	screenMem2
)

// screenError defers message formatting to Error(): the screen rejects many
// engines and discards every message, so check must not pay fmt on the hot
// path (the same deferred-formatting discipline as execution's screenError).
type screenError struct {
	kind       screenKind
	need, have int64
}

func (e *screenError) Error() string {
	switch e.kind {
	case screenNoMem2:
		return "KV offload requires a second memory tier"
	case screenMem1:
		return fmt.Sprintf("mem1 needs at least %v of %v for weights+KV cache",
			units.Bytes(e.need), units.Bytes(e.have))
	default:
		return fmt.Sprintf("mem2 needs at least %v of %v for the offloaded KV cache",
			units.Bytes(e.need), units.Bytes(e.have))
	}
}
