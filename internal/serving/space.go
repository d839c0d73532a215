package serving

import (
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

// fits reports whether the engine might hold its weights and steady-state
// KV cache and so deserves pricing; false means it certainly cannot.
//
// The bound must round identically to the full model's accounting on every
// architecture — a screen that fuses a multiply-add the evaluation does not
// could reject at the boundary — so the arithmetic is kept FMA-free and in
// the evaluation's operation order (see docs/LINT.md).
//
//calculonvet:ordered
func (p *preScreen) fits(cfg engineConfig) bool {
	bp := (p.m.Blocks + cfg.pp - 1) / cfg.pp
	blockW := layers.BlockWeightBytes(&p.m, cfg.tp)
	weights := blockW.Times(float64(bp))
	kvPerBlock := inference.KVBytes(&p.m, p.ctx, cfg.tp, cfg.batch)
	if cfg.kvOffload {
		if !p.hasMem2 {
			return false
		}
		kvAll := kvPerBlock.Times(float64(bp))
		buf := 3 * kvPerBlock
		need := weights + buf
		return !(kvAll > p.mem2) && !(need > p.mem1)
	}
	kv := kvPerBlock.Times(float64(bp))
	need := kv + weights
	return !(need > p.mem1)
}
