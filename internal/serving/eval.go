package serving

import (
	"errors"

	"calculon/internal/execution"
	"calculon/internal/inference"
	"calculon/internal/perf"
	"calculon/internal/units"
)

// engineProfile is everything stage 2 needs to compose deployments from one
// engine configuration: the steady-state estimate at the mean workload plus
// the worst-bucket batch-1 prefill times that govern TTFT. Profiles land in
// a dense array indexed by the engine's sequence number, so the parallel
// evaluation order cannot influence anything downstream.
type engineProfile struct {
	// ok marks a feasible engine; prescreened marks one rejected by the
	// closed-form capacity bound without pricing.
	ok          bool
	prescreened bool
	// err carries a non-infeasibility failure (a spec-level bug); the
	// search aborts on the lowest-sequence one.
	err error
	// est is the steady-state estimate at the mean workload (mean prompt,
	// mean generation, full batch).
	est inference.Result
	// prefill1 is the slowest bucket's batch-1 prefill time on the decode
	// system — the TTFT prefill term of a colocated deployment.
	prefill1 units.Seconds
	// prefillP1 and prefillPMean are the prefill-pool equivalents on the
	// prefill system (disaggregated mode only): the slowest bucket's
	// batch-1 prefill time, and the mean-prompt batch-1 prefill time that
	// sizes the pool.
	prefillP1    units.Seconds
	prefillPMean units.Seconds
}

// pairPrefill holds the batch-1 prefill estimates every engine of one
// (tp, pp) pair shares: they depend on the parallelism and the KV placement,
// never on the in-flight batch. Each is priced lazily by the first engine of
// the pair that gets that far, so an engine whose own estimate fails prices
// nothing more, as if it were evaluated alone.
type pairPrefill struct {
	// colocated is indexed by KV offload (0 off, 1 on).
	colocated [2]lazyPrefill
	pool      lazyPrefill
}

// lazyPrefill is one memoized group of batch-1 prefill estimates: the
// slowest bucket's prefill time, the mean prompt's (prefill pool only), and
// the first estimation error, which ends the group as it ends an engine.
type lazyPrefill struct {
	done  bool
	worst units.Seconds
	mean  units.Seconds
	err   error
}

// pricers are a search's block-profile memos: one for the decode system
// and one for the prefill pool's, which is the same one unless the spec
// names a separate prefill system (a different compute needs its own memo).
type pricers struct {
	decode, prefill *inference.Pricer
}

// newPricers returns the spec's pricers, empty: they fill as stage 1
// prices engines.
func newPricers(spec *Spec) pricers {
	pr := pricers{decode: inference.NewPricer(spec.Model, spec.System)}
	pr.prefill = pr.decode
	if spec.PrefillSystem != nil {
		pr.prefill = inference.NewPricer(spec.Model, *spec.PrefillSystem)
	}
	return pr
}

// evalEngine prices one engine configuration through the search's pricers,
// drawing its batch-independent prefill estimates from the pair's shared
// memo. Infeasible engines (capacity, divisibility) come back with
// ok=false; any other estimation error is recorded for the search to
// surface. Errors are reported in the order an engine priced alone would
// meet them: its own estimate, then the colocated prefill bucket by
// bucket, then the prefill pool.
func evalEngine(spec *Spec, pr pricers, cfg engineConfig, pbar, gbar int, shared *pairPrefill) engineProfile {
	var p engineProfile
	st := strategyFor(cfg.tp, cfg.pp)
	// The engine occupies exactly tp·pp processors; the budget is a
	// cluster-level bound, so the per-replica estimate runs on a system of
	// the engine's own size.
	procs := cfg.tp * cfg.pp

	est, err := pr.decode.Estimate(procs, st, inference.Workload{
		PromptLen: pbar, GenLen: gbar, Batch: cfg.batch, KVOffload: cfg.kvOffload,
	})
	if err != nil {
		return profileErr(err)
	}
	p.est = est

	kv := 0
	if cfg.kvOffload {
		kv = 1
	}
	c := &shared.colocated[kv]
	if !c.done {
		c.done = true
		c.worst, c.err = worstPrefill(spec, pr.decode, procs, st, cfg.kvOffload, true)
	}
	if c.err != nil {
		return profileErr(c.err)
	}
	p.prefill1 = c.worst

	if spec.Space.Disaggregate {
		pool := &shared.pool
		if !pool.done {
			pool.done = true
			// Prefill replicas run prompt-only passes (GenLen 0) and never
			// offload: they hold one prompt's KV, not a batch's steady state.
			r, err := pr.prefill.Estimate(procs, st, inference.Workload{
				PromptLen: pbar, GenLen: 0, Batch: 1,
			})
			pool.mean, pool.err = r.PrefillTime, err
			if err == nil {
				pool.worst, pool.err = worstPrefill(spec, pr.prefill, procs, st, false, false)
			}
		}
		if pool.err != nil {
			return profileErr(pool.err)
		}
		p.prefillPMean = pool.mean
		p.prefillP1 = pool.worst
	}

	p.ok = true
	return p
}

// worstPrefill prices every bucket's batch-1 prefill in mix order on procs
// processors of the pricer's system and returns the slowest, or the first
// error. withGen keeps each bucket's generation length (a colocated engine
// also decodes the request); without it the pass is prompt-only, as on a
// prefill replica.
func worstPrefill(spec *Spec, pricer *inference.Pricer, procs int, st execution.Strategy, kvOffload, withGen bool) (units.Seconds, error) {
	var worst units.Seconds
	for _, b := range spec.Workload.Mix {
		w := inference.Workload{PromptLen: b.PromptLen, Batch: 1, KVOffload: kvOffload}
		if withGen {
			w.GenLen = b.GenLen
		}
		r, err := pricer.Estimate(procs, st, w)
		if err != nil {
			return 0, err
		}
		if r.PrefillTime > worst {
			worst = r.PrefillTime
		}
	}
	return worst, nil
}

// profileErr folds an estimation error into a profile: infeasibility is a
// normal search outcome, anything else aborts.
func profileErr(err error) engineProfile {
	if errors.Is(err, perf.ErrInfeasible) {
		return engineProfile{}
	}
	return engineProfile{err: err}
}
