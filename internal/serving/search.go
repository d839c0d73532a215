package serving

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"calculon/internal/comm"
	"calculon/internal/search"
	"calculon/internal/tco"
	"calculon/internal/units"
)

// frontierCompactAt bounds the candidate buffer between Pareto compactions.
const frontierCompactAt = 4096

// Search runs the SLO-constrained serving co-design search and returns the
// Pareto frontier of deployments meeting the workload's latency objectives.
//
// The search is deterministic by construction, in two stages. Stage 1
// prices every engine configuration (tp, pp, batch, KV placement) in
// parallel under the worker budget, writing profiles into a dense array
// indexed by the enumeration sequence — worker count and scheduling cannot
// influence a single byte of what stage 2 sees. Stage 2 is serial closed
// form: it composes replica counts and disaggregation splits on top of the
// profiles, filters on the SLOs, prices $/Mtoken, and compacts the
// three-objective Pareto frontier with sequence-number tie-breaks. The
// randomized equivalence test pins byte-identical output across -workers 1
// and -workers N.
func Search(ctx context.Context, spec Spec, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}

	prog := opts.Progress
	if prog == nil && opts.OnProgress != nil {
		prog = &search.Progress{}
	}

	// The store is consulted before anything is evaluated, mirroring
	// search.Execution: a hit returns the stored verdict whole and leaves
	// only StoreHits on the live counters.
	useStore := opts.Cache != nil && !opts.DisableStore
	if useStore {
		if res, ok := opts.Cache.Lookup(spec, opts); ok {
			if prog != nil {
				prog.MarkStart()
				prog.AddCounts(search.Counts{StoreHits: 1})
			}
			if opts.OnProgress != nil {
				opts.OnProgress(prog.Snapshot())
			}
			return res, nil
		}
	}

	cfgs := enumerate(spec.Model, spec.Space)
	if prog != nil {
		prog.MarkStart()
		if opts.EstimateTotal {
			prog.AddTotal(int64(len(cfgs)))
		}
	}
	if opts.OnProgress != nil {
		stop := search.StartProgressTicker(ctx, prog, opts.OnProgress, opts.ProgressInterval)
		defer func() {
			stop()
			opts.OnProgress(prog.Snapshot())
		}()
	}

	pbar := spec.Workload.MeanPromptLen()
	gbar := spec.Workload.MeanGenLen()
	profiles := evalAll(ctx, &spec, opts, prog, cfgs, pbar, gbar)
	if err := ctx.Err(); err != nil {
		// A cancelled stage 1 leaves an unpredictable prefix of the
		// profiles; composing a frontier from it would silently lie.
		return Result{}, err
	}
	out, err := compose(&spec, cfgs, profiles, pbar, gbar)
	if err != nil {
		return Result{}, err
	}
	if prog != nil {
		prog.AddCounts(search.Counts{Feasible: int64(out.Feasible)})
	}
	if useStore && ctx.Err() == nil {
		opts.Cache.Store(spec, opts, out)
	}
	return out, ctx.Err()
}

// evalAll is stage 1: the parallel engine-profile evaluation. A worker
// claims one (tp, pp) pair at a time — the pair's engines are contiguous in
// the enumeration and share their batch-independent prefill estimates
// (pairPrefill) — and writes into the dense profiles array. After
// cancellation workers keep draining so the producer's sends always
// complete. A non-nil prog receives live Evaluated/PreScreened counts.
func evalAll(ctx context.Context, spec *Spec, opts Options, prog *search.Progress, cfgs []engineConfig, pbar, gbar int) []engineProfile {
	workers := opts.workers()
	var screen *preScreen
	if !opts.DisablePreScreen {
		screen = newPreScreen(spec, pbar, gbar)
	}
	profiles := make([]engineProfile, len(cfgs))
	type span struct{ lo, hi int }
	spans := make(chan span, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range spans {
				if ctx.Err() != nil {
					continue
				}
				var shared pairPrefill
				var delta search.Counts
				for i := s.lo; i < s.hi; i++ {
					delta.Evaluated++
					if screen != nil {
						if err := screen.check(cfgs[i]); err != nil {
							profiles[i].prescreened = true
							delta.PreScreened++
							continue
						}
					}
					profiles[i] = evalEngine(spec, cfgs[i], pbar, gbar, &shared)
				}
				if prog != nil {
					prog.AddCounts(delta)
				}
			}
		}()
	}
produce:
	for lo := 0; lo < len(cfgs); {
		hi := lo + 1
		for hi < len(cfgs) && cfgs[hi].tp == cfgs[lo].tp && cfgs[hi].pp == cfgs[lo].pp {
			hi++
		}
		select {
		case <-ctx.Done():
			break produce
		case spans <- span{lo, hi}:
		}
		lo = hi
	}
	close(spans)
	wg.Wait()
	return profiles
}

// compose is stage 2: serial closed-form composition of deployments from
// the engine profiles at the budget spec.Space.Procs. It reads the engines
// that fit the budget (tp·pp ≤ Procs) — all of cfgs when they were
// enumerated at this budget, the budget's subsequence when they were
// enumerated at a larger one, which is the same list in the same order. It
// surfaces the lowest-sequence spec-level failure; otherwise, for every
// feasible engine it enumerates colocated replica counts and (when enabled)
// disaggregated decode/prefill pool splits, keeps the SLO-feasible ones,
// and streams them through the Pareto compactor. Being serial over the
// deterministic profile order, its output is independent of stage 1's
// scheduling by construction.
func compose(spec *Spec, cfgs []engineConfig, profiles []engineProfile, pbar, gbar int) (Result, error) {
	// The unit price is validated by Spec.Validate, so ProcHour cannot fail.
	hourly, _ := tco.ProcHour(spec.Assumptions)
	slo := spec.Workload.SLO

	// One prompt's full-model KV cache crosses the scale-out network from
	// the prefill pool to a decode replica (disaggregated mode).
	kvShip := units.Bytes(2 * 2 * spec.Model.Hidden).Times(float64(pbar)).Times(float64(spec.Model.Blocks))
	so := spec.System.ScaleOut()
	kvT := comm.Time(&so, comm.P2P, 2, kvShip)

	var out Result
	var fr frontier
	seq := 0
	for i := range profiles {
		cfg := cfgs[i]
		engineProcs := cfg.tp * cfg.pp
		if engineProcs > spec.Space.Procs {
			continue
		}
		out.Evaluated++
		p := &profiles[i]
		if p.prescreened {
			out.PreScreened++
		}
		if p.err != nil {
			return Result{}, p.err
		}
		if !p.ok {
			continue
		}
		maxR := spec.Space.Procs / engineProcs
		if spec.Space.MaxReplicas > 0 && maxR > spec.Space.MaxReplicas {
			maxR = spec.Space.MaxReplicas
		}

		// Colocated continuous batching: the engine retires cfg.batch
		// sequences every ḡ steps and owes their prefill work in return;
		// chunked across the window, each decode step (on each stage)
		// carries 1/(ḡ·PP) of a full-batch prefill.
		tpot := p.est.StepTime + p.est.PrefillTime.DivN(float64(gbar))
		ttft := p.prefill1 + tpot
		perStage := units.Seconds(float64(cfg.batch) / p.est.TokensPerSec)
		interf := p.est.PrefillTime.DivN(float64(gbar * cfg.pp))
		perReplica := (perStage + interf).Rate(float64(cfg.batch))
		for r := 1; r <= maxR; r++ {
			seq++
			if tpot > slo.TPOT || ttft > slo.TTFT {
				continue
			}
			out.Feasible++
			procs := r * engineProcs
			cluster := float64(r) * perReplica
			fr.push(Deployment{
				Seq: seq, TP: cfg.tp, PP: cfg.pp, Batch: cfg.batch, KVOffload: cfg.kvOffload,
				Replicas: r, Procs: procs,
				TTFT: ttft, TPOT: tpot,
				UserTokensPerSec:     tpot.Rate(1),
				ClusterTokensPerSec:  cluster,
				CostPerMToken:        costPerMToken(procs, cluster, hourly),
				DecodeBandwidthBound: p.est.DecodeBandwidthBound,
			})
		}

		if !spec.Space.Disaggregate {
			continue
		}
		// Disaggregated pools: decode replicas run pure decode (no prefill
		// interference), a separately-sized prefill pool keeps up with the
		// retirement rate, and each admitted request pays the KV shipment
		// on its TTFT path.
		tpotD := p.est.StepTime
		tputD := p.est.TokensPerSec
		ttftD := p.prefillP1 + kvT + tpotD
		// Each decode replica retires tputD/ḡ requests per second; a
		// prefill replica completes one mean prompt per prefillPMean.
		reqRate := tputD / float64(gbar)
		for rd := 1; rd <= maxR; rd++ {
			rp := int(math.Ceil(p.prefillPMean.AtRate(float64(rd) * reqRate)))
			if rp < 1 {
				rp = 1
			}
			if spec.Space.MaxReplicas > 0 && rp > spec.Space.MaxReplicas {
				break
			}
			procs := rd*engineProcs + rp*engineProcs
			if procs > spec.Space.Procs {
				break
			}
			seq++
			if tpotD > slo.TPOT || ttftD > slo.TTFT {
				continue
			}
			out.Feasible++
			cluster := float64(rd) * tputD
			fr.push(Deployment{
				Seq: seq, TP: cfg.tp, PP: cfg.pp, Batch: cfg.batch, KVOffload: cfg.kvOffload,
				Disaggregated: true, Replicas: rd, PrefillReplicas: rp, Procs: procs,
				TTFT: ttftD, TPOT: tpotD, KVTransferTime: kvT,
				UserTokensPerSec:     tpotD.Rate(1),
				ClusterTokensPerSec:  cluster,
				CostPerMToken:        costPerMToken(procs, cluster, hourly),
				DecodeBandwidthBound: p.est.DecodeBandwidthBound,
			})
		}
	}
	fr.compact()
	out.Frontier = fr.pts
	if len(out.Frontier) > 0 {
		out.Best = &out.Frontier[0]
	}
	return out, nil
}

// costPerMToken is tco.CostPerMToken with the hourly unit price hoisted out
// of the composition loop.
func costPerMToken(procs int, tokensPerSec, hourly float64) float64 {
	return float64(procs) * hourly / (tokensPerSec * 3_600) * 1e6
}

// frontier accumulates candidate deployments and keeps only the Pareto-
// optimal set over (UserTokensPerSec ↑, ClusterTokensPerSec ↑,
// CostPerMToken ↓). Compaction is order-independent: the surviving set of a
// candidate stream is the same however the stream is buffered, and
// objective-equal duplicates keep only the lowest sequence number — both
// necessary for the byte-identical-output contract.
type frontier struct {
	pts []Deployment
}

func (f *frontier) push(d Deployment) {
	f.pts = append(f.pts, d)
	if len(f.pts) >= frontierCompactAt {
		f.compact()
	}
}

// compact sorts by (cost asc, user rate desc, cluster rate desc, seq asc)
// and drops every point weakly dominated by an earlier survivor; a point
// equal on all three objectives counts as dominated, so each objective
// triple keeps exactly one canonical (lowest-seq) representative.
func (f *frontier) compact() {
	sort.Slice(f.pts, func(i, j int) bool {
		a, b := &f.pts[i], &f.pts[j]
		if a.CostPerMToken != b.CostPerMToken {
			return a.CostPerMToken < b.CostPerMToken
		}
		if a.UserTokensPerSec != b.UserTokensPerSec {
			return a.UserTokensPerSec > b.UserTokensPerSec
		}
		if a.ClusterTokensPerSec != b.ClusterTokensPerSec {
			return a.ClusterTokensPerSec > b.ClusterTokensPerSec
		}
		return a.Seq < b.Seq
	})
	kept := f.pts[:0]
	for _, d := range f.pts {
		dominated := false
		for k := range kept {
			if dominates(&kept[k], &d) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, d)
		}
	}
	f.pts = kept
}

// dominates reports whether a is at least as good as b on every objective
// (equality on all three counts, deduplicating the frontier).
func dominates(a, b *Deployment) bool {
	return a.CostPerMToken <= b.CostPerMToken &&
		a.UserTokensPerSec >= b.UserTokensPerSec &&
		a.ClusterTokensPerSec >= b.ClusterTokensPerSec
}

// SizeResult is one point of the right-sizing sweep.
type SizeResult struct {
	// Procs is the cluster processor budget of this point.
	Procs int `json:"procs"`
	// Result is the full serving search at that budget.
	Result Result `json:"result"`
}

// Sweep is the serving right-sizing sweep: the Search result at every
// processor budget in sizes, in order.
//
// An engine's profile depends on (tp, pp, batch, KV placement), never on
// the budget, and the engines that fit a budget N are exactly the
// order-preserving subsequence of a larger budget's enumeration with
// tp·pp ≤ N. So the sweep runs stage 1 once: it consults the store for
// every budget, enumerates and prices the engines of the largest budget
// that missed under the whole worker budget, and then composes each missed
// budget from its subsequence — independent closed-form stage 2 runs, in
// parallel under the same worker budget. Every point is byte-identical to
// a standalone Search at that budget (TestSweepMatchesSearch), and each
// consults and fills the store under its own key. A Progress attached
// through opts ends with the totals the per-budget searches would report:
// each budget's counts land as it is composed.
//
// A cancelled sweep returns ctx.Err() and no points; cancelled during
// stage 1, it composes nothing. Otherwise the error of the lowest-index
// failing budget wins — for an invalid budget, the text Search gives.
func Sweep(ctx context.Context, spec Spec, sizes []int, opts Options) ([]SizeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prog := opts.Progress
	if prog == nil && opts.OnProgress != nil {
		prog = &search.Progress{}
	}
	if prog != nil {
		prog.MarkStart()
	}
	if opts.OnProgress != nil {
		stop := search.StartProgressTicker(ctx, prog, opts.OnProgress, opts.ProgressInterval)
		defer func() {
			stop()
			opts.OnProgress(prog.Snapshot())
		}()
	}

	spec = spec.Normalize()
	at := func(n int) Spec {
		sp := spec
		sp.Space.Procs = n
		return sp
	}
	useStore := opts.Cache != nil && !opts.DisableStore
	out := make([]SizeResult, len(sizes))
	errs := make([]error, len(sizes))
	var missed []int
	top := 0
	for i, n := range sizes {
		sp := at(n)
		if err := sp.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if useStore {
			if res, ok := opts.Cache.Lookup(sp, opts); ok {
				out[i] = SizeResult{Procs: n, Result: res}
				if prog != nil {
					prog.AddCounts(search.Counts{StoreHits: 1})
				}
				continue
			}
		}
		missed = append(missed, i)
		top = max(top, n)
	}

	if len(missed) > 0 {
		topSpec := at(top)
		cfgs := enumerate(topSpec.Model, topSpec.Space)
		if prog != nil && opts.EstimateTotal {
			for _, i := range missed {
				prog.AddTotal(int64(fitting(cfgs, sizes[i])))
			}
		}
		pbar := spec.Workload.MeanPromptLen()
		gbar := spec.Workload.MeanGenLen()
		profiles := evalAll(ctx, &topSpec, opts, nil, cfgs, pbar, gbar)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		composeAll(ctx, opts, len(missed), func(k int) {
			// Largest budgets first: with ascending sizes they are the
			// longest compositions, so the pool drains evenly.
			i := missed[len(missed)-1-k]
			sp := at(sizes[i])
			res, err := compose(&sp, cfgs, profiles, pbar, gbar)
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = SizeResult{Procs: sizes[i], Result: res}
			if prog != nil {
				prog.AddCounts(search.Counts{
					Evaluated:   int64(res.Evaluated),
					PreScreened: int64(res.PreScreened),
					Feasible:    int64(res.Feasible),
				})
			}
			if useStore {
				opts.Cache.Store(sp, opts, res)
			}
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// composeAll runs compose(k) for k in [0, n) on up to the worker budget's
// goroutines, and stops claiming new work once ctx is done.
func composeAll(ctx context.Context, opts Options, n int, compose func(k int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(opts.workers(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				compose(k)
			}
		}()
	}
	wg.Wait()
}

// fitting counts the engines of cfgs that fit a budget of procs processors:
// the size of that budget's own enumeration.
func fitting(cfgs []engineConfig, procs int) int {
	n := 0
	for _, c := range cfgs {
		if c.tp*c.pp <= procs {
			n++
		}
	}
	return n
}

// workers is the worker budget: Options.Workers, or GOMAXPROCS when unset.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}
