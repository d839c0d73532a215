package serving

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"calculon/internal/comm"
	"calculon/internal/search"
	"calculon/internal/tco"
	"calculon/internal/units"
)

// Search runs the SLO-constrained serving co-design search and returns the
// Pareto frontier of deployments meeting the workload's latency objectives.
//
// The search is deterministic by construction, in two stages. Stage 1
// prices every engine configuration (tp, pp, batch, KV placement) in
// parallel under the worker budget, writing profiles into a dense array
// indexed by the enumeration sequence — worker count and scheduling cannot
// influence a single byte of what stage 2 sees. Stage 2 is serial closed
// form: it composes replica counts and disaggregation splits on top of the
// profiles, filters on the SLOs, prices $/Mtoken, and folds the
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
	cfgs := enumerate(spec.Model, spec.Space)
	size := func() int { return len(cfgs) }
	return search.Run(ctx, opts.Watch, opts.stored(spec), size, func(prog *search.Progress) (Result, error) {
		pbar := spec.Workload.MeanPromptLen()
		gbar := spec.Workload.MeanGenLen()
		profiles := evalAll(ctx, &spec, opts.Workers, prog, cfgs, pbar, gbar)
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
		return out, ctx.Err()
	})
}

// stored is the store policy of the search of spec, which the caller has
// normalized: its Cache under spec's identity, or none without a Cache.
func (o *Options) stored(spec Spec) search.Stored[Result] {
	if o.Cache == nil {
		return search.Stored[Result]{}
	}
	return search.Stored[Result]{
		Lookup: func() (Result, bool) { return o.Cache.Lookup(spec, *o) },
		Store:  func(res Result) { o.Cache.Store(spec, *o, res) },
	}
}

// evalAll is stage 1: the parallel engine-profile evaluation. A worker
// claims one (tp, pp) pair at a time — the pair's engines are contiguous in
// the enumeration and share their batch-independent prefill estimates
// (pairPrefill) — and writes into the dense profiles array. A non-nil prog
// receives live Evaluated/PreScreened counts.
func evalAll(ctx context.Context, spec *Spec, workers int, prog *search.Progress, cfgs []engineConfig, pbar, gbar int) []engineProfile {
	screen := newPreScreen(spec, pbar, gbar)
	profiles := make([]engineProfile, len(cfgs))
	// pairs[k] is the first engine of the k-th pair; the last entry closes
	// the last pair.
	pairs := make([]int, 0, len(cfgs)+1)
	for i := range cfgs {
		if i == 0 || cfgs[i].tp != cfgs[i-1].tp || cfgs[i].pp != cfgs[i-1].pp {
			pairs = append(pairs, i)
		}
	}
	pairs = append(pairs, len(cfgs))
	// Every job succeeds (profiles carry their own errors), so Pool has no
	// error to report.
	_ = search.Pool(ctx, workers, len(pairs)-1, func(k int) error {
		var shared pairPrefill
		var delta search.Counts
		for i := pairs[k]; i < pairs[k+1]; i++ {
			delta.Evaluated++
			if err := screen.check(cfgs[i]); err != nil {
				profiles[i].prescreened = true
				delta.PreScreened++
				continue
			}
			profiles[i] = evalEngine(spec, cfgs[i], pbar, gbar, &shared)
		}
		if prog != nil {
			prog.AddCounts(delta)
		}
		return nil
	})
	return profiles
}

// compose is stage 2: serial closed-form composition of deployments from
// the engine profiles at the budget spec.Space.Procs. It reads the engines
// that fit the budget (tp·pp ≤ Procs) — all of cfgs when they were
// enumerated at this budget, the budget's subsequence when they were
// enumerated at a larger one, which is the same list in the same order. It
// surfaces the lowest-sequence spec-level failure; otherwise, for every
// feasible engine it enumerates colocated replica counts and (when enabled)
// disaggregated decode/prefill pool splits, keeps the SLO-feasible ones as
// small candidate keys, and folds them into the Pareto frontier (offer,
// then paretoFront); only a survivor is built into a Deployment. Being
// serial over the deterministic profile order, its output is independent
// of stage 1's scheduling by construction.
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
	// The candidate buffer starts on the stack; a budget whose tail-filtered
	// candidates outgrow it moves to the heap as append doubles it.
	var bufArr [256]candidate
	buf := bufArr[:0]
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

		m := colocated(p, cfg, gbar)
		for r := 1; r <= maxR; r++ {
			seq++
			if !m.meets(slo) {
				continue
			}
			out.Feasible++
			buf = offer(buf, m.candidate(seq, i, r, 0, r*engineProcs, hourly))
		}

		if !spec.Space.Disaggregate {
			continue
		}
		m = disaggregated(p, kvT)
		// Each decode replica retires perReplica/ḡ requests per second; a
		// prefill replica completes one mean prompt per prefillPMean.
		reqRate := m.perReplica / float64(gbar)
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
			if !m.meets(slo) {
				continue
			}
			out.Feasible++
			buf = offer(buf, m.candidate(seq, i, rd, rp, procs, hourly))
		}
	}
	if front := paretoFront(buf); len(front) > 0 {
		out.Frontier = make([]Deployment, len(front))
		for k := range front {
			c := &front[k]
			p := &profiles[c.engine]
			m := colocated(p, cfgs[c.engine], gbar)
			if c.prefill > 0 {
				m = disaggregated(p, kvT)
			}
			out.Frontier[k] = c.deployment(cfgs[c.engine], p, &m)
		}
		out.Best = &out.Frontier[0]
	}
	return out, nil
}

// costPerMToken is tco.CostPerMToken with the hourly unit price hoisted out
// of the composition loop.
func costPerMToken(procs int, tokensPerSec, hourly float64) float64 {
	return float64(procs) * hourly / (tokensPerSec * 3_600) * 1e6
}

// mode is how one engine serves in one deployment mode: the latencies every
// request sees, the per-request KV shipment (split pools only), and the
// cluster rate each decode replica adds. Candidates and the survivors'
// Deployments are both derived from it, so their numbers agree bit for bit.
type mode struct {
	ttft, tpot, kvT units.Seconds
	perReplica      float64
}

// colocated is continuous batching on one pool: the engine retires
// cfg.batch sequences every ḡ steps and owes their prefill work in return;
// chunked across the window, each decode step (on each stage) carries
// 1/(ḡ·PP) of a full-batch prefill.
func colocated(p *engineProfile, cfg engineConfig, gbar int) mode {
	tpot := p.est.StepTime + p.est.PrefillTime.DivN(float64(gbar))
	perStage := units.Seconds(float64(cfg.batch) / p.est.TokensPerSec)
	interf := p.est.PrefillTime.DivN(float64(gbar * cfg.pp))
	return mode{
		ttft:       p.prefill1 + tpot,
		tpot:       tpot,
		perReplica: (perStage + interf).Rate(float64(cfg.batch)),
	}
}

// disaggregated is the split-pool mode: decode replicas run pure decode (no
// prefill interference), a separately-sized prefill pool keeps up with the
// retirement rate, and each admitted request pays the KV shipment kvT on
// its TTFT path.
func disaggregated(p *engineProfile, kvT units.Seconds) mode {
	tpot := p.est.StepTime
	return mode{
		ttft:       p.prefillP1 + kvT + tpot,
		tpot:       tpot,
		kvT:        kvT,
		perReplica: p.est.TokensPerSec,
	}
}

// meets reports whether the mode's latencies satisfy both objectives; they
// do not depend on the replica count.
func (m *mode) meets(slo SLO) bool {
	return !(m.tpot > slo.TPOT || m.ttft > slo.TTFT)
}

// candidate is one SLO-feasible deployment as the frontier fold sees it:
// its three objectives, its enumeration sequence number, and what rebuilds
// it — the engine's index and its pool sizes (prefill > 0 marks a
// disaggregated split).
type candidate struct {
	cost, user, cluster float64
	seq                 int
	engine              int
	replicas, prefill   int
	procs               int
}

// candidate prices `replicas` decode replicas of engine i in this mode on
// procs processors in all (prefill replicas included).
func (m *mode) candidate(seq, engine, replicas, prefill, procs int, hourly float64) candidate {
	cluster := float64(replicas) * m.perReplica
	return candidate{
		cost: costPerMToken(procs, cluster, hourly), user: m.tpot.Rate(1), cluster: cluster,
		seq: seq, engine: engine, replicas: replicas, prefill: prefill, procs: procs,
	}
}

// deployment builds the surviving candidate's Deployment from its engine
// and the mode that priced it; the objectives are the candidate's own.
func (c *candidate) deployment(cfg engineConfig, p *engineProfile, m *mode) Deployment {
	return Deployment{
		Seq: c.seq, TP: cfg.tp, PP: cfg.pp, Batch: cfg.batch, KVOffload: cfg.kvOffload,
		Disaggregated: c.prefill > 0, Replicas: c.replicas, PrefillReplicas: c.prefill, Procs: c.procs,
		TTFT: m.ttft, TPOT: m.tpot, KVTransferTime: m.kvT,
		UserTokensPerSec:     c.user,
		ClusterTokensPerSec:  c.cluster,
		CostPerMToken:        c.cost,
		DecodeBandwidthBound: p.est.DecodeBandwidthBound,
	}
}

// covers reports whether a is at least as good as b on every objective
// (UserTokensPerSec ↑, ClusterTokensPerSec ↑, CostPerMToken ↓): weak
// dominance, so an objective-equal pair covers each other.
func covers(a, b *candidate) bool {
	return a.cost <= b.cost && a.user >= b.user && a.cluster >= b.cluster
}

// offer appends c to the candidate buffer through an exact tail filter: c
// is dropped when the buffer's last key covers it, and otherwise pops every
// tail key it covers. Both are exact. A dropped or popped key is weakly
// dominated by another candidate, and when the two are objective-equal the
// one that goes is the later, higher seq — so it could never be on the
// frontier, whose members are the candidates no other candidate strictly
// dominates, each objective triple kept once at its lowest seq. Inside one
// engine's replica loop the per-user rate is fixed and the cluster rate
// rises, so most of a loop collapses here before any sort.
func offer(buf []candidate, c candidate) []candidate {
	n := len(buf)
	if n > 0 && covers(&buf[n-1], &c) {
		return buf
	}
	for n > 0 && covers(&c, &buf[n-1]) {
		n--
	}
	return append(buf[:n], c)
}

// paretoFront returns the Pareto-optimal candidates of buf, reusing its
// storage, in frontier order: cost ascending, then per-user rate
// descending, cluster rate descending, seq ascending. It is the maxima
// sweep of Kung, Luccio and Preparata (J. ACM 22(4), 1975): one sort puts
// every candidate after all that could cover it, then a 2-D staircase over
// (user, cluster) of the survivors so far answers "is it covered?" with one
// binary search, since every survivor costs no more. The staircase runs
// user strictly down and cluster strictly up, so the survivor with the
// least user rate still ≥ the candidate's has the most cluster rate of
// them; a new survivor evicts the contiguous run of steps it covers. An
// objective-equal later-seq candidate is covered by its earlier twin, which
// keeps the lowest-seq tie rule. The result is a function of the candidate
// set alone, however it was offered or filtered.
func paretoFront(buf []candidate) []candidate {
	slices.SortFunc(buf, func(a, b candidate) int {
		return cmp.Or(
			cmp.Compare(a.cost, b.cost),
			cmp.Compare(b.user, a.user),
			cmp.Compare(b.cluster, a.cluster),
			cmp.Compare(a.seq, b.seq),
		)
	})
	// The staircase is never longer than the front, which rarely passes a
	// few dozen points, so it stays on the stack.
	type step struct{ user, cluster float64 }
	var stairArr [64]step
	stair := stairArr[:0]
	kept := buf[:0]
	for _, c := range buf {
		// Steps [0, i) have a per-user rate of at least c's.
		i := sort.Search(len(stair), func(j int) bool { return stair[j].user < c.user })
		if i > 0 && stair[i-1].cluster >= c.cluster {
			continue
		}
		s := i
		if i > 0 && stair[i-1].user == c.user {
			s = i - 1
		}
		e := s
		for e < len(stair) && stair[e].cluster <= c.cluster {
			e++
		}
		stair = slices.Replace(stair, s, e, step{c.user, c.cluster})
		kept = append(kept, c)
	}
	return kept
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
// consults the store under its own key; a sweep that finishes stores its
// composed budgets, in input order. A Progress attached through opts ends
// with the totals the per-budget searches would report: each budget's
// counts land as it is composed.
//
// A cancelled sweep returns ctx.Err() and no points; cancelled during
// stage 1, it composes nothing. Otherwise the error of the lowest-index
// failing budget wins — for an invalid budget, the text Search gives.
func Sweep(ctx context.Context, spec Spec, sizes []int, opts Options) ([]SizeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prog, finish := opts.Watch.Start(ctx)
	defer finish()

	spec = spec.Normalize()
	at := func(n int) Spec {
		sp := spec
		sp.Space.Procs = n
		return sp
	}
	out := make([]SizeResult, len(sizes))
	// errs holds each budget's validation error; missed marks the valid
	// budgets the store did not serve.
	errs := make([]error, len(sizes))
	missed := make([]bool, len(sizes))
	top := 0
	for i, n := range sizes {
		sp := at(n)
		if errs[i] = sp.Validate(); errs[i] != nil {
			continue
		}
		if res, ok := opts.stored(sp).Consult(prog); ok {
			out[i] = SizeResult{Procs: n, Result: res}
			continue
		}
		missed[i] = true
		top = max(top, n)
	}

	var cfgs []engineConfig
	var profiles []engineProfile
	pbar := spec.Workload.MeanPromptLen()
	gbar := spec.Workload.MeanGenLen()
	if top > 0 {
		topSpec := at(top)
		cfgs = enumerate(topSpec.Model, topSpec.Space)
		if prog != nil && opts.EstimateTotal {
			for i, n := range sizes {
				if missed[i] {
					prog.AddTotal(int64(fitting(cfgs, n)))
				}
			}
		}
		profiles = evalAll(ctx, &topSpec, opts.Workers, nil, cfgs, pbar, gbar)
	}
	err := search.Pool(ctx, opts.Workers, len(sizes), func(i int) error {
		if !missed[i] {
			return errs[i]
		}
		sp := at(sizes[i])
		res, err := compose(&sp, cfgs, profiles, pbar, gbar)
		if err != nil {
			return err
		}
		out[i] = SizeResult{Procs: sizes[i], Result: res}
		if prog != nil {
			prog.AddCounts(search.Counts{
				Evaluated:   int64(res.Evaluated),
				PreScreened: int64(res.PreScreened),
				Feasible:    int64(res.Feasible),
			})
		}
		return nil
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		if missed[i] {
			opts.stored(at(n)).Keep(ctx, out[i].Result, nil)
		}
	}
	return out, nil
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
