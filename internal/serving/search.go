package serving

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"calculon/internal/comm"
	"calculon/internal/inference"
	"calculon/internal/search"
	"calculon/internal/tco"
	"calculon/internal/units"
)

// Search runs the SLO-constrained serving co-design search and returns the
// Pareto frontier of deployments meeting the workload's latency objectives.
// It is the right-sizing sweep (Sweep) at the one budget spec.Space.Procs:
// its lifecycle, stages, store policy and progress accounting are the
// sweep's.
func Search(ctx context.Context, spec Spec, opts Options) (Result, error) {
	out, err := Sweep(ctx, spec, []int{spec.Normalize().Space.Procs}, opts)
	if err != nil {
		return Result{}, err
	}
	return out[0].Result, nil
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
// (pairPrefill) — and writes into the dense profiles array. Every engine
// is priced through pr, so each block graph is priced once per search. A
// non-nil prog receives live Evaluated/PreScreened counts.
func evalAll(ctx context.Context, spec *Spec, pr pricers, workers int, prog *search.Progress, cfgs []engineConfig, pbar, gbar int) []engineProfile {
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
	_ = search.Pool(ctx, workers, len(pairs)-1, func(_, k int) error {
		var shared pairPrefill
		var delta search.Counts
		for i := pairs[k]; i < pairs[k+1]; i++ {
			delta.Evaluated++
			if !screen.fits(cfgs[i]) {
				profiles[i].prescreened = true
				delta.PreScreened++
				continue
			}
			profiles[i] = evalEngine(spec, pr, cfgs[i], pbar, gbar, &shared)
		}
		if prog != nil {
			prog.AddCounts(delta)
		}
		return nil
	})
	return profiles
}

// engineErr is the failure of a search at a budget of procs processors:
// the spec-level error of the lowest-sequence engine that fits it, or nil.
func engineErr(cfgs []engineConfig, profiles []engineProfile, procs int) error {
	for i := range profiles {
		if err := profiles[i].err; err != nil && cfgs[i].tp*cfgs[i].pp <= procs {
			return err
		}
	}
	return nil
}

// engineRun is what the per-budget counts read of one engine's replica
// loops at the top budget: whether each mode meets the SLOs, and the end
// of the engine's split slots in foldBudgets' entry list. At each budget
// in turn, splits counts the split slots that budget holds and base the
// slots of the engines before it.
type engineRun struct {
	colocated, split bool
	splitEnd         int
	splits, base     int
}

// replicaCap is the largest replica count of an engine of engineProcs
// processors at a budget of procs: the budget bound, under a positive
// MaxReplicas.
func replicaCap(procs, engineProcs, maxReplicas int) int {
	r := procs / engineProcs
	if maxReplicas > 0 && r > maxReplicas {
		r = maxReplicas
	}
	return r
}

// foldBudgets is stage 2 for every budget of budgets (ascending and
// distinct, the last being spec.Space.Procs, the budget cfgs was
// enumerated at): it composes deployments from the engine profiles, keeps
// the SLO-feasible ones as small candidate keys and folds each budget's
// Pareto frontier. The caller has checked that no engine failed
// (engineErr).
//
// A candidate's objectives never depend on the budget, and a budget of N
// processors holds exactly the candidates whose replica loop reaches them
// at N: colocated replica counts r with r·tp·pp ≤ N, and the leading run
// of disaggregated splits whose processor counts stay within N, since each
// loop stops the first time it passes the budget. So the replica loops run
// once, at the top budget, and route each feasible candidate (through
// offer's tail filter) to the bucket of the first budget that holds it.
// Each bucket is reduced to its own front on the worker pool, and the
// budgets' fronts chain: front(k) is the front of front(k−1) merged with
// bucket k's (mergeFronts). The top-budget seq orders the candidates as
// every budget's own seq does (engine, then colocated before split, then
// replica count), so it breaks the fold's ties; a survivor's seq at each
// budget, Evaluated, PreScreened and Feasible come from closed-form
// per-engine slot counts. The routing and the chain are serial over the
// deterministic profile order, and a bucket's front is a function of its
// candidates alone, so no scheduling can change a byte of the output.
func foldBudgets(ctx context.Context, spec *Spec, workers int, cfgs []engineConfig, profiles []engineProfile, pbar, gbar int, budgets []int) ([]Result, error) {
	// The unit price is validated by Spec.Validate, so ProcHour cannot fail.
	hourly, _ := tco.ProcHour(spec.Assumptions)
	slo := spec.Workload.SLO
	maxRep := spec.Space.MaxReplicas
	top := budgets[len(budgets)-1]

	// One prompt's full-model KV cache crosses the scale-out network from
	// the prefill pool to a decode replica (disaggregated mode).
	kvShip := inference.KVBytes(&spec.Model, float64(pbar), 1, 1).Times(float64(spec.Model.Blocks))
	so := spec.System.ScaleOut()
	kvT := comm.Time(&so, comm.P2P, 2, kvShip)

	buckets := make([][]candidate, len(budgets))
	runs := make([]engineRun, len(profiles))
	// entries holds, per split slot of each engine in order, the bucket of
	// the first budget its loop reaches it at.
	var entries []int
	seq := 0
	for i := range profiles {
		p := &profiles[i]
		if !p.ok {
			runs[i].splitEnd = len(entries)
			continue
		}
		cfg := cfgs[i]
		engineProcs := cfg.tp * cfg.pp
		maxR := replicaCap(top, engineProcs, maxRep)

		m := colocated(p, cfg, gbar)
		runs[i].colocated = m.meets(slo)
		if runs[i].colocated {
			k := 0
			for r := 1; r <= maxR; r++ {
				procs := r * engineProcs
				for budgets[k] < procs {
					k++
				}
				buckets[k] = offer(buckets[k], m.candidate(seq+r, i, r, 0, procs, hourly))
			}
		}
		seq += maxR

		if spec.Space.Disaggregate {
			m = disaggregated(p, kvT)
			runs[i].split = m.meets(slo)
			// Each decode replica retires perReplica/ḡ requests per second;
			// a prefill replica completes one mean prompt per prefillPMean.
			reqRate := m.perReplica / float64(gbar)
			// k only grows: a budget stops the loop at the first split it
			// cannot hold, so a split enters no earlier than those before.
			k := 0
			for rd := 1; rd <= maxR; rd++ {
				rp := int(math.Ceil(p.prefillPMean.AtRate(float64(rd) * reqRate)))
				if rp < 1 {
					rp = 1
				}
				if maxRep > 0 && rp > maxRep {
					break
				}
				procs := rd*engineProcs + rp*engineProcs
				if procs > top {
					break
				}
				seq++
				for budgets[k] < procs {
					k++
				}
				entries = append(entries, k)
				if runs[i].split {
					buckets[k] = offer(buckets[k], m.candidate(seq, i, rd, rp, procs, hourly))
				}
			}
		}
		runs[i].splitEnd = len(entries)
	}

	if err := chainFronts(ctx, workers, buckets); err != nil {
		return nil, err
	}

	out := make([]Result, len(budgets))
	for k, n := range budgets {
		front := buckets[k]
		res := &out[k]
		slots, lo := 0, 0
		for i := range profiles {
			r := &runs[i]
			for lo+r.splits < r.splitEnd && entries[lo+r.splits] <= k {
				r.splits++
			}
			lo = r.splitEnd
			engineProcs := cfgs[i].tp * cfgs[i].pp
			if engineProcs > n {
				continue
			}
			p := &profiles[i]
			res.Evaluated++
			if p.prescreened {
				res.PreScreened++
			}
			if !p.ok {
				continue
			}
			r.base = slots
			c := replicaCap(n, engineProcs, maxRep)
			slots += c + r.splits
			if r.colocated {
				res.Feasible += c
			}
			if r.split {
				res.Feasible += r.splits
			}
		}
		if len(front) == 0 {
			continue
		}
		res.Frontier = make([]Deployment, len(front))
		for j := range front {
			c := &front[j]
			cfg := cfgs[c.engine]
			p := &profiles[c.engine]
			m := colocated(p, cfg, gbar)
			seq := runs[c.engine].base + c.replicas
			if c.prefill > 0 {
				m = disaggregated(p, kvT)
				seq += replicaCap(n, cfg.tp*cfg.pp, maxRep)
			}
			res.Frontier[j] = c.deployment(seq, cfg, p, &m)
		}
		res.Best = &res.Frontier[0]
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
// its three objectives, its sequence number at the fold's largest budget
// (which orders candidates as every budget's own does), and what rebuilds
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

// deployment builds the surviving candidate's Deployment, numbered seq at
// its budget, from its engine and the mode that priced it; the objectives
// are the candidate's own.
func (c *candidate) deployment(seq int, cfg engineConfig, p *engineProfile, m *mode) Deployment {
	return Deployment{
		Seq: seq, TP: cfg.tp, PP: cfg.pp, Batch: cfg.batch, KVOffload: cfg.kvOffload,
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

// chainFronts turns the budgets' buckets of candidates into their fronts,
// in place: bucket k becomes the front of buckets 0 through k. Each bucket
// is first reduced to its own front, on up to workers goroutines since the
// buckets are independent; then each front merges into the next budget's
// (mergeFronts). A budget's front is thus the front of every candidate that
// entered at or below it, whatever bucket each came through. A cancelled
// ctx stops the reduction and returns ctx.Err().
func chainFronts(ctx context.Context, workers int, buckets [][]candidate) error {
	// Every job succeeds, so Pool has no error to report.
	_ = search.Pool(ctx, workers, len(buckets), func(_, k int) error {
		buckets[k] = paretoFront(buckets[k])
		return nil
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for k := 1; k < len(buckets); k++ {
		buckets[k] = mergeFronts(buckets[k-1], buckets[k])
	}
	return nil
}

// paretoFront returns the Pareto-optimal candidates of buf, reusing its
// storage, in frontier order: cost ascending, then per-user rate
// descending, cluster rate descending, seq ascending. It is the maxima
// sweep of Kung, Luccio and Preparata (J. ACM 22(4), 1975): one sort puts
// every candidate after all that could cover it, then the staircase keeps
// the uncovered ones. The result is a function of the candidate set alone,
// however it was offered or filtered.
func paretoFront(buf []candidate) []candidate {
	slices.SortFunc(buf, frontOrder)
	return staircase(buf)
}

// frontOrder is the frontier order: cost ascending, then per-user rate
// descending, cluster rate descending, seq ascending. Seqs are distinct, so
// it is total.
func frontOrder(a, b candidate) int {
	return cmp.Or(
		cmp.Compare(a.cost, b.cost),
		cmp.Compare(b.user, a.user),
		cmp.Compare(b.cluster, a.cluster),
		cmp.Compare(a.seq, b.seq),
	)
}

// mergeFronts returns the front of the union of two fronts, which it does
// not modify: their union sorted in frontier order, through the staircase
// again, since a point of one may cover points of the other.
func mergeFronts(a, b []candidate) []candidate {
	if len(b) == 0 {
		return a
	}
	m := append(slices.Clip(a), b...)
	slices.SortFunc(m, frontOrder)
	return staircase(m)
}

// staircase keeps the candidates of sorted (in frontier order) that no
// earlier one covers, reusing its storage. Every candidate kept so far
// costs no more than the next, so the next is covered exactly when some
// kept one has at least its user and cluster rates. The kept (user,
// cluster) points form a 2-D staircase, user strictly down and cluster
// strictly up, so the step with the least user rate still ≥ the
// candidate's has the most cluster rate of them and alone decides, found
// by one binary search; a new survivor evicts the contiguous run of steps
// it covers. An objective-equal later-seq candidate is covered by its
// earlier twin, which keeps the lowest-seq tie rule.
func staircase(sorted []candidate) []candidate {
	// The staircase is never longer than the front, which rarely passes a
	// few dozen points, so it stays on the stack.
	type step struct{ user, cluster float64 }
	var stairArr [64]step
	stair := stairArr[:0]
	kept := sorted[:0]
	for _, c := range sorted {
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
// It is deterministic by construction, in two stages. Stage 1 prices every
// engine configuration (tp, pp, batch, KV placement) in parallel under the
// worker budget, writing profiles into a dense array indexed by the
// enumeration sequence — worker count and scheduling cannot influence a
// single byte of what stage 2 sees. An engine's profile depends on its
// configuration, never on the budget, and the engines that fit a budget N
// are exactly the order-preserving subsequence of a larger budget's
// enumeration with tp·pp ≤ N. So stage 1 runs once: the sweep consults the
// store for every budget, then enumerates and prices the engines of the
// largest budget that missed. Stage 2 (foldBudgets) composes replica counts
// and disaggregation splits on top of the profiles in closed form, filters
// on the SLOs, prices $/Mtoken, and folds every missed budget's
// three-objective Pareto frontier with sequence-number tie-breaks, in one
// pass over the replica loops. Every point is byte-identical to the
// reference composition at that budget (TestSweepMatchesSearch) and across
// worker counts; each consults the store under its own key, and a sweep
// that finishes stores its folded budgets, in input order.
//
// A Progress attached through opts ends with the totals the per-budget
// searches would report. Stage 1 counts the largest missed budget's
// engines (Evaluated, PreScreened) live as it prices them; once the fold
// is done, every other missed budget adds its counts, and every missed
// budget its Feasible.
//
// An invalid budget fails the sweep before it starts, with the validation
// error of the lowest-index one. A cancelled sweep returns ctx.Err() and no
// points; cancelled during stage 1, it folds nothing. Otherwise the engine
// error of the lowest-index failing budget wins.
func Sweep(ctx context.Context, spec Spec, sizes []int, opts Options) ([]SizeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.Normalize()
	at := func(n int) Spec {
		sp := spec
		sp.Space.Procs = n
		return sp
	}
	for _, n := range sizes {
		if err := at(n).Validate(); err != nil {
			return nil, err
		}
	}
	prog, finish := opts.Watch.Start(ctx)
	defer finish()

	out := make([]SizeResult, len(sizes))
	// missed marks the budgets the store did not serve, and budgets lists
	// them ascending, each once.
	missed := make([]bool, len(sizes))
	var budgets []int
	for i, n := range sizes {
		if res, ok := opts.stored(at(n)).Consult(prog); ok {
			out[i] = SizeResult{Procs: n, Result: res}
			continue
		}
		missed[i] = true
		budgets = append(budgets, n)
	}
	slices.Sort(budgets)
	budgets = slices.Compact(budgets)

	var cfgs []engineConfig
	var profiles []engineProfile
	pbar := spec.Workload.MeanPromptLen()
	gbar := spec.Workload.MeanGenLen()
	var topSpec Spec
	if len(budgets) > 0 {
		topSpec = at(budgets[len(budgets)-1])
		cfgs = enumerate(topSpec.Model, topSpec.Space)
		if prog != nil {
			for i, n := range sizes {
				if missed[i] {
					prog.AddTotal(int64(fitting(cfgs, n)))
				}
			}
		}
		profiles = evalAll(ctx, &topSpec, newPricers(&topSpec), opts.Workers, prog, cfgs, pbar, gbar)
	}
	if err := ctx.Err(); err != nil {
		// A cancelled stage 1 leaves an unpredictable prefix of the
		// profiles; composing a frontier from it would silently lie.
		return nil, err
	}
	for i, n := range sizes {
		if missed[i] {
			if err := engineErr(cfgs, profiles, n); err != nil {
				return nil, err
			}
		}
	}
	if len(budgets) > 0 {
		folded, err := foldBudgets(ctx, &topSpec, opts.Workers, cfgs, profiles, pbar, gbar, budgets)
		if err != nil {
			return nil, err
		}
		taken := make([]bool, len(budgets))
		for i, n := range sizes {
			if !missed[i] {
				continue
			}
			k, _ := slices.BinarySearch(budgets, n)
			res := folded[k]
			if taken[k] && res.Frontier != nil {
				// A repeated budget gets its own frontier, as its own
				// search would.
				res.Frontier = slices.Clone(res.Frontier)
				res.Best = &res.Frontier[0]
			}
			c := search.Counts{Feasible: res.Feasible}
			if taken[k] || k < len(budgets)-1 {
				// Stage 1 counted the top budget's first point live.
				c.Evaluated, c.PreScreened = res.Evaluated, res.PreScreened
			}
			taken[k] = true
			out[i] = SizeResult{Procs: n, Result: res}
			if prog != nil {
				prog.AddCounts(c)
			}
		}
	}
	if err := ctx.Err(); err != nil {
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
