// Package search implements the paper's three search engines: the optimal
// execution search of §5.1 (exhaustively try every execution strategy for a
// fixed LLM and system), the optimal system-size sweep of §5.2 (repeat the
// execution search at every processor count to expose "efficiency cliffs"),
// and the statistics — histograms, CDFs, top-k — behind Fig. 6. Work is
// spread over a goroutine pool; results are deterministic regardless of the
// worker count (ties break on enumeration order).
//
// Searches are cancellable and observable: every engine takes a
// context.Context and stops within one work chunk of cancellation without
// leaking goroutines, and an optional Progress attachment exposes live
// evaluated/feasible counters, throughput, and an ETA (see Options).
package search

import (
	"context"
	"fmt"
	"sort"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

// Options configures an execution search.
type Options struct {
	// Enum bounds the strategy space (processor count, feature set, caps).
	Enum execution.EnumOptions
	// Workers is the goroutine-pool size; 0 means GOMAXPROCS.
	Workers int
	// TopK retains the best K results for CDF analysis (0 disables).
	TopK int
	// CollectRates retains every feasible configuration's sample rate for
	// histogram analysis (Fig. 6a). Costs 8 bytes per feasible point.
	CollectRates bool
	// Pareto maintains the time-versus-memory Pareto front across all
	// feasible configurations (Fig. 5's "minimize either time or memory"
	// choice). The front is kept incrementally, so memory stays bounded.
	Pareto bool

	// Watch observes the search: Progress, ETA and the OnProgress ticker.
	Watch

	// Cache, when non-nil, is a persistent store of finished search verdicts
	// (see internal/resultstore). It is consulted once per search, after
	// option normalization and before any evaluation: a hit returns the
	// stored Result verbatim — bit-identical to what the walk would produce,
	// a contract the resultstore equivalence tests lock in — and a miss runs
	// the search and stores the finished Result. Cancelled or failed
	// searches are never stored, and searches with CollectRates set bypass
	// the cache entirely (the Rates slice is ordered by worker completion,
	// which is not run-to-run deterministic). A nil Cache bypasses the
	// store.
	Cache Cache

	// sharedRunner, when non-nil, evaluates strategies instead of a freshly
	// built Runner. SystemSize threads per-size Runners drawn from one
	// perf.RunnerGroup through it so block profiles memoized at one size are
	// served at every other.
	sharedRunner *perf.Runner
}

// Result is the outcome of an execution search.
type Result struct {
	// Best is the fastest feasible configuration found.
	Best perf.Result
	// Top holds the TopK best results, fastest first.
	Top []perf.Result
	// Evaluated counts every strategy tried; Feasible those that could run
	// (the paper's 10,957,376 vs 1,974,902 for GPT-3 175B on 4,096 GPUs).
	Evaluated int
	Feasible  int
	// PreScreened counts the evaluations rejected by the phase-1 analytic
	// filter before any layer-level work (a subset of Evaluated−Feasible);
	// CacheHits counts evaluations that reused a memoized block profile.
	PreScreened int
	CacheHits   int
	// SubtreePruned counts the strategies dropped at the lattice level:
	// leaves of (tp,pp,dp) subtrees whose closed-form bound proved every
	// toggle combination infeasible, accounted in closed form without being
	// enumerated. They are a subset of PreScreened (pruned leaves count as
	// Evaluated and PreScreened, exactly as the leaf-by-leaf path would).
	SubtreePruned int
	// Rates holds every feasible sample rate when CollectRates is set.
	Rates []float64
	// Pareto holds the time-vs-memory front when Options.Pareto is set,
	// fastest (and most memory-hungry) first.
	Pareto []perf.Result
}

// Found reports whether any feasible configuration exists.
func (r Result) Found() bool { return r.Feasible > 0 }

// segment is a toggle segment's root (execution.EnumOptions.Segments) and
// the sequence number of its first leaf; workers walk its toggles.
type segment struct {
	seq  int
	root execution.Strategy
}

// scored is one kept result with its sequence number. On the Pareto
// staircase mem1 is res.Mem1.Total(), summed once when the point is kept
// rather than on every probe; elsewhere it is unset.
type scored struct {
	seq  int
	mem1 units.Bytes
	res  perf.Result
}

const chunkSize = 256

// segmentsPerChunk is how many whole segments of segLen leaves a work chunk
// carries: about chunkSize leaves, at least one segment. A worker checks for
// cancellation once per chunk: at most max(chunkSize, segLen) leaves apart.
func segmentsPerChunk(segLen int) int {
	return max(1, chunkSize/segLen)
}

// Execution exhaustively evaluates every strategy the options allow for the
// model on the system and returns the best performer with statistics.
//
// Cancelling the context stops the search promptly — enumeration halts, each
// worker finishes at most its current chunk of segments, and no goroutines
// are leaked. On cancellation the returned error is ctx.Err() and the Result still
// carries the partial Evaluated/Feasible counters (consistent with any
// attached Progress), though Best/Top/Pareto cover only the strategies seen.
func Execution(ctx context.Context, m model.LLM, sys system.System, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := normalizeOptions(m, sys, opts)
	if err != nil {
		return Result{}, err
	}
	var st Stored[Result]
	if opts.Cache != nil && !opts.CollectRates {
		st.Lookup = func() (Result, bool) { return opts.Cache.Lookup(m, sys, opts) }
		st.Store = func(res Result) { opts.Cache.Store(m, sys, opts, res) }
	}
	// The space size is closed-form over the (tp,pp,dp) lattice — divisor
	// arithmetic, no enumeration pass — and buys the ETA in snapshots.
	size := func() int { return opts.Enum.SpaceSize(m) }
	return Run(ctx, opts.Watch, st, size, func(prog *Progress) (Result, error) {
		merged, subtreePruned, err := executionScored(ctx, m, sys, opts, prog, opts.Enum.Triples(m), 0)
		if err != nil {
			return Result{}, err
		}
		return resultFrom(&merged, subtreePruned), ctx.Err()
	})
}

// normalizeOptions validates the inputs and fills the option defaults. Both
// the plain and the sharded search run it, so the same search always walks
// the same triples in the same global sequence regardless of how it is
// split.
func normalizeOptions(m model.LLM, sys system.System, opts Options) (Options, error) {
	if err := m.Validate(); err != nil {
		return opts, err
	}
	if err := sys.Validate(); err != nil {
		return opts, err
	}
	if opts.TopK < 0 {
		return opts, fmt.Errorf("search: negative top-k %d", opts.TopK)
	}
	if opts.Enum.Procs == 0 {
		opts.Enum.Procs = sys.Procs
	}
	if err := opts.Enum.Validate(); err != nil {
		return opts, err
	}
	if opts.Enum.Features == "" {
		opts.Enum.Features = execution.FeatureAll
	}
	opts.Enum.HasMem2 = sys.Mem2.Present()
	return opts, nil
}

// executionScored is the engine room shared by Execution and
// ExecutionShard: it runs the worker pool and the lattice producer over a
// contiguous run of (tp,pp,dp) triples and returns the merged per-worker
// state (with global sequence numbers, the deterministic tie-break key)
// plus the closed-form count of subtree-pruned leaves, both already folded
// into the counters. seqBase is the global sequence number of the first
// leaf of triples — the leaf count of everything before the range — so a
// shard scores its strategies exactly as the single-process walk would.
func executionScored(ctx context.Context, m model.LLM, sys system.System, opts Options, prog *Progress, triples [][3]int, seqBase int) (workerState, int, error) {
	workers := poolSize(opts.Workers)
	runner := opts.sharedRunner
	if runner == nil {
		var err error
		runner, err = perf.NewRunner(m, sys)
		if err != nil {
			return workerState{}, 0, err
		}
	}
	tog := opts.Enum.Toggles()
	chunks := make(chan []segment, workers)
	results := make(chan workerState, workers)
	for w := 0; w < workers; w++ {
		go func() {
			ws := workerState{topK: opts.TopK, pareto: opts.Pareto}
			// Each worker threads one delta chain through its strategies:
			// the class walk moves as few toggles between leaves as the
			// lattice allows and names them, so most term groups carry
			// over. The chain is goroutine-local; the Runner stays shared.
			var chain perf.RunInfo
			var res perf.Result
			for chunk := range chunks {
				// After cancellation, keep draining so the producer's sends
				// and close always complete, but stop evaluating.
				if ctx.Err() != nil {
					continue
				}
				evalBefore, feasBefore := ws.evaluated, ws.feasible
				preBefore, hitBefore := ws.prescreened, ws.cacheHits
				for i := range chunk {
					ws.segment(runner, &chain, &res, &tog, &chunk[i], opts.CollectRates)
				}
				if prog != nil {
					prog.AddCounts(Counts{
						Evaluated:   int64(ws.evaluated - evalBefore),
						Feasible:    int64(ws.feasible - feasBefore),
						PreScreened: int64(ws.prescreened - preBefore),
						CacheHits:   int64(ws.cacheHits - hitBefore),
					})
				}
			}
			results <- ws
		}()
	}

	// The producer walks the (tp,pp,dp) lattice: subtrees whose every toggle
	// projection fails the closed-form bound are dropped whole, with their
	// leaf count — exact, by TripleLeafCount — folded into the counters and
	// the enumeration sequence so downstream tie-breaks and ETAs are
	// bit-identical to the leaf-by-leaf path. The rest go out as segments.
	screen := execution.NewPreScreen(m, execution.Limits{
		Procs: sys.Procs,
		Mem1:  sys.Mem1.Capacity,
		Mem2:  sys.Mem2.Capacity,
	})
	perChunk := segmentsPerChunk(tog.Len())
	buf := make([]segment, 0, perChunk)
	seq := seqBase
	subtreePruned := 0
	for _, tpd := range triples {
		if ctx.Err() != nil {
			break
		}
		if err := screen.CheckTriple(opts.Enum, tpd); err != nil {
			leaves := opts.Enum.TripleLeafCount(m, tpd)
			seq += leaves
			subtreePruned += leaves
			if prog != nil {
				prog.AddCounts(Counts{
					Evaluated:     int64(leaves),
					PreScreened:   int64(leaves),
					SubtreePruned: int64(leaves),
				})
			}
			continue
		}
		more := opts.Enum.Segments(&m, tpd, func(root *execution.Strategy) bool {
			buf = append(buf, segment{seq, *root})
			seq += tog.Len()
			if len(buf) == perChunk {
				select {
				case chunks <- buf:
				case <-ctx.Done():
					return false
				}
				buf = make([]segment, 0, perChunk)
			}
			return true
		})
		if !more {
			break
		}
	}
	if len(buf) > 0 {
		select {
		case chunks <- buf:
		case <-ctx.Done():
		}
	}
	close(chunks)

	merged := workerState{topK: opts.TopK, pareto: opts.Pareto}
	for w := 0; w < workers; w++ {
		o := <-results
		merged.merge(&o)
	}
	merged.evaluated += subtreePruned
	merged.prescreened += subtreePruned
	return merged, subtreePruned, nil
}

// resultFrom converts the merged worker state into the exported Result,
// dropping the sequence numbers; top and front are already in their final
// deterministic order.
func resultFrom(merged *workerState, subtreePruned int) Result {
	out := Result{
		Evaluated:     merged.evaluated,
		Feasible:      merged.feasible,
		PreScreened:   merged.prescreened,
		CacheHits:     merged.cacheHits,
		SubtreePruned: subtreePruned,
		Rates:         merged.rates,
	}
	if merged.feasible > 0 {
		out.Best = merged.best.res
		for i := range merged.top {
			out.Top = append(out.Top, merged.top[i].res)
		}
		for i := range merged.front {
			out.Pareto = append(out.Pareto, merged.front[i].res)
		}
	}
	return out
}

// workerState accumulates per-goroutine results for a deterministic merge.
// Every fold — a worker's leaves, the merge of workers, the merge of shards —
// goes through offerBest/offerTop/offerFront, which compare a candidate in
// place and copy its Result only when it is kept. A worker builds a leaf's
// Result only when keeps says offer would keep it.
type workerState struct {
	evaluated   int
	feasible    int
	prescreened int
	cacheHits   int
	best        scored
	hasBest     bool
	topK        int
	// top holds at most topK results, best first under ahead.
	top    []scored
	rates  []float64
	pareto bool
	// front is the Pareto staircase: sorted by (BatchTime, Mem1.Total(),
	// seq) with strictly decreasing memory, so it is always the exact front
	// of every candidate offered so far.
	front []scored
}

// segment walks one segment class by class on the chain. RunLeaf's answer
// for one leaf of a memory class is the whole class's, so the counters take
// the class at once; its leaves share one block profile, so all but the
// first hit the memo if that one reached it (a segment's leaves all pass
// Validate, so a leaf not pre-screened did). The worker steps through the
// other leaves of a feasible class only when keeps passes on the class's
// bound keys and the segment's first seq. keeps is monotone in seq as in
// batch time, so this admits every leaf of the class a per-leaf test would
// (docs/MODEL.md, "The leaf path").
func (ws *workerState) segment(runner *perf.Runner, chain *perf.RunInfo, res *perf.Result, tog *execution.Toggles, seg *segment, collectRates bool) {
	w := tog.Classes(&seg.root)
	for more := true; more; more = w.NextClass() {
		k, ok := runner.RunLeaf(chain, &seg.root, w.Mask())
		n := w.Len()
		ws.evaluated += n
		switch {
		case chain.PreScreened:
			ws.prescreened += n
		case chain.CacheHit:
			ws.cacheHits += n
		default:
			ws.cacheHits += n - 1
		}
		if !ok {
			continue
		}
		ws.feasible += n
		if !collectRates && !ws.keeps(seg.seq, &k) {
			continue
		}
		for {
			// keeps turns a leaf away on its bound keys only if it would
			// on its exact ones, which are never faster.
			seq := seg.seq + w.Rank()
			if collectRates || ws.keeps(seq, &k) {
				exact := chain.Keys()
				if collectRates {
					ws.rates = append(ws.rates, exact.SampleRate)
				}
				if ws.keeps(seq, &exact) {
					chain.Result(res)
					ws.offer(seq, res)
				}
			}
			if !w.NextLeaf() {
				break
			}
			k, _ = runner.RunLeaf(chain, &seg.root, w.Mask())
		}
	}
}

// offer folds one feasible result into best, the top-K and the front.
func (ws *workerState) offer(seq int, res *perf.Result) {
	ws.offerBest(seq, res)
	ws.offerTop(seq, res)
	ws.offerFront(seq, res)
}

// keeps reports whether offer would keep a feasible leaf, by the admission
// tests of offerBest, offerTop and offerFront on its keys alone. It is
// monotone in batch time: a lower BatchTime, with the higher SampleRate it
// gives, ranks no worse and slots no later on the staircase, so keys that
// bound the batch time from below keep every leaf the exact keys keep.
func (ws *workerState) keeps(seq int, k *perf.Keys) bool {
	n := len(ws.top)
	if !ws.hasBest || ahead(k.SampleRate, seq, &ws.best) ||
		n < ws.topK || n > 0 && ahead(k.SampleRate, seq, &ws.top[n-1]) {
		return true
	}
	_, ok := ws.frontSlot(k.BatchTime, k.Mem1, seq)
	return ws.pareto && ok
}

// ahead reports whether the candidate (rate, seq) is preferred over s:
// higher sample rate, with enumeration order as the deterministic tie-break.
// It takes the candidate's keys and a pointer, so ranking never copies a
// Result.
func ahead(rate float64, seq int, s *scored) bool {
	if rate != s.res.SampleRate {
		return rate > s.res.SampleRate
	}
	return seq < s.seq
}

// precedes reports whether the candidate (t, m, seq) sorts before s in the
// staircase order: batch time, then first-tier memory, then enumeration
// order.
func precedes(t units.Seconds, m units.Bytes, seq int, s *scored) bool {
	if t != s.res.BatchTime {
		return t < s.res.BatchTime
	}
	if m != s.mem1 {
		return m < s.mem1
	}
	return seq < s.seq
}

func (ws *workerState) offerBest(seq int, res *perf.Result) {
	if !ws.hasBest || ahead(res.SampleRate, seq, &ws.best) {
		ws.best.seq, ws.best.res = seq, *res
		ws.hasBest = true
	}
}

// offerTop admits the candidate only while fewer than topK results are held
// or when it ranks ahead of the current K-th, which then drops out; a
// candidate that would not survive costs one comparison.
func (ws *workerState) offerTop(seq int, res *perf.Result) {
	n := len(ws.top)
	if n == ws.topK && (n == 0 || !ahead(res.SampleRate, seq, &ws.top[n-1])) {
		return
	}
	i := sort.Search(n, func(j int) bool { return ahead(res.SampleRate, seq, &ws.top[j]) })
	if n < ws.topK {
		ws.top = append(ws.top, scored{})
	}
	copy(ws.top[i+1:], ws.top[i:])
	ws.top[i].seq, ws.top[i].res = seq, *res
}

// offerFront folds the candidate into the Pareto staircase. Everything
// before its place i precedes it, and memory strictly decreases along the
// staircase, so the candidate is dominated exactly when the point at i-1
// uses no more memory; otherwise the points it dominates are the contiguous
// run from i whose memory is no smaller, and the candidate replaces them.
// Which points survive depends only on the set offered, never on the order,
// so any split or merge order yields the same front.
func (ws *workerState) offerFront(seq int, res *perf.Result) {
	if !ws.pareto {
		return
	}
	m := res.Mem1.Total()
	i, ok := ws.frontSlot(res.BatchTime, m, seq)
	if !ok {
		return
	}
	f := ws.front
	e := i
	for e < len(f) && f[e].mem1 >= m {
		e++
	}
	if e == i {
		f = append(f, scored{})
		copy(f[i+1:], f[i:])
	} else {
		f = append(f[:i+1], f[e:]...)
	}
	f[i].seq, f[i].mem1, f[i].res = seq, m, *res
	ws.front = f
}

// frontSlot returns the candidate's place in the staircase and whether it
// survives there, which it does unless the point before uses no more memory.
func (ws *workerState) frontSlot(t units.Seconds, m units.Bytes, seq int) (int, bool) {
	f := ws.front
	i := sort.Search(len(f), func(j int) bool { return precedes(t, m, seq, &f[j]) })
	return i, i == 0 || !(f[i-1].mem1 <= m)
}

func (ws *workerState) merge(o *workerState) {
	ws.evaluated += o.evaluated
	ws.feasible += o.feasible
	ws.prescreened += o.prescreened
	ws.cacheHits += o.cacheHits
	if o.hasBest {
		ws.offerBest(o.best.seq, &o.best.res)
	}
	for i := range o.top {
		ws.offerTop(o.top[i].seq, &o.top[i].res)
	}
	for i := range o.front {
		ws.offerFront(o.front[i].seq, &o.front[i].res)
	}
	ws.rates = append(ws.rates, o.rates...)
}

// ScalingPoint is one system size of a §5.2 sweep.
type ScalingPoint struct {
	Procs    int
	Best     perf.Result
	Feasible int
	// Found is false when no configuration fits at this size (the zero-
	// performance points of Fig. 7).
	Found bool
}

// SystemSize runs a full execution search at each processor count,
// producing the scaling/efficiency-cliff data of Figs. 7 and 10.
//
// The sweep divides one global worker budget — opts.Workers, defaulting to
// GOMAXPROCS — across the sizes: up to budget sizes run concurrently, each
// with budget/concurrency workers, so a single-size sweep gets the whole
// pool and a wide sweep never oversubscribes it. Because the block-profile
// memo key contains nothing size-dependent, every per-size search shares one
// memo through a perf.RunnerGroup whenever the per-size systems agree on the
// memo-relevant inputs; profiles computed at one size are reused at all
// others, bit-identically.
//
// Cancellation propagates to every per-size search; on cancellation the
// points computed so far are returned together with ctx.Err(). Otherwise a
// failed sweep reports the lowest-index failing size, however the sizes
// were scheduled. A Progress attached through opts aggregates counters
// across all sizes.
func SystemSize(ctx context.Context, m model.LLM, sysAt func(procs int) system.System, sizes []int, opts Options) ([]ScalingPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The sweep owns the ticker over the aggregate Progress; per-size
	// searches only flush counters into it.
	prog, finish := opts.Watch.Start(ctx)
	defer finish()
	opts.Progress, opts.OnProgress = prog, nil
	budget := poolSize(opts.Workers)
	concurrent := max(1, min(len(sizes), budget))
	perSize := max(1, budget/concurrent)
	var group *perf.RunnerGroup
	if len(sizes) > 0 {
		// Sharing is best-effort: a sysAt that varies memo-relevant inputs
		// with size makes RunnerFor refuse below, and that size falls back
		// to a private memo.
		group, _ = perf.NewRunnerGroup(m, sysAt(sizes[0]))
	}
	points := make([]ScalingPoint, len(sizes))
	err := Pool(ctx, concurrent, len(sizes), func(i int) error {
		n := sizes[i]
		o := opts
		o.Enum.Procs, o.Workers = n, perSize
		sys := sysAt(n)
		if group != nil {
			if r, err := group.RunnerFor(sys); err == nil {
				o.sharedRunner = r
			}
		}
		res, err := Execution(ctx, m, sys, o)
		switch {
		case err == nil:
			points[i] = ScalingPoint{Procs: n, Best: res.Best, Feasible: res.Feasible, Found: res.Found()}
		case ctx.Err() == nil:
			return fmt.Errorf("size %d: %w", n, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, ctx.Err()
}

// Sizes returns the multiples of step in [step, max], the x-axis of the
// scaling studies ("considering only multiples of 8 GPUs"). A step ≤ 0
// gives no sizes.
func Sizes(step, max int) []int {
	if step <= 0 {
		return nil
	}
	var out []int
	for n := step; n <= max; n += step {
		out = append(out, n)
	}
	return out
}
