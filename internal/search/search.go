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
	"math"
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

// Result is the outcome of an execution search. Its JSON form is the
// payload of a training row in a result store (internal/resultstore), so a
// field added here is a schema decision: decide whether stored rows must be
// invalidated (StrategySpaceVersion) before adding one.
type Result struct {
	Counts
	// Best is the fastest feasible configuration found.
	Best perf.Result `json:"best"`
	// Top holds the TopK best results, fastest first.
	Top []perf.Result `json:"top,omitempty"`
	// Pareto holds the time-vs-memory front when Options.Pareto is set,
	// fastest (and most memory-hungry) first.
	Pareto []perf.Result `json:"pareto,omitempty"`
	// Rates holds every feasible sample rate when CollectRates is set. It is
	// never stored: its order follows worker completion, which is not run-to-
	// run deterministic, so CollectRates searches bypass the store.
	Rates []float64 `json:"-"`
}

// Found reports whether any feasible configuration exists.
func (r Result) Found() bool { return r.Feasible > 0 }

// Execution exhaustively evaluates every strategy the options allow for the
// model on the system and returns the best performer with statistics.
//
// Cancelling the context stops the search promptly — each worker finishes
// at most its current work chunk, and no goroutines are leaked. On
// cancellation the returned error is ctx.Err() and the Result still carries
// the partial Evaluated/Feasible counters (consistent with any attached
// Progress), though Best/Top/Pareto cover only the strategies seen.
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
		merged, err := executionScored(ctx, m, sys, opts, prog, opts.Enum.Triples(m), 0)
		if err != nil {
			return Result{}, err
		}
		return resultFrom(&merged), ctx.Err()
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
// ExecutionShard: it runs the workers over a contiguous run of (tp,pp,dp)
// triples and returns their merged state (with global sequence numbers,
// the deterministic tie-break key), subtree-pruned leaves included. seqBase
// is the global sequence number of the first leaf of triples — the leaf
// count of everything before the range — so a shard scores its strategies
// exactly as the single-process walk would.
func executionScored(ctx context.Context, m model.LLM, sys system.System, opts Options, prog *Progress, triples [][3]int, seqBase int) (workerState, error) {
	runner := opts.sharedRunner
	if runner == nil {
		var err error
		runner, err = perf.NewRunner(m, sys)
		if err != nil {
			return workerState{}, err
		}
	}
	tog := opts.Enum.Toggles()
	lat := perf.LatticeFor(&opts.Enum)
	screen := execution.NewPreScreen(m, execution.Limits{
		Procs: sys.Procs,
		Mem1:  sys.Mem1.Capacity,
		Mem2:  sys.Mem2.Capacity,
	})
	chunks := newWorkChunks(&opts.Enum, &m, screen, triples, seqBase)
	workers := make([]worker, poolSize(opts.Workers))
	for w := range workers {
		workers[w].fold = fold{topK: opts.TopK, pareto: opts.Pareto}
	}
	_ = Pool(ctx, len(workers), len(chunks.mbs), func(w, i int) error {
		ws := &workers[w]
		row, mb, seq := chunks.at(i)
		if row.pruned {
			// Every toggle projection failed the closed-form bound: the
			// leaves are counted whole, exactly as walking them would.
			leaves := row.microbatches * row.schedules * chunks.segLen
			ws.chunk = Counts{Evaluated: leaves, PreScreened: leaves, SubtreePruned: leaves}
		} else {
			opts.Enum.MicrobatchSegments(&m, row.tpd, mb, &ws.root, func(root *execution.Strategy) bool {
				ws.segment(runner, lat, &tog, root, seq, opts.CollectRates)
				seq += chunks.segLen
				return true
			})
		}
		ws.Counts.add(ws.chunk)
		if prog != nil {
			prog.AddCounts(ws.chunk)
		}
		ws.chunk = Counts{}
		return nil
	})

	merged := workerState{fold: fold{topK: opts.TopK, pareto: opts.Pareto}}
	for w := range workers {
		merged.Counts.add(workers[w].Counts)
		merged.merge(&workers[w].fold)
	}
	return merged, nil
}

// workChunks is a search's work in the units a worker claims from Pool, in
// enumeration order: a work chunk per microbatch row of a (t,p,d) subtree
// (its segments, one per pipeline schedule) and one per pruned subtree. Its
// table, built once per search, gives a chunk's triple, microbatch and
// first seq.
type workChunks struct {
	rows   []tripleChunks
	mbs    []int // each chunk's microbatch size; 0 for a pruned subtree
	segLen int   // leaves per segment
}

// tripleChunks is one (t,p,d) subtree's entry in the table.
type tripleChunks struct {
	tpd          [3]int
	seq          int // the sequence number of the subtree's first leaf
	first        int // the index of its first chunk
	microbatches int // TripleShape's microbatch rows
	schedules    int // and segments per row
	pruned       bool
}

// newWorkChunks builds the table of the triples, whose first leaf has seq
// seqBase, running the lattice prune (CheckTriple) on each and recording the
// microbatch of each row it keeps.
func newWorkChunks(enum *execution.EnumOptions, m *model.LLM, screen *execution.PreScreen, triples [][3]int, seqBase int) workChunks {
	tog := enum.Toggles()
	c := workChunks{rows: make([]tripleChunks, len(triples)), segLen: tog.Len()}
	seq, n := seqBase, 0
	for i, tpd := range triples {
		r := &c.rows[i]
		r.tpd, r.seq, r.first = tpd, seq, n
		r.microbatches, r.schedules = enum.TripleShape(m, tpd)
		r.pruned = screen.CheckTriple(*enum, tpd) != nil
		if r.pruned {
			n++
		} else {
			n += r.microbatches
		}
		seq += r.microbatches * r.schedules * c.segLen
	}
	mbs := make([]int, 0, n)
	for i := range c.rows {
		if r := &c.rows[i]; r.pruned {
			mbs = append(mbs, 0)
		} else {
			enum.Microbatches(m, r.tpd, func(mb int) bool {
				mbs = append(mbs, mb)
				return true
			})
		}
	}
	c.mbs = mbs
	return c
}

// at returns chunk i's triple, its microbatch size (0 for a pruned triple)
// and the sequence number of its first leaf.
func (c *workChunks) at(i int) (row *tripleChunks, mb, seq int) {
	row = &c.rows[sort.Search(len(c.rows), func(j int) bool { return c.rows[j].first > i })-1]
	return row, c.mbs[i], row.seq + (i-row.first)*row.schedules*c.segLen
}

// resultFrom converts the merged worker state into the exported Result,
// dropping the sequence numbers; top and front are already in their final
// deterministic order.
func resultFrom(merged *workerState) Result {
	out := Result{Counts: merged.Counts, Rates: merged.rates}
	if merged.Feasible > 0 && len(merged.top) > 0 {
		out.Best = merged.top[0].Result
		out.Top, out.Pareto = results(merged.top[:min(len(merged.top), merged.topK)]), results(merged.front)
	}
	return out
}

// workerState is one worker's leaf counters and its fold; the merged state
// of a search or a shard has the same shape.
type workerState struct {
	Counts
	fold
}

// worker is one search worker: its state, the tallies of the work chunk it
// is on, its delta chain, the root it writes its chunks' segments into, the
// memory pass of the segment it is on with its slots' memory limits and,
// last, the Result of a kept leaf, which keeps the next worker's counters
// off the cache lines this one reads.
type worker struct {
	workerState
	chunk Counts
	chain perf.RunInfo
	root  execution.Strategy
	pass  perf.SegmentPass
	below [perf.MaxSlots]units.Bytes
	res   perf.Result
}

// segment evaluates one segment: the memory pass (Runner.PassSegment) gives
// every class's memory verdict and the segment's counts at once, and the
// worker steps its chain only to the classes the fold can keep. A profile
// slot's bound keys (SegmentPass.Bound: the batch-time bound its leaves
// share, with the least Mem1 of its fitting classes) are tested once, at the
// segment's first seq: keeps is monotone in batch time, first-tier memory
// and seq, so a slot they fail holds no leaf the fold keeps. A slot they
// pass is tested again on its slot floor keys (Runner.SlotFloor: the bound
// plus the slot's TP floor), and a segment with no slot passing both is
// done. For each passing slot one entersTop test on its slot floor's rate
// and the front's memory limit at its slot floor's batch time (frontLimit)
// leave the classes that may still enter either part: all of them when the
// rate enters the top list, else those below the limit. The floor half of
// the pass (Runner.PassFloors) prices those classes' floors and selects the
// ones whose floor keys pass keeps; each test is implied by the next, so
// only the floor decides. The class walk then seeks the selected classes in
// its order (ClassWalk.Seek) and steps the chain (RunLeaf) only into one
// whose floor still passes keeps, with the OR of the masks of the class
// steps since the chain's last step. The descent prices a leaf's exact keys
// only while its class floor passes keeps, and computes its seq only when
// those keys pass at the segment's first seq, before building its Result.
// With collectRates every fitting class is sought and stepped and every leaf
// of it priced (docs/MODEL.md, "The leaf path").
func (ws *worker) segment(runner *perf.Runner, lat *perf.SegmentLattice, tog *execution.Toggles, root *execution.Strategy, seq0 int, collectRates bool) {
	chain, c, p := &ws.chain, &ws.chunk, &ws.pass
	runner.PassSegment(chain, lat, root, p)
	c.Evaluated += p.Evaluated
	c.PreScreened += p.PreScreened
	c.CacheHits += p.CacheHits
	c.Feasible += p.Feasible
	passing := false // some profile slot may hold a leaf the fold keeps
	below := ws.below[:lat.Slots()]
	for i := range below {
		below[i] = units.Bytes(math.Inf(-1))
		k, ok := p.Bound(i)
		if !ok || !collectRates && !ws.keeps(seq0, &k) {
			continue
		}
		if !collectRates {
			// The slot floor adds the TP floor to the bound, so it is
			// priced only for a slot the bound alone leaves.
			switch k = runner.SlotFloor(chain, p, i); {
			case !ws.keeps(seq0, &k):
				continue
			case ws.entersTop(k.SampleRate, seq0):
				below[i] = units.Bytes(math.Inf(1))
			default:
				below[i] = ws.frontLimit(k.BatchTime)
			}
		}
		passing = true
	}
	if !passing {
		return
	}
	if !collectRates && runner.PassFloors(chain, p, below, func(k *perf.Keys) bool { return ws.keeps(seq0, k) }) == 0 {
		return
	}
	next := p.NextSelected
	if collectRates {
		next = p.NextFitting
	}
	w := tog.Classes(root)
	skipped := w.Mask() // changed since the chain's last step: every field, before the first
	for k := next(0); k >= 0; k = next(k + 1) {
		skipped |= w.Seek(k)
		var floor perf.Keys
		if !collectRates {
			if floor = p.Floor(k); !ws.keeps(seq0, &floor) {
				continue
			}
		}
		mask := skipped
		skipped = 0
		if _, ok := runner.RunLeaf(chain, root, mask); !ok {
			continue
		}
		for {
			// keeps turns a leaf away on its class floor, or at the
			// segment's first seq, only if it would on its exact keys at
			// its own seq.
			if collectRates || ws.keeps(seq0, &floor) {
				exact := chain.Keys()
				if collectRates {
					ws.rates = append(ws.rates, exact.SampleRate)
				}
				if ws.keeps(seq0, &exact) {
					if seq := seq0 + w.Rank(); ws.keeps(seq, &exact) {
						chain.Result(&ws.res)
						ws.offer(seq, &ws.res)
					}
				}
			}
			if !w.NextLeaf() {
				break
			}
			runner.RunLeaf(chain, root, w.Mask())
		}
	}
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
	// Procs aside, the options hold for every size: check them once, naming none.
	enum := opts.Enum
	enum.Procs = 1
	if err := enum.Validate(); err != nil {
		return nil, err
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
	err := Pool(ctx, concurrent, len(sizes), func(_, i int) error {
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
