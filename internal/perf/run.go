package perf

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"calculon/internal/comm"
	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// Run evaluates one (LLM, system, strategy) point and returns the complete
// performance estimate, or an ErrInfeasible-wrapped error when the
// configuration cannot run. A single call is allocation-light and takes on
// the order of microseconds, which is what makes exhaustive search
// practical (§5).
func Run(m model.LLM, sys system.System, st execution.Strategy) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	return newRunner(m, sys, &sync.Map{}).Run(st)
}

// Runner evaluates many strategies against one fixed, pre-validated
// (LLM, system) pair — the hot path of the exhaustive searches.
//
// Evaluation is two-phase. Phase 1 is an analytic pre-screen
// (execution.PreScreen): processor-count and closed-form memory lower
// bounds reject infeasible strategies before any layer-level state is
// built. Phase 2 memoizes the per-block profile — layer times, traffic
// totals, boundary bytes — which is invariant across every strategy sharing
// its block inputs (see profileRow), so the search re-derives only the
// pipeline/DP-dependent terms per strategy. Both phases are exact: results
// and feasibility verdicts are bit-identical to a straight-line evaluation
// with neither (the reference evaluator the perf and search tests compare
// against), only faster. A Runner is safe for concurrent use by any number
// of goroutines.
type Runner struct {
	m   model.LLM
	sys system.System

	screen *execution.PreScreen
	rows   *sync.Map // rowKey -> *profileRow; shareable via RunnerGroup

	// Whole-batch useful FLOPs for MFU, precomputed per pass mode — a pure
	// function of the model, so hoisting it out of the per-strategy path
	// changes no bits.
	usefulTrain, usefulInfer units.FLOPs
}

// NewRunner validates the model and system once and returns an evaluator.
func NewRunner(m model.LLM, sys system.System) (*Runner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return newRunner(m, sys, &sync.Map{}), nil
}

// newRunner returns a Runner of the validated model and system that keeps
// its block profiles in rows.
func newRunner(m model.LLM, sys system.System, rows *sync.Map) *Runner {
	return &Runner{
		m:    m,
		sys:  sys,
		rows: rows,
		screen: execution.NewPreScreen(m, execution.Limits{
			Procs: sys.Procs,
			Mem1:  sys.Mem1.Capacity,
			Mem2:  sys.Mem2.Capacity,
		}),
		usefulTrain: usefulFLOPsPerSample(m, execution.Strategy{}).Times(float64(m.Batch)),
		usefulInfer: usefulFLOPsPerSample(m, execution.Strategy{Inference: true}).Times(float64(m.Batch)),
	}
}

// usefulFLOPs returns the precomputed whole-batch useful FLOP count for the
// strategy's pass mode.
func (r *Runner) usefulFLOPs(st *execution.Strategy) units.FLOPs {
	if st.Inference {
		return r.usefulInfer
	}
	return r.usefulTrain
}

// RunnerGroup builds Runners for system-size variants of one base system
// that share a single block-profile memo. The memo's inputs
// (tp, microbatch, recompute, seqParallel, tpRedo, fused, inference) and the
// profile computation read nothing size-dependent — only the model, the
// compute engines, and the first memory tier — so a profile memoized while
// searching one processor count is bit-identical at every other, and a §5.2
// sweep warms the cache once instead of once per size.
// TestBlockProfileProcsIndependent guards the key-relevance invariant.
type RunnerGroup struct {
	m    model.LLM
	base system.System
	rows *sync.Map
}

// NewRunnerGroup validates the model and base system once and returns a
// factory for memo-sharing Runners.
func NewRunnerGroup(m model.LLM, base system.System) (*RunnerGroup, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &RunnerGroup{m: m, base: base, rows: &sync.Map{}}, nil
}

// RunnerFor returns a Runner for the group's model on sys, serving block
// profiles from the group's shared memo. It refuses systems that disagree
// with the base on any memo-relevant input (compute engines or first memory
// tier) — sharing across those would serve profiles computed under different
// hardware. Everything else (processor count, capacities elsewhere,
// networks, the second tier) may vary freely.
func (g *RunnerGroup) RunnerFor(sys system.System) (*Runner, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(sys.Compute, g.base.Compute) {
		return nil, fmt.Errorf("perf: runner group: compute differs from the base system")
	}
	if !reflect.DeepEqual(sys.Mem1.Bandwidth, g.base.Mem1.Bandwidth) ||
		!reflect.DeepEqual(sys.Mem1.Efficiency, g.base.Mem1.Efficiency) {
		return nil, fmt.Errorf("perf: runner group: first-tier timing differs from the base system")
	}
	return newRunner(g.m, sys, g.rows), nil
}

// RunnerAt returns a Runner for the group's model at another global batch
// on the base system resized to procs processors, serving block profiles
// from the group's shared memo. Neither input reaches the memo: its rows are
// keyed by (TP, Microbatch), and the batch reaches only the useful-FLOP
// count and the sample-rate key (TestBlockProfileBatchIndependent,
// TestBlockProfileProcsIndependent). The base passed validation once, and
// validation reads the batch only as a positivity rule and the processor
// count only as a positivity rule and the outermost network's span, so only
// those rules are checked here; a failure returns what validating the
// resized model and system returns.
func (g *RunnerGroup) RunnerAt(batch, procs int) (*Runner, error) {
	m := g.m
	m.Batch = batch
	sys := g.base
	sys.Procs = procs
	if batch <= 0 {
		return nil, m.Validate()
	}
	if procs <= 0 || !sys.Networks[len(sys.Networks)-1].Covers(procs) {
		return nil, sys.Validate()
	}
	return newRunner(m, sys, g.rows), nil
}

// PricedGraphs reports how many block graphs the group's memo holds, each
// built and priced once.
func (g *RunnerGroup) PricedGraphs() int {
	n := 0
	g.rows.Range(func(_, v any) bool {
		row := v.(*profileRow)
		for i := range row.graphs {
			if row.graphs[i].Load() != nil {
				n++
			}
		}
		return true
	})
	return n
}

// RunInfo reports which fast paths one evaluation took.
type RunInfo struct {
	// PreScreened is true when the phase-1 analytic filter rejected the
	// strategy before any layer-level evaluation was built. Pre-screened
	// strategies still count as evaluated and infeasible.
	PreScreened bool
	// CacheHit is true when the per-block profile was served from the memo
	// rather than recomputed.
	CacheHit bool

	// delta carries the evaluation chain RunDeltaInto threads from call to
	// call; nil after a scratch evaluation. Opaque to callers: pass the
	// RunInfo back to the next RunDeltaInto unmodified.
	delta *deltaState
}

// Run evaluates one strategy; see the package-level Run.
func (r *Runner) Run(st execution.Strategy) (Result, error) {
	res, _, err := r.RunDetailed(st)
	return res, err
}

// RunDetailed is Run plus a RunInfo describing which fast paths the
// evaluation took, letting callers that share one Runner across workers
// attribute pre-screen rejections and cache hits without touching shared
// counters.
func (r *Runner) RunDetailed(st execution.Strategy) (Result, RunInfo, error) {
	// A scratch evaluation is a chain of one, every field changed, its
	// state, memo and verdict table on this frame instead of in a
	// deltaState (whose self-pointers would move it to the heap).
	var res Result
	var info RunInfo
	var v verdict // written only on failure; apart from s, which points at st
	var memo termMemo
	var screens screenTable
	s := evalState{e: eval{m: &r.m, sys: &r.sys, st: &st, memo: &memo}}
	st.Normalize()
	ok := r.admit(&st, execution.AllFields, &screens, &v) && r.evaluate(&s, execution.AllFields, &info, &v)
	info.PreScreened = v.kind == preScreened
	if !ok {
		return res, info, v.err()
	}
	r.timeTerms(&s, execution.AllFields)
	r.finish(&s, &res)
	return res, info, nil
}

// evalState is one evaluation's working state: the term groups, the memory
// rows, and the breakdown and fold keys of a fit. keys.Mem1 is set by the
// memory half (evaluate), the batch time and sample rate by the time half
// (timeTerms).
type evalState struct {
	e          eval
	mem1, mem2 MemBreakdown
	time       TimeBreakdown
	keys       Keys
}

// capacity checks the per-tier memory totals against the system, writing
// an overflow into *v. On a fit it sets the first-tier fold key.
func (r *Runner) capacity(s *evalState, v *verdict) bool {
	t1 := s.mem1.Total()
	if t1 > r.sys.Mem1.Capacity {
		*v = verdict{kind: mem1Overflow, need: t1, have: r.sys.Mem1.Capacity}
		return false
	}
	if t := s.mem2.Total(); t > r.sys.Mem2.Capacity {
		*v = verdict{kind: mem2Overflow, need: t, have: r.sys.Mem2.Capacity}
		return false
	}
	s.keys.Mem1 = t1
	return true
}

// finish assembles the Result of a feasible evaluation into *out. It sets
// every field in place rather than assigning a composite literal, which
// would build the ~400-byte Result on the stack and copy it over.
func (r *Runner) finish(s *evalState, out *Result) {
	st := s.e.st
	out.Model = r.m
	out.System = r.sys.Name
	out.Strategy = *st
	out.Time = s.time
	out.BatchTime = s.keys.BatchTime
	out.SampleRate = s.keys.SampleRate
	out.Mem1, out.Mem2 = s.mem1, s.mem2
	out.OffloadBWRequired = s.e.offloadBWRequired
	out.OffloadBWUsed = s.e.offloadBWUsed
	out.ProcsUsed = st.Procs()
	useful := r.usefulFLOPs(st)
	peak := r.sys.Compute.MatrixPeak.Times(float64(st.Procs()))
	out.MFU = useful.Ratio(peak.For(s.keys.BatchTime))
}

// admit applies the checks that precede every term group: the structural
// rules and the phase-1 pre-screen, writing a rejection into *v. mask is
// the set of fields changed since a strategy that passed Validate on this
// model (AllFields when there is none): an unchanged shape passes the
// shape rules again, so only the toggle rules are checked. screens is the
// chain's verdict table.
func (r *Runner) admit(st *execution.Strategy, mask execution.FieldMask, screens *screenTable, v *verdict) bool {
	var err error
	if mask.Has(execution.ShapeFields) {
		err = st.Validate(&r.m)
	} else {
		err = st.ValidateToggles()
	}
	if err != nil {
		*v = verdict{kind: invalidStrategy, cause: err}
		return false
	}
	if sv := screens.check(r.screen, st); !sv.OK() {
		*v = verdict{kind: preScreened, screen: sv}
		return false
	}
	return true
}

// evaluate is the memory half of the evaluator behind every entry point;
// timeTerms is the time half. *s holds the terms of the last strategy
// evaluated on it (zero for a scratch evaluation), s.e.st the admitted
// strategy now to evaluate, and mask the fields that differ between the two
// (AllFields for a scratch evaluation). evaluate loads the block profile
// and shape quantities, reruns the memory rows mask reaches, and checks
// capacity; none of that reads a time group, so a leaf that overflows
// memory never prices one. Whatever a half does not recompute it carries
// forward: its outputs are pure functions of inputs the diff proves
// unchanged, so every mask yields what AllFields yields, bit for bit (the
// reference evaluator in the tests pins this). evaluate sets info.CacheHit
// and reports whether the strategy fits, writing an overflow into *v.
func (r *Runner) evaluate(s *evalState, mask execution.FieldMask, info *RunInfo, v *verdict) bool {
	e := &s.e
	// An unchanged profile is necessarily in the memo — the previous
	// evaluation put it there — so a lookup would have hit.
	hit := true
	if mask.Has(profileMask) {
		var prof *blockProfile
		prof, hit = r.profile(e.memo.rowOf(r, e.st), e.st)
		e.loadProfile(prof)
	}
	if mask.Has(shapeMask) {
		e.loadShape()
	}
	if mask.Has(memWeightsMask) {
		e.weightRows(&s.mem1, &s.mem2)
	}
	if mask.Has(memOptimMask) {
		e.optimizerRows(&s.mem1, &s.mem2)
	}
	if mask.Has(memActsMask) {
		e.activationRows(&s.mem1, &s.mem2)
	}
	info.CacheHit = hit
	return r.capacity(s, v)
}

// timeTerms is the time half: on a strategy evaluate found to fit, it
// reruns the term groups mask reaches — mask being the fields changed since
// the time half last ran on *s — then assembles the batch breakdown and
// sets the exact batch time and sample rate keys.
func (r *Runner) timeTerms(s *evalState, mask execution.FieldMask) {
	e := &s.e
	// Each group's outputs are zeroed before the recompute because the
	// methods accumulate (+=) or early-return leaving zeros (TP≤1, PP≤1,
	// no offload) — exactly the state a zero-initialized eval has.
	if mask.Has(tensorMask) {
		e.tpFwdPerBlock, e.tpBwdPerBlock = 0, 0
		e.tpFwdExposedPerBlock, e.tpBwdExposedPerBlock = 0, 0
		e.fwdPenalty, e.bwdPenalty = 0, 0
		e.tensorComm()
	}
	if mask.Has(pipeMask) {
		e.ppPerMicrobatch, e.ppExposedPerMicrobatch = 0, 0
		e.pipelineComm()
	}
	if mask.Has(dataMask) {
		e.dpTotal, e.dpExposed, e.dpPenalty = 0, 0, 0
		e.dataComm()
	}
	if mask.Has(optimMask) {
		e.optimTime = 0
		e.optimizer()
	}
	if mask.Has(offloadMask) {
		e.xferFwd, e.xferBwd = 0, 0
		e.offloadTotal, e.offloadExposed = 0, 0
		e.offloadBWRequired, e.offloadBWUsed = 0, 0
		e.offload()
	}
	e.assemble(&s.time)
	batch := s.time.Total()
	s.keys.BatchTime, s.keys.SampleRate = batch, batch.Rate(float64(r.m.Batch))
}

// usefulFLOPsPerSample is the recompute-free model FLOP count per sample
// used for MFU (forward + backward for training, forward for inference).
func usefulFLOPsPerSample(m model.LLM, st execution.Strategy) units.FLOPs {
	fwd := m.FwdFLOPsPerToken().Times(float64(m.Seq))
	if st.Inference {
		return fwd
	}
	return 3 * fwd
}

// rowKey names a profileRow: the two block-profile inputs that take any
// integer value. The key has word-sized fields only, no string and no
// padding, so the rows' sync.Map hashes and compares it as plain memory.
type rowKey struct{ tp, microbatch int }

// The slots of a profileRow: one priced graph per combination of the four
// block switches, and one block profile per graph and recompute mode.
const (
	graphSlots   = 16
	profileSlots = 3 * graphSlots
)

// profileRow is the phase-2 memo for one (TP, Microbatch): the block
// profiles and priced graphs of every switch combination, each slot filled
// once. The block profile depends on exactly the layers.Shard fields plus
// the recompute mode. Pipeline shape (PP, DP, Interleave, schedule) and the
// overlap/offload/sharding toggles do not reach the block layer graph or
// its timing, so strategies differing only in those share one profile. A
// chain holds the row of its current (TP, Microbatch) in its termMemo, so a
// step that moves only the switches reads its profile with one atomic load.
type profileRow struct {
	profs  [profileSlots]atomic.Pointer[blockProfile]
	graphs [graphSlots]atomic.Pointer[pricedGraph]
	// minima holds the slot minima the segment floor last asked of the row.
	minima atomic.Pointer[slotMinima]
}

// slotFor packs the strategy's block switches into its profile slot: the
// sequence-parallel, TP-redo, fused-layers and inference switches in bits
// 0-3, which are also its graph slot, and the recompute mode above them.
func slotFor(st *execution.Strategy) uint32 {
	var recompute uint32
	switch st.Recompute {
	case execution.RecomputeAttn:
		recompute = 1
	case execution.RecomputeFull:
		recompute = 2
	}
	return b2u(st.SeqParallel) | b2u(st.TPRedoForSP)<<1 | b2u(st.FusedLayers)<<2 |
		b2u(st.Inference)<<3 | recompute<<4
}

// slotRecompute is the recompute mode of each value of a profile slot's
// bits 4-5, as slotFor packs it.
var slotRecompute = [3]execution.RecomputeMode{execution.RecomputeNone, execution.RecomputeAttn, execution.RecomputeFull}

// blockProfile is the memoized phase-2 sub-result: everything derived from
// the transformer-block layer graph for one profile slot — aggregate totals,
// boundary bytes, and the per-microbatch forward/backward/recompute times
// with their HBM-idle slack. It is a pure function of (model, system, key),
// so concurrent duplicate computation is benign: every copy is bit-equal.
type blockProfile struct {
	tot           layers.Totals
	boundaryBytes units.Bytes

	fwd, bwd, recompute         units.Seconds
	fwdSlack, bwdSlack, rcSlack units.Seconds
}

func shardFor(st *execution.Strategy) layers.Shard {
	return layers.Shard{
		TP:          st.TP,
		SeqParallel: st.SeqParallel,
		TPRedo:      st.TPRedoForSP,
		Fused:       st.FusedLayers,
		Microbatch:  st.Microbatch,
		Inference:   st.Inference,
	}
}

// pricedGraph is the expensive, recompute-independent part of a block
// profile: the layer graph built and every op priced through the §2.2
// processing model (the log-shaped efficiency curves live here), with the
// forward sums pre-accumulated both over all layers and over the attention
// group. The layer graph and its op pricing never read the recompute mode,
// which only selects the forward terms replayed, so the three recompute
// variants of one shard share it: deriving a blockProfile from it is a
// constant-time copy, and pricing happens once per shard instead of once
// per (shard, recompute) pair.
type pricedGraph struct {
	tot           layers.Totals
	boundaryBytes units.Bytes

	fwd, bwd           units.Seconds
	fwdSlack, bwdSlack units.Seconds
	attnFwd, attnSlack units.Seconds
}

// priceGraph builds the block layer graph for the strategy's shard and times
// one microbatch through it. The per-field accumulation visits layers in
// graph order, matching the historical single-pass loop term for term, so
// every derived blockProfile is bit-identical to what that loop produced.
func priceGraph(m *model.LLM, sys *system.System, st *execution.Strategy) pricedGraph {
	sh := shardFor(st)
	ls := layers.Block(*m, sh)
	g := pricedGraph{
		tot:           layers.Sum(ls),
		boundaryBytes: layers.BlockInputBytes(*m, sh),
	}
	for i := range ls {
		l := &ls[i]
		ft, fs := opTime(sys, l.Engine, l.FLOPs, l.Traffic)
		g.fwd += ft
		g.fwdSlack += fs
		bt, bs := opTime(sys, l.Engine, l.BwdFLOPs, l.BwdTraffic)
		g.bwd += bt
		g.bwdSlack += bs
		if l.AttnGroup {
			g.attnFwd += ft
			g.attnSlack += fs
		}
	}
	return g
}

// profileFrom selects the recompute portion out of a priced graph: full
// recompute replays the whole forward pass, attention-only recompute replays
// the attention group, and no recompute replays nothing.
func profileFrom(g *pricedGraph, mode execution.RecomputeMode) blockProfile {
	p := blockProfile{
		tot:           g.tot,
		boundaryBytes: g.boundaryBytes,
		fwd:           g.fwd,
		bwd:           g.bwd,
		fwdSlack:      g.fwdSlack,
		bwdSlack:      g.bwdSlack,
	}
	switch mode {
	case execution.RecomputeFull:
		p.recompute, p.rcSlack = g.fwd, g.fwdSlack
	case execution.RecomputeAttn:
		p.recompute, p.rcSlack = g.attnFwd, g.attnSlack
	}
	return p
}

// computeProfile builds the block layer graph and times one microbatch
// through it: forward, backward, and the recompute portion selected by the
// strategy.
func computeProfile(m *model.LLM, sys *system.System, st *execution.Strategy) blockProfile {
	g := priceGraph(m, sys, st)
	return profileFrom(&g, st.Recompute)
}

// row returns the profile row of the strategy's (TP, Microbatch), adding an
// empty one on first use.
func (r *Runner) row(st *execution.Strategy) *profileRow {
	k := rowKey{st.TP, st.Microbatch}
	if v, ok := r.rows.Load(k); ok {
		return v.(*profileRow)
	}
	v, _ := r.rows.LoadOrStore(k, new(profileRow))
	return v.(*profileRow)
}

// profile returns the block profile for the strategy from its row, filling
// the slot on first use, and reports whether it was a cache hit. A profile
// miss whose graph slot is filled still reports a miss — the hit flag
// tracks the profile memo, whose semantics the stats and search counters
// pin — but skips the graph build and op pricing, which is where nearly all
// of the profile cost lives.
//
// The hit flag must be deterministic across worker counts and scheduling
// (the search counters it feeds are pinned bit-identical by equivalence
// tests), so each distinct profile reports exactly one miss: when two
// workers race to first-compute one, CompareAndSwap publishes one profile
// and the loser reports a hit — the same totals a serial run would count.
func (r *Runner) profile(row *profileRow, st *execution.Strategy) (*blockProfile, bool) {
	i := slotFor(st)
	slot := &row.profs[i]
	if p := slot.Load(); p != nil {
		return p, true
	}
	gslot := &row.graphs[i%graphSlots]
	if gslot.Load() == nil {
		g := priceGraph(&r.m, &r.sys, st)
		gslot.CompareAndSwap(nil, &g)
	}
	p := profileFrom(gslot.Load(), st.Recompute)
	if slot.CompareAndSwap(nil, &p) {
		return &p, false
	}
	return slot.Load(), true
}

// eval carries the intermediate quantities of one evaluation, initialized
// from a blockProfile. It reads the model, system, and strategy through
// pointers, so starting an evaluation copies none of them.
type eval struct {
	m   *model.LLM
	sys *system.System
	st  *execution.Strategy

	// memo is the chain's lookup memo (see termMemo); a scratch
	// evaluation holds one of its own.
	memo *termMemo

	tot layers.Totals

	// Derived shape quantities.
	n  int // microbatches per pipeline pass
	bp int // blocks on the busiest processor
	bc int // blocks per interleave chunk

	// Per-microbatch, per-block compute times and HBM-idle slack.
	blockFwd, blockBwd, blockRecompute         units.Seconds
	blockFwdSlack, blockBwdSlack, recompSlack  units.Seconds
	fwdPenalty, bwdPenalty                     units.Seconds // overlap compute tax per block
	tpFwdPerBlock, tpBwdPerBlock               units.Seconds // total TP comm
	tpFwdExposedPerBlock, tpBwdExposedPerBlock units.Seconds
	ppPerMicrobatch, ppExposedPerMicrobatch    units.Seconds
	dpTotal, dpExposed, dpPenalty              units.Seconds
	optimTime                                  units.Seconds
	optimWriteback                             units.Seconds // second-tier part of the step, offloaded
	xferFwd, xferBwd                           units.Seconds // offload transfer per block visit
	offloadTotal, offloadExposed               units.Seconds
	offloadBWRequired, offloadBWUsed           units.BytesPerSec
	boundaryBytes                              units.Bytes
}

// loadProfile copies a block profile's terms into the evaluation.
func (e *eval) loadProfile(prof *blockProfile) {
	e.tot = prof.tot
	e.boundaryBytes = prof.boundaryBytes
	e.blockFwd, e.blockBwd, e.blockRecompute = prof.fwd, prof.bwd, prof.recompute
	e.blockFwdSlack, e.blockBwdSlack, e.recompSlack = prof.fwdSlack, prof.bwdSlack, prof.rcSlack
}

// loadShape derives the shape quantities from the strategy.
func (e *eval) loadShape() {
	e.n = e.st.Microbatches(e.m)
	e.bp = e.st.BlocksPerProc(e.m)
	e.bc = e.st.BlocksPerChunk(e.m)
}

// newEval builds a ready-to-use evaluation for the cold paths (layer
// profiling, pipeline cross-validation, tests); block times are already
// computed.
func newEval(m model.LLM, sys system.System, st execution.Strategy) *eval {
	prof := computeProfile(&m, &sys, &st)
	e := &eval{m: &m, sys: &sys, st: &st, memo: new(termMemo)}
	e.loadProfile(&prof)
	e.loadShape()
	return e
}

// opTime applies the processing model of §2.2 to one operation: the time is
// the maximum of raw compute and raw memory access, each with size-based
// efficiency. slack is the HBM-idle portion usable for offload transfers.
func opTime(sys *system.System, engine layers.Engine, flops units.FLOPs, traffic units.Bytes) (t, slack units.Seconds) {
	var rate units.FLOPsPerSec
	if engine == layers.Matrix {
		rate = sys.Compute.MatrixRate(flops)
	} else {
		rate = sys.Compute.VectorRate(flops)
	}
	ct := flops.Div(rate)
	mt := sys.Mem1.AccessTime(traffic)
	if ct >= mt {
		return ct, ct - mt
	}
	return mt, 0
}

// tensorComm prices the per-block tensor-parallel collectives and applies
// the selected overlap mode. Hidden communication taxes the concurrent
// compute by the network's processor-usage fraction (§2.2).
func (e *eval) tensorComm() {
	t := e.st.TP
	if t <= 1 {
		return
	}
	net := e.sys.NetworkPtrFor(t)
	fwd, bwd := e.tpCollectives(net, e.st.TPRSAG)
	e.tpFwdPerBlock, e.tpBwdPerBlock = fwd, bwd

	hide := e.st.TPOverlap.HiddenFraction()
	var hiddenFwd, hiddenBwd units.Seconds
	e.tpFwdExposedPerBlock, hiddenFwd = overlapTP(fwd, hide, e.blockFwd)
	e.tpBwdExposedPerBlock, hiddenBwd = overlapTP(bwd, hide, e.blockBwd+e.blockRecompute)
	tax := net.ProcUse / (1 - net.ProcUse)
	e.fwdPenalty += hiddenFwd.Times(tax)
	e.bwdPenalty += hiddenBwd.Times(tax)
}

// tpCollectives returns the TP communication time per block, forward and
// backward, with reduce-scatter + all-gather pairs (rsag) or with
// all-reduces.
func (e *eval) tpCollectives(net *system.Network, rsag bool) (fwd, bwd units.Seconds) {
	t := e.st.TP
	full := units.Bytes(float64(e.st.Microbatch)*float64(e.m.Seq)*float64(e.m.Hidden)) * 2
	if rsag {
		rs := e.commTime(siteTPReduceScatter, net, comm.ReduceScatter, t, full)
		ag := e.commTime(siteTPAllGather, net, comm.AllGather, t, full)
		fwd = 2 * (rs + ag)
		bwd = 2 * (rs + ag)
		if e.st.TPRedoForSP {
			// Backward re-gathers the sharded GEMM inputs it did not store.
			bwd += 2 * ag
		}
	} else {
		ar := e.commTime(siteTPAllReduce, net, comm.AllReduce, t, full)
		fwd = 2 * ar
		bwd = 2 * ar
	}
	if e.st.Recompute == execution.RecomputeFull {
		// Re-running the whole block forward re-runs its collectives too.
		bwd += fwd
	}
	return fwd, bwd
}

// overlapTP hides the fraction hide of the TP time x behind compute. Overlap
// can only hide communication behind the block's compute time, window. It
// returns the exposed and the hidden parts.
func overlapTP(x units.Seconds, hide float64, window units.Seconds) (exposed, hidden units.Seconds) {
	hidden = minSec(x.Times(hide), window)
	return x - hidden, hidden
}

// pipelineComm prices the point-to-point boundary traffic of pipeline
// parallelism. With PP RS+AG (or sequence parallelism, whose boundary is
// already sharded) the transfer shrinks by t, at the cost of an all-gather
// on the fast network to reassemble the tensor.
func (e *eval) pipelineComm() {
	p := e.st.PP
	if p <= 1 {
		return
	}
	net := e.sys.NetworkPtrFor(e.st.TP * p)
	bytes := e.boundaryBytes
	var reassemble units.Seconds
	if e.st.PPRSAG && !e.st.SeqParallel && e.st.TP > 1 {
		bytes = bytes.DivN(float64(e.st.TP))
		tpNet := e.sys.NetworkPtrFor(e.st.TP)
		reassemble = e.commTime(sitePPReassemble, tpNet, comm.AllGather, e.st.TP, e.boundaryBytes)
	}
	hop := e.commTime(sitePPHop, net, comm.P2P, 2, bytes) + reassemble
	// Each microbatch crosses v chunk boundaries forward and v backward.
	perMB := hop.Times(float64(2 * e.st.Interleave))
	if e.st.Inference {
		perMB = hop.Times(float64(e.st.Interleave))
	}
	e.ppPerMicrobatch = perMB
	e.ppExposedPerMicrobatch = perMB
}

// dataComm prices the per-batch gradient synchronization of data
// parallelism, including optional overlap with the backward drain (Fig. 2b)
// and the rule that sharded optimizers forbid overlap during their step.
func (e *eval) dataComm() {
	d := e.st.DP
	if d <= 1 || e.st.Inference {
		return
	}
	net := e.sys.NetworkPtrFor(e.st.TP * e.st.PP * d)
	grads := e.tot.WeightBytes.Times(float64(e.bp))

	var overlappable, gather units.Seconds
	if e.st.OptimSharding {
		// Reduce-scatter during backward; the all-gather of updated
		// parameters runs after the (sharded) optimizer step — never during
		// it (§2.4) — but may prefetch against the next batch's forward.
		overlappable = e.commTime(siteDPReduceScatter, net, comm.ReduceScatter, d, grads)
		gather = e.commTime(siteDPAllGather, net, comm.AllGather, d, grads)
	} else {
		overlappable = e.commTime(siteDPAllReduce, net, comm.AllReduce, d, grads)
	}
	e.dpTotal = overlappable + gather

	hidden := units.Seconds(0)
	tax := net.ProcUse / (1 - net.ProcUse)
	if e.st.DPOverlap && e.bp > 1 {
		// Per-block gradients become final as the last microbatch's
		// backward drains through this processor's blocks; the drain window
		// is the backward (plus recompute) of the remaining blocks.
		window := (e.blockBwd + e.blockRecompute).Times(float64(e.bp - 1))
		frac := float64(e.bp-1) / float64(e.bp)
		hidden = minSec(overlappable.Times(frac), window)
		if gather > 0 {
			// The updated-parameter all-gather streams per block ahead of
			// the next forward pass (ZeRO-style prefetch), bounded by the
			// forward time of the blocks not yet reached.
			fwdWindow := e.blockFwd.Times(float64(e.n) * float64(e.bp-1))
			hidden += minSec(gather.Times(frac), fwdWindow)
		}
		e.dpPenalty = hidden.Times(tax)
	}
	e.dpExposed = e.dpTotal - hidden
}

// optimizer prices the Adam step: element-wise vector math over the local
// (possibly sharded) parameters, streaming optimizer state from the tier
// that holds it.
func (e *eval) optimizer() {
	if e.st.Inference {
		return
	}
	params := e.tot.Params() * float64(e.bp)
	if e.st.OptimSharding {
		params /= float64(e.st.DP)
	}
	flops := units.FLOPs(10 * params)
	ct := flops.Div(e.vectorRate(flops))
	// Read grad (2B) + state (12B), write state (12B) + weights (2B).
	traffic := units.Bytes(28 * params)
	mt := e.mem1AccessTime(traffic)
	if e.st.OptimOffload {
		// State was prefetched during the backward pass (Fig. 8); the
		// updated state and weights stream back over the second tier,
		// pacing the step when that link is slower.
		writeback := units.Bytes(14 * params)
		e.optimWriteback = writeback.Div(e.mem2Bandwidth(writeback))
		mt = maxSec(mt, e.optimWriteback)
	}
	e.optimTime = maxSec(ct, mt)
}

// assemble composes the per-batch breakdown from the per-block quantities
// into *t, overwriting every field.
func (e *eval) assemble(t *TimeBreakdown) {
	*t = TimeBreakdown{}
	nb := float64(e.n) * float64(e.bp)
	t.FwdPass = e.blockFwd.Times(nb) + e.fwdPenalty.Times(nb)
	t.Recompute = e.blockRecompute.Times(nb)
	if !e.st.Inference {
		t.BwdPass = e.blockBwd.Times(nb) + e.bwdPenalty.Times(nb) + e.dpPenalty
	}
	t.TPComm = (e.tpFwdPerBlock + e.tpBwdPerBlock).Times(nb)
	t.TPExposed = (e.tpFwdExposedPerBlock + e.tpBwdExposedPerBlock).Times(nb)
	t.PPComm = e.ppPerMicrobatch.Times(float64(e.n))
	t.PPExposed = e.ppExposedPerMicrobatch.Times(float64(e.n))
	t.DPComm = e.dpTotal
	t.DPExposed = e.dpExposed
	t.OptimStep = e.optimTime
	t.OffloadTotal = e.offloadTotal
	t.OffloadExposed = e.offloadExposed

	if p := e.st.PP; p > 1 {
		// Interleaved 1F1B bubble: (p−1) chunk slots at the head and tail of
		// the pipeline (Fig. 2); a slot is a chunk visit plus its boundary hop.
		fwd, bwd, hop := e.chunk()
		chunkBwd := bwd + hop
		if e.st.Inference {
			chunkBwd = 0
		}
		t.PPBubble = (fwd + hop + chunkBwd).Times(float64(p - 1))
	}
}

// chunk returns the forward and backward compute of one chunk visit — bc
// blocks, each with its overlap penalty and exposed TP time — and the
// boundary hop between chunks. It prices the bubble's slots and the
// discrete simulation's ops (PipelineParams) alike.
func (e *eval) chunk() (fwd, bwd, hop units.Seconds) {
	fwd = (e.blockFwd + e.fwdPenalty + e.tpFwdExposedPerBlock).Times(float64(e.bc))
	bwd = (e.blockBwd + e.blockRecompute + e.bwdPenalty + e.tpBwdExposedPerBlock).Times(float64(e.bc))
	return fwd, bwd, e.ppPerMicrobatch.DivN(float64(2 * e.st.Interleave))
}

// batchTimeBound is a lower bound on the batch time from the profile and
// shape terms alone: TimeBreakdown.Total with every term a time group
// prices dropped to 0 — the overlap and DP penalties, the exposed TP, PP,
// DP and offload times, the optimizer step, and the bubble's communication
// — and the rest (the forward, backward and recompute compute, and the
// bubble's compute part) formed and summed in assemble's and Total's order.
// Every dropped term is ≥ 0 and rounding to nearest is monotone in each
// operand, so the bound is ≤ the exact total bit for bit.
//
//calculonvet:ordered
func (e *eval) batchTimeBound() units.Seconds {
	nb := float64(e.n) * float64(e.bp)
	fwd := e.blockFwd.Times(nb)
	recompute := e.blockRecompute.Times(nb)
	var bwd, bubble units.Seconds
	if !e.st.Inference {
		bwd = e.blockBwd.Times(nb)
	}
	if p := e.st.PP; p > 1 {
		chunk := e.blockFwd.Times(float64(e.bc))
		if !e.st.Inference {
			chunk += (e.blockBwd + e.blockRecompute).Times(float64(e.bc))
		}
		bubble = chunk.Times(float64(p - 1))
	}
	return fwd + bwd + recompute + bubble
}

// tpFloor is a lower bound on the exposed TP time per block, forward and
// backward, of every leaf of the class: tensorComm's formula on the
// collective scheme the class may use, hidden by the largest fraction any
// overlap mode hides, capped by the block's compute. Sequence parallelism
// requires RS+AG (Strategy.Validate), so a class with it on is priced on
// RS+AG alone, and one without it on the cheaper of RS+AG and all-reduce.
// The exposed time rises with the collective time and falls with the hidden
// fraction.
func (e *eval) tpFloor() (fwd, bwd units.Seconds) {
	t := e.st.TP
	if t <= 1 {
		return 0, 0
	}
	net := e.sys.NetworkPtrFor(t)
	fwd, bwd = e.tpCollectives(net, true)
	if !e.st.SeqParallel {
		arFwd, arBwd := e.tpCollectives(net, false)
		fwd, bwd = minSec(arFwd, fwd), minSec(arBwd, bwd)
	}
	fwd, _ = overlapTP(fwd, execution.MaxHiddenFraction, e.blockFwd)
	bwd, _ = overlapTP(bwd, execution.MaxHiddenFraction, e.blockBwd+e.blockRecompute)
	return fwd, bwd
}

// floorMargin scales the class floor down to cover its reassociation: the
// floor adds the TP and offload exposures per block visit, where assemble
// and Total multiply and add them apart, and rounds its TP floor apart from
// each leaf's exposure. Every term is non-negative; the two subtractions
// (TP time − hidden, transfer − slack) err by at most an ulp of operands no
// larger than twice the batch time, and each side takes under 40 roundings,
// so both stay within about a hundred ulps (2⁻⁴⁶) of the real-valued sums.
// A margin of 2⁻³² covers that many times over; it only admits the rare
// class whose floor falls that close under the fold's threshold.
const floorMargin = 1 - 0x1p-32

// classFloor is a lower bound on the batch time of every leaf of a memory
// class — the leaves that differ only in execution.VariantFields — from the
// profile and shape terms on *e, the class's TP floor (tpFloor) and the
// class's terms c. It is batchTimeBound plus every term no variant field
// reaches: the exact data-parallel exposure and penalty and the optimizer
// step (dataMask and optimMask hold no variant field), and the TP floor
// wherever assemble uses the TP exposure, the bubble included. The offload
// transfer joins through its coupling with the TP exposure: per block visit
// a leaf exposes tpExposed of TP time and max(0, xfer − slack − tpExposed)
// of transfer, together max(tpExposed, xfer − slack), which is no less than
// max(tpFloor, xfer − slack); the transfer times (offloadXferMask) read no
// variant field either. Dropped are the overlap penalties, the pipeline
// communication, and the bubble's hops, all ≥ 0. The sum is real-valued
// sound; floorMargin covers its rounding.
//
//calculonvet:ordered
func (e *eval) classFloor(tpFwd, tpBwd units.Seconds, c *classTerms) units.Seconds {
	nb := float64(e.n) * float64(e.bp)
	fwd := e.blockFwd.Times(nb)
	recompute := e.blockRecompute.Times(nb)
	var bwd, bubble units.Seconds
	if !e.st.Inference {
		bwd = e.blockBwd.Times(nb) + c.dpPenalty
	}
	if p := e.st.PP; p > 1 {
		chunk := (e.blockFwd + tpFwd).Times(float64(e.bc))
		if !e.st.Inference {
			chunk += (e.blockBwd + e.blockRecompute + tpBwd).Times(float64(e.bc))
		}
		bubble = chunk.Times(float64(p - 1))
	}
	visit := maxSec(tpFwd, c.xferFwd-e.blockFwdSlack) +
		maxSec(tpBwd, c.xferBwd-(e.blockBwdSlack+e.recompSlack))
	total := fwd + bwd + recompute + c.optimTime + bubble + visit.Times(nb) + c.dpExposed
	return total.Times(floorMargin)
}

// classTerms are the time terms of a memory class that classFloor reads
// besides the profile, the shape and the TP floor: the data-parallel
// penalty and exposure (dataComm), the optimizer step (optimizer) and the
// offload transfers per block visit (offload). No variant field reaches
// them.
type classTerms struct {
	dpPenalty, dpExposed units.Seconds
	optimTime            units.Seconds
	xferFwd, xferBwd     units.Seconds
}

func minSec(a, b units.Seconds) units.Seconds {
	if a < b {
		return a
	}
	return b
}

func maxSec(a, b units.Seconds) units.Seconds {
	if a > b {
		return a
	}
	return b
}
