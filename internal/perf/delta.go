package perf

import (
	"calculon/internal/comm"
	"calculon/internal/execution"
	"calculon/internal/system"
	"calculon/internal/units"
)

// Term-group invalidation masks: for each group of evaluation terms, the set
// of Strategy fields whose change can perturb the group's outputs. A group
// is recomputed exactly when the field diff since its last run intersects
// its mask; otherwise its outputs — pure functions of unchanged inputs —
// carry over bit-identically from that run. On a chain the memory rows run
// on every admitted leaf, the time groups only when a caller asks for the
// leaf's exact keys (RunInfo.Keys). Masks compose along the dataflow: a
// group that reads another group's outputs includes that group's mask
// (profileMask sits inside every consumer, tensorMask inside offloadMask).
// The tests that compare delta chains against the straight-line reference
// evaluator pin that these masks are sufficient; being too wide only costs
// speed, never correctness.
const (
	// shapeMask covers the derived shape quantities n (microbatches per
	// pipeline pass: DP and Microbatch), bp (blocks per processor: PP), and
	// bc (blocks per chunk: PP and Interleave).
	shapeMask = execution.FieldPP | execution.FieldDP |
		execution.FieldMicrobatch | execution.FieldInterleave

	// profileMask covers the memoized per-block profile: exactly its
	// inputs (tp, microbatch, recompute, seqParallel, tpRedo, fused,
	// inference; see profileRow). Every downstream group reads profile
	// outputs, so profileMask is included in all of them.
	profileMask = execution.FieldTP | execution.FieldMicrobatch |
		execution.FieldRecompute | execution.FieldSeqParallel |
		execution.FieldTPRedoForSP | execution.FieldFusedLayers |
		execution.FieldInference

	// tensorMask covers eval.tensorComm: TP collectives sized by
	// (TP, Microbatch), shaped by TPRSAG/TPRedoForSP/Recompute, overlapped
	// per TPOverlap against the profile's block times.
	tensorMask = profileMask | execution.FieldTPRSAG | execution.FieldTPOverlap

	// pipeMask covers eval.pipelineComm: boundary traffic per (PP,
	// Interleave, Inference), sharded per PPRSAG/SeqParallel/TP, sized by
	// the profile's boundary bytes.
	pipeMask = profileMask | execution.FieldPP | execution.FieldPPRSAG |
		execution.FieldInterleave

	// dataMask covers eval.dataComm: gradient synchronization over DP,
	// shaped by OptimSharding/DPOverlap, overlapped against the profile's
	// block times across the shape quantities.
	dataMask = profileMask | shapeMask | execution.FieldOptimSharding |
		execution.FieldDPOverlap | execution.FieldOneFOneB

	// optimMask covers eval.optimizer: the Adam step over the local
	// (possibly sharded, possibly offloaded) parameters.
	optimMask = profileMask | shapeMask | execution.FieldOptimSharding |
		execution.FieldOptimOffload

	// offloadMask covers eval.offload, which reads tensorComm's exposed
	// times as overlap windows in addition to the offload switches.
	offloadMask = tensorMask | shapeMask | execution.FieldWeightOffload |
		execution.FieldActOffload | execution.FieldOptimOffload |
		execution.FieldOptimSharding

	// The memory rows (memory.go); activations read OneFOneB for the
	// in-flight microbatch count. An offload flip reruns one row.
	memWeightsMask = profileMask | shapeMask | execution.FieldWeightOffload |
		execution.FieldOptimSharding | execution.FieldDPOverlap
	memOptimMask = profileMask | shapeMask | execution.FieldOptimSharding |
		execution.FieldOptimOffload
	memActsMask = profileMask | shapeMask | execution.FieldOneFOneB |
		execution.FieldActOffload
)

// deltaState carries one evaluation chain's reusable terms between leaves:
// the last admitted strategy and its evaluation state, the fields changed
// since, the pre-screen verdicts of the current parallelism base, and the
// one-entry memos of the log10-priced lookups. It is NOT safe for
// concurrent use — each worker goroutine threads its own chain through the
// RunInfo it gets back — while the owning Runner stays shared. Everything
// here is built lazily by the chain itself, so neither the Runner
// constructors nor a scratch evaluation pay for it.
type deltaState struct {
	r *Runner // owning runner; a chain never crosses runners

	valid bool
	prev  execution.Strategy // normalized, groups fully evaluated; e.st points here
	evalState
	v        verdict             // the last stepped leaf's, when it failed
	mask     execution.FieldMask // changed since prev, through the last stepped leaf
	admitted bool                // the last stepped leaf was; mask is what evaluate got
	// pending is the fields changed since the time half last ran: the time
	// groups owed before the last leaf's exact keys can be read.
	pending execution.FieldMask

	screens screenTable
	memo    termMemo // e.memo points here
}

// chainOf returns the chain state *chain carries, or a fresh one when it
// carries none or another runner's, in which case *chain is reset to it.
func (r *Runner) chainOf(chain *RunInfo) *deltaState {
	d := chain.delta
	if d == nil || d.r != r {
		d = &deltaState{r: r}
		*chain = RunInfo{delta: d}
	}
	return d
}

// RunDeltaInto evaluates one strategy incrementally against the previous
// evaluation of the same chain and writes the result into *out: it diffs
// st against the last strategy this chain fully evaluated and recomputes
// only the term groups the changed fields can perturb, carrying everything
// else forward unrecomputed. The chain is threaded through RunInfo — pass
// the RunInfo returned by the previous RunDeltaInto call (or a zero RunInfo
// to start a chain). Results, feasibility verdicts, and RunInfo flags are
// bit-identical to RunDetailed; only the work differs. The fewer fields
// change between successive calls — e.g. along execution's Gray-code toggle
// order, where neighbors differ in one toggle — the more is reused. On
// success *out holds the result; on error *out is zeroed, exactly the
// Result a scratch call would have returned.
//
// A chain must stay within one goroutine; the Runner itself remains safe
// for concurrent use by many chains.
func (r *Runner) RunDeltaInto(prev RunInfo, st execution.Strategy, out *Result) (RunInfo, error) {
	mask := execution.AllFields // step diffs a foreign or empty chain against nothing
	if prev.delta != nil {
		mask = execution.DiffMask(&prev.delta.prev, &st)
	}
	if !r.step(&prev, &st, mask) {
		*out = Result{}
		return prev, prev.delta.v.err()
	}
	prev.Result(out)
	return prev, nil
}

// RunLeaf is the search's per-leaf entry point. mask is the fields in
// which *st differs from the chain's previous leaf, as execution's walks
// (Toggles.Walk, ClassWalk) report it, so the leaf path never diffs
// strategies. RunLeaf decides only the memory half of the evaluation and
// reports bound keys: Mem1 exact, and a BatchTime from the profile and
// shape terms alone that is never above the exact one (so SampleRate is
// never below it). A fold whose admission test is monotone in batch time
// can turn a leaf away on these; chain.Keys prices the time terms and
// returns the exact keys, and chain.Result builds the full Result. RunLeaf
// allocates nothing on a warm chain and normalizes *st in place. The
// PreScreened and CacheHit flags are read from *chain afterwards, as from
// RunDeltaInto's returned RunInfo. Only three toggle rules read
// execution.VariantFields, so on one segment base the valid leaves of a
// memory class get one verdict, one PreScreened flag and one bound.
func (r *Runner) RunLeaf(chain *RunInfo, st *execution.Strategy, mask execution.FieldMask) (Keys, bool) {
	if !r.step(chain, st, mask) {
		return Keys{}, false
	}
	d := chain.delta
	bound := d.e.batchTimeBound()
	return Keys{BatchTime: bound, SampleRate: bound.Rate(float64(r.m.Batch)), Mem1: d.keys.Mem1}, true
}

// Keys runs the time half of the evaluation of the chain's last leaf — the
// term groups owed since it last ran — and returns the leaf's exact keys,
// bit for bit its Result's BatchTime, SampleRate and Mem1.Total(). It is
// valid only right after RunLeaf reported that leaf feasible; calling it
// again is free. The chain's PreScreened and CacheHit flags stay the
// leaf's.
func (i *RunInfo) Keys() Keys {
	d := i.delta
	if d.pending != 0 {
		d.r.timeTerms(&d.evalState, d.pending)
		d.pending = 0
	}
	return d.keys
}

// Result writes the full Result of the chain's last leaf into *out, running
// the time half first if Keys has not. It is valid only right after RunLeaf
// reported that leaf feasible.
func (i *RunInfo) Result(out *Result) {
	i.Keys()
	i.delta.r.finish(&i.delta.evalState, out)
}

// step evaluates *st on the chain, replacing *chain with the new chain
// state. mask is the fields changed since the chain's previous leaf; ORed,
// when that leaf was rejected by admit, with the masks of the leaves
// rejected since the last admitted one, it is every field changed since
// the strategy the chain's state belongs to. The chain's shortcuts return
// what a scratch evaluation computes: an unchanged shape re-checks only the
// toggle rules, the pre-screen verdict comes from the chain's screenTable,
// and the priced lookups go through its termMemo. A failing verdict is left
// in the chain's state. step runs only the memory half; the time groups
// mask reaches are added to the chain's pending set for Keys.
func (r *Runner) step(chain *RunInfo, st *execution.Strategy, mask execution.FieldMask) bool {
	d := r.chainOf(chain)
	st.Normalize()
	if !d.valid {
		mask = execution.AllFields
	}
	if !d.admitted {
		mask |= d.mask
	}
	d.mask = mask
	*chain = RunInfo{delta: d}
	if d.admitted = r.admit(st, mask, &d.screens, &d.v); !d.admitted {
		chain.PreScreened = d.v.kind == preScreened
		return false
	}
	if !d.valid {
		d.e.m, d.e.sys, d.e.st, d.e.memo = &r.m, &r.sys, &d.prev, &d.memo
	}
	// The eval reads the strategy from d.prev, which is now st; a later
	// infeasibility (memory overflow) does not invalidate it as the next
	// diff base.
	d.prev, d.valid = *st, true
	d.pending |= mask
	if onMemoryHalf != nil {
		onMemoryHalf(mask)
	}
	return r.evaluate(&d.evalState, mask, chain, &d.v)
}

// onMemoryHalf, when set, is called with the mask of every memory half a
// chain runs. Tests count runs with it; production code leaves it nil.
var onMemoryHalf func(execution.FieldMask)

// screenTable holds a chain's pre-screen verdicts for one base: PreScreen.Check
// reads the parallelism degrees, the pass mode, and the five screen switches
// (WeightOffload, ActOffload, OptimOffload, OptimSharding, DPOverlap) and
// nothing else — see execution.EnumOptions.boundLeaves — so per (TP, PP, DP,
// Inference) base it has at most 32 distinct verdicts, one per switch
// combination. The table is filled lazily from Check and cleared when the
// base changes, so a hit returns, by construction, the verdict Check would
// have returned. The search walks a triple's segments contiguously on one
// chain, so Check runs at most 32 times per triple per worker.
type screenTable struct {
	tp, pp, dp int // base; TP 0 (never valid) marks an empty table
	inference  bool
	filled     uint32 // bit i set: verdicts[i] holds Check's verdict
	verdicts   [32]execution.ScreenVerdict
}

// check returns ps.Check(st) from the table, calling Check on a miss; a nil
// table (a scratch evaluation) always calls Check.
func (t *screenTable) check(ps *execution.PreScreen, st *execution.Strategy) execution.ScreenVerdict {
	if t == nil {
		return ps.Check(st)
	}
	if st.TP != t.tp || st.PP != t.pp || st.DP != t.dp || st.Inference != t.inference {
		t.tp, t.pp, t.dp, t.inference, t.filled = st.TP, st.PP, st.DP, st.Inference, 0
	}
	i := b2u(st.WeightOffload) | b2u(st.ActOffload)<<1 | b2u(st.OptimOffload)<<2 |
		b2u(st.OptimSharding)<<3 | b2u(st.DPOverlap)<<4
	if t.filled&(1<<i) == 0 {
		t.verdicts[i] = ps.Check(st)
		t.filled |= 1 << i
	}
	return t.verdicts[i]
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Call sites of comm.Time in the eval term groups, one memo slot each.
const (
	siteTPReduceScatter = iota
	siteTPAllGather
	siteTPAllReduce
	sitePPReassemble
	sitePPHop
	siteDPReduceScatter
	siteDPAllGather
	siteDPAllReduce
	numCommSites
)

// termMemo holds a chain's one-entry memos of the lookups that price a
// size through an efficiency curve (a log10 each): the collectives of
// tensorComm, pipelineComm and dataComm, and the optimizer's vector rate,
// first-tier access time and second-tier bandwidth. Their arguments change
// only with the parallelism degrees, microbatch and sharding, while the
// delta masks re-run the groups on every toggle that reaches the block
// profile. Next to them it holds the profile row of the chain's (TP,
// Microbatch), so a step that moves only the block switches — every class
// step of a segment — reads its profile without hashing a key. Each memo is
// keyed on its lookup's exact arguments — the network or memory is the
// Runner's own, fixed for the chain — so a hit returns what the lookup
// returned for equal arguments, bit for bit, with no mask reasoning. (±0
// price alike everywhere here; a NaN key never hits.)
type termMemo struct {
	comm [numCommSites]commMemo

	row    *profileRow // nil: empty
	rowKey rowKey

	vecOK    bool
	vecFLOPs units.FLOPs
	vecRate  units.FLOPsPerSec

	mem1OK    bool
	mem1Bytes units.Bytes
	mem1Time  units.Seconds

	mem2OK    bool
	mem2Bytes units.Bytes
	mem2BW    units.BytesPerSec
}

// commMemo is one comm.Time call site's memo; a nil net is empty.
type commMemo struct {
	net   *system.Network
	op    comm.Op
	g     int
	bytes units.Bytes
	t     units.Seconds
}

// commTime is comm.Time through the chain's memo slot for site; the scratch
// path (no memo) calls comm.Time directly.
func (e *eval) commTime(site int, net *system.Network, op comm.Op, g int, b units.Bytes) units.Seconds {
	if e.memo == nil {
		return comm.Time(net, op, g, b)
	}
	c := &e.memo.comm[site]
	if c.net != net || c.op != op || c.g != g || c.bytes != b {
		*c = commMemo{net: net, op: op, g: g, bytes: b, t: comm.Time(net, op, g, b)}
	}
	return c.t
}

// row is Runner.row through the chain's memo.
func (e *eval) row(r *Runner) *profileRow {
	m := e.memo
	if m == nil {
		return r.row(e.st)
	}
	if k := (rowKey{e.st.TP, e.st.Microbatch}); m.row == nil || m.rowKey != k {
		m.row, m.rowKey = r.row(e.st), k
	}
	return m.row
}

// vectorRate is Compute.VectorRate through the chain's memo.
func (e *eval) vectorRate(f units.FLOPs) units.FLOPsPerSec {
	m := e.memo
	if m == nil {
		return e.sys.Compute.VectorRate(f)
	}
	if !m.vecOK || m.vecFLOPs != f {
		m.vecOK, m.vecFLOPs, m.vecRate = true, f, e.sys.Compute.VectorRate(f)
	}
	return m.vecRate
}

// mem1AccessTime is Mem1.AccessTime through the chain's memo.
func (e *eval) mem1AccessTime(b units.Bytes) units.Seconds {
	m := e.memo
	if m == nil {
		return e.sys.Mem1.AccessTime(b)
	}
	if !m.mem1OK || m.mem1Bytes != b {
		m.mem1OK, m.mem1Bytes, m.mem1Time = true, b, e.sys.Mem1.AccessTime(b)
	}
	return m.mem1Time
}

// mem2Bandwidth is Mem2.EffectiveBandwidth through the chain's memo.
func (e *eval) mem2Bandwidth(b units.Bytes) units.BytesPerSec {
	m := e.memo
	if m == nil {
		return e.sys.Mem2.EffectiveBandwidth(b)
	}
	if !m.mem2OK || m.mem2Bytes != b {
		m.mem2OK, m.mem2Bytes, m.mem2BW = true, b, e.sys.Mem2.EffectiveBandwidth(b)
	}
	return m.mem2BW
}
