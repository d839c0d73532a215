package perf

import (
	"calculon/internal/comm"
	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/system"
	"calculon/internal/units"
)

// groups is a set of an evaluation's term groups: the ones a chain owes
// before it can read a leaf's keys. Inside one memory class
// (execution.SameClass) leaves differ only in the three fields ClassLeaves
// writes, and those reach two time groups and nothing else: the block
// profile, the shape, the memory rows, the pre-screen, dataComm and the
// optimizer read none of them (TestLeafClassCoversMemoryFields and
// TestClassFloorReadsNoVariantField pin this on the reference evaluator). Any other step reruns every group.
type groups uint8

const (
	// tensorGroups is tensorComm, which TPRSAG and TPOverlap shape, and
	// offload, which reads tensorComm's exposed times as overlap windows.
	tensorGroups groups = 1 << iota
	// pipeGroup is pipelineComm, which PPRSAG shards.
	pipeGroup
	// classGroups is every group a memory class holds fixed: the block
	// profile, the shape quantities, the three memory rows, dataComm and
	// the optimizer.
	classGroups

	allGroups = tensorGroups | pipeGroup | classGroups
)

// variantGroups returns the time groups a step between two leaves of one
// memory class reaches: the tensor groups when TPRSAG or TPOverlap moved,
// the pipe group when PPRSAG moved.
func variantGroups(a, b *execution.Strategy) groups {
	var g groups
	if a.TPRSAG != b.TPRSAG || a.TPOverlap != b.TPOverlap {
		g |= tensorGroups
	}
	if a.PPRSAG != b.PPRSAG {
		g |= pipeGroup
	}
	return g
}

// deltaState carries one evaluation chain's reusable terms between leaves:
// the last admitted strategy and its evaluation state, the last stepped
// leaf's verdict, the pre-screen verdicts of the current parallelism base,
// and the one-entry memos of the log10-priced lookups. It is NOT safe for
// concurrent use — each worker goroutine threads its own chain through the
// RunInfo it gets back — while the owning Runner stays shared. Everything
// here is built lazily by the chain itself, so the Runner constructors do
// not pay for it; a scratch evaluation holds its own empty memo and verdict
// table.
type deltaState struct {
	r *Runner // owning runner; a chain never crosses runners

	valid bool
	prev  execution.Strategy // normalized, groups fully evaluated; e.st points here
	evalState
	v verdict // the last stepped leaf's, when it failed
	// pending is the time groups owed, since the time half last ran, before
	// the last leaf's exact keys can be read.
	pending groups

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

// RunDeltaInto evaluates one strategy on a chain and writes the result into
// *out. When st is in the memory class of the last strategy the chain
// admitted, it reruns only the time groups the moved variant fields reach
// and carries everything else forward; any other strategy is evaluated
// whole. The chain is threaded through RunInfo — pass the RunInfo returned
// by the previous RunDeltaInto call (or a zero RunInfo to start a chain).
// Results, feasibility verdicts, and RunInfo flags are bit-identical to
// RunDetailed; only the work differs. On success *out holds the result; on
// error *out is zeroed, exactly the Result a scratch call would have
// returned.
//
// A chain must stay within one goroutine; the Runner itself remains safe
// for concurrent use by many chains.
func (r *Runner) RunDeltaInto(prev RunInfo, st execution.Strategy, out *Result) (RunInfo, error) {
	if !r.step(&prev, &st) {
		*out = Result{}
		return prev, prev.delta.v.err()
	}
	prev.Result(out)
	return prev, nil
}

// RunLeaf is the search's per-leaf entry point: RunDeltaInto's step without
// the time half. It decides only the memory half of the evaluation and
// reports whether the leaf is feasible; chain.Keys prices the time terms
// and returns the exact keys, and chain.Result builds the full Result.
// RunLeaf allocates nothing on a warm chain and normalizes *st in place.
// The PreScreened and CacheHit flags are read from *chain afterwards, as
// from RunDeltaInto's returned RunInfo. Only three toggle rules read the
// fields that vary inside a memory class, so on one segment base the valid
// leaves of a class get one verdict and one PreScreened flag.
func (r *Runner) RunLeaf(chain *RunInfo, st *execution.Strategy) bool {
	return r.step(chain, st)
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
// state. It is the one place a chain decides what it reuses: a leaf in the
// memory class of the last admitted strategy, whose terms the chain holds,
// re-checks the toggle rules and the carried memory rows and owes the time
// groups its variant fields reach; any other leaf (every leaf of a fresh
// chain) is evaluated whole and owes every group. What a leaf reuses thus
// does not depend on the leaves rejected since. The pre-screen verdict comes
// from the chain's screenTable and the priced lookups go through its
// termMemo, so every shortcut returns what a scratch evaluation computes. A
// failing verdict is left in the chain's state. step runs only the memory
// half; the time groups owed are added to the chain's pending set for Keys.
func (r *Runner) step(chain *RunInfo, st *execution.Strategy) bool {
	d := r.chainOf(chain)
	st.Normalize()
	g := allGroups
	if d.valid && execution.SameClass(&d.prev, st) {
		g = variantGroups(&d.prev, st)
	}
	*chain = RunInfo{delta: d}
	if !r.admit(st, g, &d.screens, &d.v) {
		chain.PreScreened = d.v.kind == preScreened
		return false
	}
	if !d.valid {
		d.e.m, d.e.sys, d.e.st, d.e.memo = &r.m, &r.sys, &d.prev, &d.memo
	}
	// The eval reads the strategy from d.prev, which is now st; a later
	// infeasibility (memory overflow) does not invalidate it as the next
	// leaf's class base.
	d.prev, d.valid = *st, true
	d.pending |= g
	if onMemoryHalf != nil {
		onMemoryHalf(g)
	}
	return r.evaluate(&d.evalState, g, chain, &d.v)
}

// onMemoryHalf, when set, is called with the groups of every memory half a
// chain runs. Tests count runs with it; production code leaves it nil.
var onMemoryHalf func(groups)

// screenTable holds a chain's pre-screen verdicts for one base: PreScreen.Check
// reads the parallelism degrees, the pass mode, and the five screen switches
// (WeightOffload, ActOffload, OptimOffload, OptimSharding, DPOverlap) and
// nothing else — see execution.Toggles.ScreenSwitches — so per (TP, PP, DP,
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

// check returns ps.Check(st) from the table, calling Check on a miss.
func (t *screenTable) check(ps *execution.PreScreen, st *execution.Strategy) execution.ScreenVerdict {
	if st.TP != t.tp || st.PP != t.pp || st.DP != t.dp || st.Inference != t.inference {
		t.tp, t.pp, t.dp, t.inference, t.filled = st.TP, st.PP, st.DP, st.Inference, 0
	}
	i := screenBits(st)
	if t.filled&(1<<i) == 0 {
		t.verdicts[i] = ps.Check(st)
		t.filled |= 1 << i
	}
	return t.verdicts[i]
}

// screenBits packs the five screen switches into a screenTable index.
func screenBits(st *execution.Strategy) uint32 {
	return b2u(st.WeightOffload) | b2u(st.ActOffload)<<1 | b2u(st.OptimOffload)<<2 |
		b2u(st.OptimSharding)<<3 | b2u(st.DPOverlap)<<4
}

// setScreenBits sets the five screen switches from a screenTable index.
func setScreenBits(st *execution.Strategy, i uint32) {
	st.WeightOffload, st.ActOffload, st.OptimOffload = i&1 != 0, i&2 != 0, i&4 != 0
	st.OptimSharding, st.DPOverlap = i&8 != 0, i&16 != 0
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
// only with the parallelism degrees, microbatch and sharding, while a chain
// reruns the groups on every step between memory classes. Next to them it holds the profile row of the chain's (TP,
// Microbatch), so a step that moves only the block switches — every class
// step of a segment — reads its profile without hashing a key. Each memo is
// keyed on its lookup's exact arguments — the network or memory is the
// Runner's own, fixed for the chain — so a hit returns what the lookup
// returned for equal arguments, bit for bit, with no reasoning about which
// fields moved. (±0
// price alike everywhere here; a NaN key never hits.) Last, it holds the
// buffer the chain's graph builds reuse.
type termMemo struct {
	comm [numCommSites]commMemo

	row    *profileRow // nil: empty
	rowKey rowKey

	// layers is the buffer the chain builds block layer graphs into.
	layers []layers.Layer

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

// commTime is comm.Time through the chain's memo slot for site.
func (e *eval) commTime(site int, net *system.Network, op comm.Op, g int, b units.Bytes) units.Seconds {
	c := &e.memo.comm[site]
	if c.net != net || c.op != op || c.g != g || c.bytes != b {
		*c = commMemo{net: net, op: op, g: g, bytes: b, t: comm.Time(net, op, g, b)}
	}
	return c.t
}

// rowOf returns the profile row of st's (TP, Microbatch), fetching it from
// the Runner only when it is not the row the memo holds.
func (m *termMemo) rowOf(r *Runner, st *execution.Strategy) *profileRow {
	if k := (rowKey{st.TP, st.Microbatch}); m.row == nil || m.rowKey != k {
		m.row, m.rowKey = r.row(st), k
	}
	return m.row
}

// vectorRate is Compute.VectorRate through the chain's memo.
func (e *eval) vectorRate(f units.FLOPs) units.FLOPsPerSec {
	m := e.memo
	if !m.vecOK || m.vecFLOPs != f {
		m.vecOK, m.vecFLOPs, m.vecRate = true, f, e.sys.Compute.VectorRate(f)
	}
	return m.vecRate
}

// mem1AccessTime is Mem1.AccessTime through the chain's memo.
func (e *eval) mem1AccessTime(b units.Bytes) units.Seconds {
	m := e.memo
	if !m.mem1OK || m.mem1Bytes != b {
		m.mem1OK, m.mem1Bytes, m.mem1Time = true, b, e.sys.Mem1.AccessTime(b)
	}
	return m.mem1Time
}

// mem2Bandwidth is Mem2.EffectiveBandwidth through the chain's memo.
func (e *eval) mem2Bandwidth(b units.Bytes) units.BytesPerSec {
	m := e.memo
	if !m.mem2OK || m.mem2Bytes != b {
		m.mem2OK, m.mem2Bytes, m.mem2BW = true, b, e.sys.Mem2.EffectiveBandwidth(b)
	}
	return m.mem2BW
}
