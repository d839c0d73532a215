package perf

import (
	"calculon/internal/comm"
	"calculon/internal/execution"
	"calculon/internal/layers"
	"calculon/internal/system"
	"calculon/internal/units"
)

// deltaState carries one evaluation chain between calls: the evaluation
// state of the memory class it stepped into (EnterClass), the pre-screen
// verdicts of the current parallelism base, and the one-entry memos of the
// log10-priced lookups. It is NOT safe for concurrent use — each worker
// goroutine threads its own chain through a RunInfo — while the owning
// Runner stays shared. Everything here is built lazily by the chain
// itself, so the Runner constructors do not pay for it; a scratch
// evaluation holds its own empty memo.
type deltaState struct {
	r *Runner // owning runner; a chain never crosses runners

	evalState // e.st points at the root EnterClass set, e.memo at memo

	screens screenTable
	memo    termMemo
}

// chainOf returns the chain state *chain carries, or a fresh one when it
// carries none or another runner's, in which case *chain is reset to it.
func (r *Runner) chainOf(chain *RunInfo) *deltaState {
	d := chain.delta
	if d == nil || d.r != r {
		d = &deltaState{r: r}
		d.e = eval{m: &r.m, sys: &r.sys, memo: &d.memo}
		*chain = RunInfo{delta: d}
	}
	return d
}

// RunDeltaInto is RunDetailed writing the Result into *out (zeroed on
// error); prev is not read. It serves callers that replay a walk strategy
// by strategy; the search steps the classes the segment pass answers
// instead (EnterClass, RunLeaf).
func (r *Runner) RunDeltaInto(prev RunInfo, st execution.Strategy, out *Result) (RunInfo, error) {
	var info RunInfo
	var err error
	*out, info, err = r.RunDetailed(st)
	return info, err
}

// EnterClass sets root's block switches to those of profile slot i of the
// segment PassSegment last ran on, and its screen switches to the screen
// bits b, so that root stands in that memory class, and starts the chain on
// it. The class must be one the pass found to fit: its profile and op
// times come from the row the chain's memo holds, where the pass built and
// counted them, its shape and first-tier total from the pass, and its
// class terms, dataComm and the optimizer, are priced here once, after the
// screen switches they read are set. Toggles.ClassLeaves then writes each
// leaf's variant fields into root, and RunLeaf prices the leaf.
func (r *Runner) EnterClass(chain *RunInfo, p *SegmentPass, root *execution.Strategy, i int, b uint32) {
	p.lat.slots[i].set(root)
	setScreenBits(root, b)
	d := r.chainOf(chain)
	e := &d.e
	e.st = root
	p.loadSlot(r, e, i)
	e.n, e.bp, e.bc = p.shape[0], p.shape[1], p.shape[2]
	d.keys.Mem1 = p.total(i, b)[0]
	e.classTimes()
}

// RunLeaf prices the leaf the root of the chain's class now holds and
// returns its exact keys, bit for bit its Result's BatchTime, SampleRate and
// Mem1.Total(). Only tensorComm, pipelineComm and offload read the variant
// fields (TestClassFloorReadsNoVariantField), so the leaf reprices those
// and assembles the batch (leafTimes). A leaf of a class that fits fits, so
// no rule, screen or capacity check runs here. It allocates nothing.
func (r *Runner) RunLeaf(chain *RunInfo) Keys {
	if onLeaf != nil {
		onLeaf()
	}
	d := chain.delta
	r.leafTimes(&d.evalState)
	return d.keys
}

// onLeaf, when set, is called on every leaf RunLeaf prices. Tests count
// leaves with it; production code leaves it nil.
var onLeaf func()

// Result writes the full Result of the leaf RunLeaf last priced on the
// chain into *out. The segment pass summed the class's memory rows without
// keeping their breakdowns, so Result runs the three rows itself, only for
// the leaves a fold keeps.
func (i *RunInfo) Result(out *Result) {
	d := i.delta
	d.memoryRows()
	d.r.finish(&d.evalState, out)
}

// screenTable holds a chain's pre-screen verdicts for one base: PreScreen.Check
// reads the parallelism degrees, the pass mode, and the five screen switches
// (WeightOffload, ActOffload, OptimOffload, OptimSharding, DPOverlap) and
// nothing else — see execution.Toggles.ScreenSwitches — and the segment pass,
// its one user, checks training strategies only, so per (TP, PP, DP) base it
// has at most 32 distinct verdicts, one per switch combination. The table
// is filled lazily from Check and cleared when the base changes, so a hit
// returns, by construction, the verdict Check would have returned. The
// search walks a triple's segments contiguously on one chain, so Check runs
// at most 32 times per triple per worker.
type screenTable struct {
	tp, pp, dp int    // base; TP 0 (never valid) marks an empty table
	filled     uint32 // bit i set: verdicts[i] holds Check's verdict
	verdicts   [32]execution.ScreenVerdict
}

// check returns ps.Check(st) from the table, calling Check on a miss.
func (t *screenTable) check(ps *execution.PreScreen, st *execution.Strategy) execution.ScreenVerdict {
	if st.TP != t.tp || st.PP != t.pp || st.DP != t.dp {
		t.tp, t.pp, t.dp, t.filled = st.TP, st.PP, st.DP, 0
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
// only with the parallelism degrees, microbatch, sharding and the variant
// fields, so the leaves and classes of a segment mostly hit them. Next to
// them it holds the profile row of the chain's (TP, Microbatch), so the
// passes and the class entries of a segment read its profiles without
// hashing a key. Each memo is keyed on its lookup's exact arguments — the
// network or memory is the Runner's own, fixed for the chain — so a hit
// returns what the lookup returned for equal arguments, bit for bit. (±0
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
