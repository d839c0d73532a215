package perf

import (
	"calculon/internal/execution"
)

// Term-group invalidation masks: for each group of evaluation terms, the set
// of Strategy fields whose change can perturb the group's outputs. A group
// is recomputed by RunDelta exactly when the field diff between the previous
// and current strategy intersects its mask; otherwise its outputs — pure
// functions of unchanged inputs — carry over bit-identically from the
// previous evaluation. Masks compose along the dataflow: a group that reads
// another group's outputs includes that group's mask (profileMask sits
// inside every consumer, tensorMask inside offloadMask). The
// delta-vs-scratch equivalence tests (and the no-delta arm of the search
// equivalence suite) pin that these masks are sufficient; being too wide
// only costs speed, never correctness.
const (
	// shapeMask covers the derived shape quantities n (microbatches per
	// pipeline pass: DP and Microbatch), bp (blocks per processor: PP), and
	// bc (blocks per chunk: PP and Interleave).
	shapeMask = execution.FieldPP | execution.FieldDP |
		execution.FieldMicrobatch | execution.FieldInterleave

	// profileMask covers the memoized per-block profile: exactly the
	// blockKey fields (tp, microbatch, recompute, seqParallel, tpRedo,
	// fused, inference). Every downstream group reads profile outputs, so
	// profileMask is included in all of them.
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

	// memoryMask covers eval.memory: per-tier totals over weights,
	// gradients, optimizer state, and activations, including the in-flight
	// microbatch count (OneFOneB) and every offload/sharding residency rule.
	memoryMask = profileMask | shapeMask | execution.FieldOneFOneB |
		execution.FieldOptimSharding | execution.FieldDPOverlap |
		execution.FieldWeightOffload | execution.FieldActOffload |
		execution.FieldOptimOffload

	// screenMask covers the fields the phase-1 analytic pre-screen verdict
	// (and its error operands) can depend on; see
	// execution.PreScreen.Check and EnumOptions.boundLeaves.
	screenMask = execution.FieldTP | execution.FieldPP | execution.FieldDP |
		execution.FieldOptimSharding | execution.FieldDPOverlap |
		execution.FieldWeightOffload | execution.FieldActOffload |
		execution.FieldOptimOffload | execution.FieldInference

	allFields = ^execution.FieldMask(0)
)

// deltaState carries one evaluation chain's reusable terms between RunDelta
// calls: the last fully evaluated strategy, its eval state and memory
// breakdown, and the last pre-screened strategy with its verdict. It is NOT
// safe for concurrent use — each worker goroutine threads its own chain
// through the RunInfo it gets back — while the owning Runner stays shared.
type deltaState struct {
	r *Runner // owning runner; a chain never crosses runners

	valid bool
	prev  execution.Strategy // normalized, groups fully evaluated; e.st points here
	e     eval
	mem1  MemBreakdown
	mem2  MemBreakdown

	screenValid bool
	screenPrev  execution.Strategy
	screen      execution.ScreenVerdict

	// profCache is a chain-local mirror of the Runner's shared profile memo:
	// a plain map with a concrete key type, so repeat lookups on this chain
	// skip the sync.Map's interface boxing and hashing. An entry exists only
	// for keys this chain already fetched through r.profile — which inserted
	// them into the shared memo — so a local hit is, bit for bit, the cache
	// hit the scratch path would have reported. Never consulted under
	// DisableMemo (profiles must be recomputed, and CacheHits must stay 0).
	profCache map[blockKey]*blockProfile
}

// DisableDelta makes RunDelta fall back to the scratch path (RunDetailed)
// so every evaluation recomputes all terms. It exists as an escape hatch and
// as the reference arm of the equivalence tests; call it before the Runner
// is shared across goroutines.
func (r *Runner) DisableDelta() { r.noDelta = true }

// RunDelta evaluates one strategy incrementally against the previous
// evaluation of the same chain: it diffs st against the last strategy this
// chain fully evaluated and recomputes only the term groups the changed
// fields can perturb, carrying everything else forward unrecomputed. The
// chain is threaded through RunInfo — pass the RunInfo returned by the
// previous RunDelta call (or a zero RunInfo to start a chain). Results,
// feasibility verdicts, and RunInfo flags are bit-identical to RunDetailed;
// only the work differs. The fewer fields change between successive calls —
// e.g. along execution's Gray-code toggle order, where neighbors differ in
// one toggle — the more is reused.
//
// A chain must stay within one goroutine; the Runner itself remains safe
// for concurrent use by many chains.
func (r *Runner) RunDelta(prev RunInfo, st execution.Strategy) (Result, RunInfo, error) {
	var res Result
	info, err := r.RunDeltaInto(prev, st, &res)
	return res, info, err
}

// RunDeltaInto is RunDelta writing the result into *out instead of
// returning it, so tight search loops reuse one Result instead of copying
// ~400 bytes through every return frame. On success *out holds the result;
// on error (or on the DisableDelta fallback's error path) *out is zeroed,
// exactly the Result a scratch call would have returned.
func (r *Runner) RunDeltaInto(prev RunInfo, st execution.Strategy, out *Result) (RunInfo, error) {
	if v := r.step(&prev, &st, out); v.kind != feasible {
		*out = Result{}
		return prev, v.err()
	}
	return prev, nil
}

// RunLeaf is the search's per-leaf entry point: RunDeltaInto with the chain
// advanced in place and the verdict read as a bool. It allocates nothing on
// a warm chain and copies no strategy: *st is normalized in place (the
// enumeration's strategies already are), and *out is written only when
// RunLeaf reports the strategy feasible — on false it holds whatever it
// held before. The PreScreened and CacheHit flags are read from *chain
// afterwards, as from RunDelta's returned RunInfo.
func (r *Runner) RunLeaf(chain *RunInfo, st *execution.Strategy, out *Result) bool {
	return r.step(chain, st, out).kind == feasible
}

// step evaluates *st on the chain, replacing *chain with the new chain
// state, and counts the evaluation.
func (r *Runner) step(chain *RunInfo, st *execution.Strategy, out *Result) verdict {
	var v verdict
	if r.noDelta {
		*chain, v = r.run(st, out)
	} else {
		d := chain.delta
		if d == nil || d.r != r {
			d = &deltaState{r: r}
		}
		*chain, v = r.runDelta(d, st, out)
		chain.delta = d
	}
	r.count(*chain, v)
	return v
}

// runDelta mirrors Runner.run stage by stage; every recomputed group calls
// the same method on the same inputs, and every skipped group's outputs are
// pure functions of inputs the field diff proves unchanged, so the two
// paths are bit-identical by construction (and by the equivalence tests).
// It reads the model and system through the Runner and the strategy through
// st, copying only st into the chain's diff bases, and writes *out only for
// a feasible verdict.
func (r *Runner) runDelta(d *deltaState, st *execution.Strategy, out *Result) (RunInfo, verdict) {
	st.Normalize()
	if err := st.Validate(&r.m); err != nil {
		return RunInfo{}, verdict{kind: invalidStrategy, cause: err}
	}
	if !r.noPreScreen {
		// The pre-screen verdict depends only on screenMask fields, so a
		// diff outside the mask reuses the previous verdict. The base is
		// replaced only when a screenMask field changed — otherwise it
		// already agrees with st on every field the verdict reads. The
		// screen chain is tracked separately from the eval chain:
		// screened-and-rejected strategies never reach the eval stages, so
		// d.prev would be the wrong diff base.
		if !d.screenValid || execution.DiffMask(&d.screenPrev, st).Has(screenMask) {
			d.screenPrev, d.screen, d.screenValid = *st, r.screen.Check(st), true
		}
		if !d.screen.OK() {
			return RunInfo{PreScreened: true}, verdict{kind: preScreened, screen: d.screen}
		}
	} else if sv := r.screen.CheckFit(st); !sv.OK() {
		return RunInfo{}, verdict{kind: unfit, screen: sv}
	}

	mask := allFields
	if d.valid {
		mask = execution.DiffMask(&d.prev, st)
	} else {
		d.e.m, d.e.sys, d.e.st = &r.m, &r.sys, &d.prev
	}
	// The eval reads the strategy from d.prev, which is now st; a later
	// infeasibility (memory overflow) does not invalidate it as the next
	// diff base.
	d.prev, d.valid = *st, true
	e := &d.e

	var hit bool
	if r.noMemo || mask.Has(profileMask) { // a fresh chain's mask is allFields
		var prof *blockProfile
		if r.noMemo {
			prof, hit = r.profile(st)
		} else if p, ok := d.profCache[keyFor(st)]; ok {
			prof, hit = p, true
		} else {
			prof, hit = r.profile(st)
			if d.profCache == nil {
				d.profCache = make(map[blockKey]*blockProfile, 64)
			}
			d.profCache[keyFor(st)] = prof
		}
		e.tot = prof.tot
		e.boundaryBytes = prof.boundaryBytes
		e.blockFwd, e.blockBwd, e.blockRecompute = prof.fwd, prof.bwd, prof.recompute
		e.blockFwdSlack, e.blockBwdSlack, e.recompSlack = prof.fwdSlack, prof.bwdSlack, prof.rcSlack
	} else {
		// The memo necessarily holds this blockKey — the previous
		// evaluation put it there — so the scratch path would have hit.
		hit = true
	}
	info := RunInfo{CacheHit: hit}

	if mask.Has(shapeMask) {
		e.n = st.Microbatches(&r.m)
		e.bp = st.BlocksPerProc(&r.m)
		e.bc = st.BlocksPerChunk(&r.m)
	}
	// Each group's outputs are zeroed before the recompute because the
	// methods accumulate (+=) or early-return leaving zeros (TP≤1, PP≤1,
	// no offload) — exactly the state a zero-initialized scratch eval has.
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
		e.offloadTotal, e.offloadExposed = 0, 0
		e.offloadBWRequired, e.offloadBWUsed = 0, 0
		e.offload()
	}
	if mask.Has(memoryMask) {
		d.mem1, d.mem2 = e.memory()
	}

	if v := r.capacity(&d.mem1, &d.mem2); v.kind != feasible {
		return info, v
	}
	r.finish(e, &d.mem1, &d.mem2, out)
	return info, verdict{}
}
