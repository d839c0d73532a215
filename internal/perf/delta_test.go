package perf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// deltaSequences builds strategy sequences that exercise the delta path:
// the real enumeration order (Gray-adjacent toggles inside each triple, so
// most steps reuse most groups), random jumps (every mask bit flips),
// random walks of single-field mutations (see mutationSequence), the
// enumeration order with runs of rejected leaves (see detourSequence), and
// runs of it that leave a profile row and come back (see rowRevisitSequence).
func deltaSequences(t *testing.T, rng *rand.Rand, m model.LLM, opts execution.EnumOptions) [][]execution.Strategy {
	t.Helper()
	var enum []execution.Strategy
	opts.Enumerate(m, func(s execution.Strategy) bool {
		enum = append(enum, s)
		return true
	})
	if len(enum) == 0 {
		t.Fatal("enumeration is empty")
	}
	jumps := make([]execution.Strategy, 0, 300)
	for i := 0; i < 300; i++ {
		jumps = append(jumps, enum[rng.Intn(len(enum))])
	}
	muts := mutationSequence(rng, enum)
	revisits := rowRevisitSequence(enum)
	if len(enum) > 2000 {
		enum = enum[:2000]
	}
	return [][]execution.Strategy{enum, jumps, muts, detourSequence(enum[:len(enum)/2]), revisits}
}

// rowRevisitSequence takes the three (TP, Microbatch) profile rows with the
// most enumerated strategies and walks runs of each row's strategies in
// enumeration order, the rows in turn (A B C A B C ...), as a chain walks
// segment roots that leave a row and come back to it. The chain's row memo
// must then serve each run from the row its first leaf fetches, never from
// the one it left.
func rowRevisitSequence(enum []execution.Strategy) []execution.Strategy {
	type row struct{ tp, microbatch int }
	byRow := map[row][]execution.Strategy{}
	var rows []row
	for _, s := range enum {
		k := row{s.TP, s.Microbatch}
		if _, ok := byRow[k]; !ok {
			rows = append(rows, k)
		}
		byRow[k] = append(byRow[k], s)
	}
	slices.SortStableFunc(rows, func(a, b row) int { return len(byRow[b]) - len(byRow[a]) })
	rows = rows[:min(3, len(rows))]
	const run = 24
	var out []execution.Strategy
	for lo := 0; len(out) < 1500; lo += run {
		n := len(out)
		for _, k := range rows {
			if ss := byRow[k]; lo < len(ss) {
				out = append(out, ss[lo:min(lo+run, len(ss))]...)
			}
		}
		if len(out) == n {
			break
		}
	}
	return out
}

// detourSequence is the enumeration order with a run of two rejected leaves
// before every other leaf: that leaf with twice the data parallelism (more
// processors than the system has, or a degree the batch does not divide),
// then with sequence parallelism but no TP RS+AG (a toggle rule). A chain
// fed per-step masks must charge the leaf after the run with every field
// changed since the last admitted one, not only its step from the last
// rejected one.
func detourSequence(enum []execution.Strategy) []execution.Strategy {
	out := make([]execution.Strategy, 0, 2*len(enum))
	for i, s := range enum {
		if i%2 == 1 {
			wide, bad := s, s
			wide.DP *= 2
			bad.SeqParallel, bad.TPRSAG = true, false
			out = append(out, wide, bad)
		}
		out = append(out, s)
	}
	return out
}

// mutationSequence aims at the chain's shortcuts: the toggle-rules-only
// validation of an unchanged shape, and the pre-screen verdict table keyed
// by (TP, PP, DP, Inference). It revisits a handful of enumerated bases in
// random order — so the table is reset for another base and later refilled
// for an earlier one — and from each takes a short random walk of
// single-field mutations. The walks reach invalid toggle combinations on an
// unchanged shape (sequence parallelism without TP RS+AG, redo without
// sequence parallelism), shapes off the enumeration, and Inference flips;
// half the bases are inference-compatible (no recompute, no training-only
// switches), so a flip there yields a valid inference strategy that reaches
// the screen with the same switch combination as its training twin.
func mutationSequence(rng *rand.Rand, enum []execution.Strategy) []execution.Strategy {
	// Shape mutations draw from the values the enumeration uses, so most
	// stay valid.
	var tps, pps, dps, mbs, vs []int
	for _, s := range enum {
		tps, pps, dps = appendNew(tps, s.TP), appendNew(pps, s.PP), appendNew(dps, s.DP)
		mbs, vs = appendNew(mbs, s.Microbatch), appendNew(vs, s.Interleave)
	}
	pick := func(vals []int) int { return vals[rng.Intn(len(vals))] }
	recomputes := []execution.RecomputeMode{execution.RecomputeNone, execution.RecomputeAttn, execution.RecomputeFull}
	overlaps := []execution.TPOverlapMode{execution.TPOverlapNone, execution.TPOverlapPipe, execution.TPOverlapRing}
	mutate := func(s execution.Strategy) execution.Strategy {
		switch rng.Intn(19) {
		case 0:
			s.TP = pick(tps)
		case 1:
			s.PP = pick(pps)
		case 2:
			s.DP = pick(dps)
		case 3:
			s.Microbatch = pick(mbs)
		case 4:
			s.Interleave = pick(vs)
		case 5:
			s.OneFOneB = !s.OneFOneB
		case 6:
			s.Recompute = recomputes[rng.Intn(len(recomputes))]
		case 7:
			s.SeqParallel = !s.SeqParallel
		case 8:
			s.TPRSAG = !s.TPRSAG
		case 9:
			s.TPRedoForSP = !s.TPRedoForSP
		case 10:
			s.TPOverlap = overlaps[rng.Intn(len(overlaps))]
		case 11:
			s.DPOverlap = !s.DPOverlap
		case 12:
			s.PPRSAG = !s.PPRSAG
		case 13:
			s.OptimSharding = !s.OptimSharding
		case 14:
			s.FusedLayers = !s.FusedLayers
		case 15:
			s.WeightOffload = !s.WeightOffload
		case 16:
			s.ActOffload = !s.ActOffload
		case 17:
			s.OptimOffload = !s.OptimOffload
		default:
			s.Inference = !s.Inference
		}
		return s
	}

	var inferable []execution.Strategy
	for _, s := range enum {
		if s.Recompute == execution.RecomputeNone && !s.OptimSharding && !s.DPOverlap &&
			!s.WeightOffload && !s.ActOffload && !s.OptimOffload {
			inferable = append(inferable, s)
		}
	}
	bases := make([]execution.Strategy, 0, 8)
	for len(bases) < 8 {
		if len(bases)%2 == 1 && len(inferable) > 0 {
			bases = append(bases, inferable[rng.Intn(len(inferable))])
		} else {
			bases = append(bases, enum[rng.Intn(len(enum))])
		}
	}

	seq := make([]execution.Strategy, 0, 600)
	for len(seq) < 600 {
		cur := bases[rng.Intn(len(bases))]
		seq = append(seq, cur)
		if rng.Intn(2) == 0 {
			twin := cur
			twin.Inference = !twin.Inference
			seq = append(seq, twin, cur)
		}
		for j := rng.Intn(8); j >= 0; j-- {
			cur = mutate(cur)
			seq = append(seq, cur)
		}
	}
	return seq
}

func appendNew(vals []int, v int) []int {
	if slices.Contains(vals, v) {
		return vals
	}
	return append(vals, v)
}

// runScratch evaluates the sequence on the scratch path.
func runScratch(t *testing.T, r *Runner, seq []execution.Strategy) ([]Result, []RunInfo, []error) {
	t.Helper()
	res := make([]Result, len(seq))
	infos := make([]RunInfo, len(seq))
	errs := make([]error, len(seq))
	for i, st := range seq {
		res[i], infos[i], errs[i] = r.RunDetailed(st)
	}
	return res, infos, errs
}

// runDeltaChain evaluates the sequence on the delta path, threading one
// chain through the RunInfos.
func runDeltaChain(t *testing.T, r *Runner, seq []execution.Strategy) ([]Result, []RunInfo, []error) {
	t.Helper()
	res := make([]Result, len(seq))
	infos := make([]RunInfo, len(seq))
	errs := make([]error, len(seq))
	var prev RunInfo
	for i, st := range seq {
		res[i], prev, errs[i] = runDelta(r, prev, st)
		infos[i] = prev
	}
	return res, infos, errs
}

// runLeafChain evaluates the sequence as the search does, through RunLeaf on
// one chain with per-step masks and one reused Result.
func runLeafChain(t *testing.T, r *Runner, seq []execution.Strategy) ([]Result, []RunInfo, []error) {
	t.Helper()
	res := make([]Result, len(seq))
	infos := make([]RunInfo, len(seq))
	errs := make([]error, len(seq))
	lc := leafChain{r: r}
	for i, st := range seq {
		res[i], errs[i] = lc.run(st)
		infos[i] = lc.chain
	}
	return res, infos, errs
}

// TestDeltaEqualsScratch is the randomized equivalence property of the
// evaluation chains: over real enumeration orders, random jump sequences
// and single-field mutation walks, for systems with and without a second
// memory tier, RunDeltaInto and RunLeaf chains must reproduce RunDetailed bit
// for bit — Result values, feasibility verdicts, error messages, and the
// PreScreened/CacheHit flags the search counters sum — and RunDetailed and
// the RunLeaf chain must both match the straight-line reference evaluator.
// Each path gets its own fresh Runner so memo warm-up behaves exactly as it
// would in a pure scratch or pure chain search.
func TestDeltaEqualsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range deltaCases() {
		t.Run(tc.name, func(t *testing.T) {
			for si, seq := range deltaSequences(t, rng, tc.m, tc.opts) {
				runners := make([]*Runner, 3)
				for i := range runners {
					r, err := NewRunner(tc.m, tc.sys)
					if err != nil {
						t.Fatal(err)
					}
					runners[i] = r
				}
				sRes, sInfo, sErr := runScratch(t, runners[0], seq)
				dRes, dInfo, dErr := runDeltaChain(t, runners[1], seq)
				lRes, lInfo, lErr := runLeafChain(t, runners[2], seq)
				compareRuns(t, si, seq, sRes, sInfo, sErr, dRes, dInfo, dErr)
				for i, st := range seq {
					checkReference(t, "RunDetailed", tc.m, tc.sys, st, sRes[i], sInfo[i], sErr[i])
					checkReference(t, "RunLeaf", tc.m, tc.sys, st, lRes[i], lInfo[i], lErr[i])
					if lInfo[i].PreScreened != sInfo[i].PreScreened || lInfo[i].CacheHit != sInfo[i].CacheHit {
						t.Fatalf("seq %d step %d %+v: RunLeaf info %+v, RunDetailed %+v", si, i, st, lInfo[i], sInfo[i])
					}
				}
			}
		})
	}
}

// TestBoundKeysSound walks every leaf of the TestDeltaEqualsScratch
// configurations in enumeration order on one leaf chain, as a search worker
// does. leafChain.run holds RunLeaf's bound keys to each feasible leaf's
// exact keys (Mem1 equal, BatchTime no higher, SampleRate no lower), and
// the leaf's Result must be the scratch evaluation's. No leaf of the
// tight-mem1 enumeration is admitted, and the mixed-mem1 one must hold both
// a leaf that fits and one that overflows the first tier; where no leaf
// fits the two paths must agree on that. Then it walks the same spaces
// class by class (checkClassFloors), and the all-mem2 one again with the
// beneficial toggles pinned. The seqpar case (32 A100s, TP up to 32 over
// InfiniBand, whose in-network all-reduce costs about half an RS+AG) must
// hold a sequence-parallel class whose RS+AG-only TP floor lifts its class
// floor above the one the cheaper collective gives.
func TestBoundKeysSound(t *testing.T) {
	feasible, classes := 0, 0
	for _, tc := range deltaCases() {
		r, err := NewRunner(tc.m, tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		lc := leafChain{r: r}
		fits, overflows := 0, 0
		tc.opts.Enumerate(tc.m, func(st execution.Strategy) bool {
			got, err := lc.run(st)
			want, wantErr := r.Run(st)
			var ie *infeasibleError
			switch {
			case err != nil && err != ErrInfeasible:
				t.Fatalf("%s %v: %v", tc.name, st, err)
			case (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want):
				t.Fatalf("%s %v: leaf chain (err %v) differs from Run (err %v)", tc.name, st, err, wantErr)
			case err == nil:
				fits++
			case errors.As(wantErr, &ie) && ie.v.kind == mem1Overflow:
				overflows++
			}
			return true
		})
		if tc.name == "mixed-mem1" && (fits == 0 || overflows == 0) {
			t.Fatalf("%s: %d leaves fit and %d overflow the first tier; want some of each", tc.name, fits, overflows)
		}
		feasible += fits
		n, tightened := checkClassFloors(t, tc)
		if tc.name == "seqpar" && tightened == 0 {
			t.Fatalf("%s: no sequence-parallel class has an RS+AG floor above the all-reduce one", tc.name)
		}
		classes += n
		if tc.opts.HasMem2 {
			tc.opts.PinBeneficial = true
			n, _ = checkClassFloors(t, tc)
			classes += n
		}
	}
	if feasible == 0 || classes == 0 {
		t.Fatal("no feasible leaf: the bound went unchecked")
	}
}

// checkClassFloors walks the case's space class by class on one chain, as
// a search worker does, and every leaf of each feasible class with
// NextLeaf. Each leaf must be feasible, give the floor (RunInfo.Floor) the
// class's first leaf gave, bit for bit, and be bounded by it (checkBound)
// at its scratch evaluation's keys. The segment's memory pass, run on a
// chain of its own, gives each class's profile slot its slot floor keys
// (Runner.SlotFloor), which must be no higher than the class floor keys and
// every leaf's exact keys (checkSlotBound). It returns the number of
// feasible classes, and how many of them have sequence parallelism on and a
// floor above the one the cheaper of all-reduce and RS+AG gives: the
// classes the RS+AG-only TP floor tightens.
func checkClassFloors(t *testing.T, tc deltaCase) (classes, tightened int) {
	t.Helper()
	r, err := NewRunner(tc.m, tc.sys)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewRunner(tc.m, tc.sys)
	if err != nil {
		t.Fatal(err)
	}
	tog := tc.opts.Toggles()
	lat := LatticeFor(&tc.opts)
	var chain, pchain RunInfo
	var p SegmentPass
	for _, tpd := range tc.opts.Triples(tc.m) {
		tc.opts.Segments(&tc.m, tpd, func(root *execution.Strategy) bool {
			r.PassSegment(&pchain, lat, root, &p)
			var slotKeys [MaxSlots]Keys
			for i := 0; i < lat.Slots(); i++ {
				if _, ok := p.Bound(i); ok {
					slotKeys[i] = r.SlotFloor(&pchain, &p, i)
				}
			}
			w := tog.Classes(root)
			for more := true; more; more = w.NextClass() {
				if _, ok := r.RunLeaf(&chain, root, w.Mask()); !ok {
					continue
				}
				classes++
				floor := chain.Floor()
				slot, _, fits := p.Class(root)
				if !fits {
					t.Fatalf("%s %v: a feasible class the memory pass does not fit", tc.name, *root)
				}
				if err := checkSlotBound(slotKeys[slot], floor); err != nil {
					t.Fatalf("%s %v: slot floor against the class floor: %v", tc.name, *root, err)
				}
				if root.SeqParallel && floor.BatchTime > minCollectiveFloor(&chain) {
					tightened++
				}
				for {
					want, err := scratch.Run(*root)
					if err != nil {
						t.Fatalf("%s %v: a leaf of a feasible class: %v", tc.name, *root, err)
					}
					if f := chain.Floor(); f != floor {
						t.Fatalf("%s %v: class floor %+v, the class's first leaf gave %+v", tc.name, *root, f, floor)
					}
					exact := Keys{want.BatchTime, want.SampleRate, want.Mem1.Total()}
					if err := checkBound(floor, exact); err != nil {
						t.Fatalf("%s %v: class floor: %v", tc.name, *root, err)
					}
					if err := checkSlotBound(slotKeys[slot], exact); err != nil {
						t.Fatalf("%s %v: slot floor: %v", tc.name, *root, err)
					}
					if !w.NextLeaf() {
						break
					}
					if _, ok := r.RunLeaf(&chain, root, w.Mask()); !ok {
						t.Fatalf("%s %v: infeasible leaf in a feasible class", tc.name, *root)
					}
				}
			}
			return true
		})
	}
	return classes, tightened
}

// checkSlotBound reports whether a slot floor's keys bound keys k of one of
// its slot's classes or leaves: batch time and first-tier memory no higher,
// sample rate no lower.
func checkSlotBound(slot, k Keys) error {
	if !(slot.Mem1 <= k.Mem1) || !(slot.BatchTime <= k.BatchTime) || !(slot.SampleRate >= k.SampleRate) {
		return fmt.Errorf("slot floor keys %+v do not bound the keys %+v", slot, k)
	}
	return nil
}

// minCollectiveFloor returns the batch time of the chain's last leaf's
// class floor with its TP floor priced on the cheaper of all-reduce and
// RS+AG, whatever the class's switches.
func minCollectiveFloor(chain *RunInfo) units.Seconds {
	chain.Keys()
	e := &chain.delta.e
	var fwd, bwd units.Seconds
	if t := e.st.TP; t > 1 {
		net := e.sys.NetworkPtrFor(t)
		arFwd, arBwd := e.tpCollectives(net, false)
		rsFwd, rsBwd := e.tpCollectives(net, true)
		fwd, _ = overlapTP(minSec(arFwd, rsFwd), execution.MaxHiddenFraction, e.blockFwd)
		bwd, _ = overlapTP(minSec(arBwd, rsBwd), execution.MaxHiddenFraction, e.blockBwd+e.blockRecompute)
	}
	c := classTerms{dpPenalty: e.dpPenalty, dpExposed: e.dpExposed, optimTime: e.optimTime, xferFwd: e.xferFwd, xferBwd: e.xferBwd}
	return e.classFloor(fwd, bwd, &c)
}

// Floor returns the class floor of the chain's last leaf: classFloor on the
// terms the time half left on the chain, with the leaf's exact Mem1. The
// floor reads no variant field, so every leaf of a class gives the same
// one, and the floor pass (Runner.PassFloors) prices it from rows instead
// (TestPassFloorsMatchChainFloor). Like Result, it runs the time half first
// if Keys has not, and it is valid only right after RunLeaf reported the
// leaf feasible.
func (i *RunInfo) Floor() Keys {
	k := i.Keys()
	e := &i.delta.e
	tpFwd, tpBwd := e.tpFloor()
	c := classTerms{dpPenalty: e.dpPenalty, dpExposed: e.dpExposed, optimTime: e.optimTime, xferFwd: e.xferFwd, xferBwd: e.xferBwd}
	t := e.classFloor(tpFwd, tpBwd, &c)
	return Keys{BatchTime: t, SampleRate: t.Rate(float64(i.delta.r.m.Batch)), Mem1: k.Mem1}
}

type deltaCase struct {
	name string
	m    model.LLM
	sys  system.System
	opts execution.EnumOptions
}

// deltaCases are the configurations the chain equivalence tests walk: a
// sequence-parallel space, every feature with a second memory tier, a model
// whose every leaf the pre-screen rejects, and a first tier so tight that
// most admitted leaves overflow it while some fit (TestBoundKeysSound
// checks both happen).
func deltaCases() []deltaCase {
	return []deltaCase{
		{
			name: "seqpar",
			m:    model.MustPreset("gpt3-13B").WithBatch(32),
			sys:  system.A100(32),
			opts: execution.EnumOptions{Procs: 32, Features: execution.FeatureSeqPar, MaxInterleave: 2},
		},
		{
			name: "all-mem2",
			m:    model.MustPreset("gpt3-13B").WithBatch(16),
			sys:  system.A100(16).WithMem2(system.DDR5(512 * units.GiB)),
			opts: execution.EnumOptions{Procs: 16, Features: execution.FeatureAll, HasMem2: true, MaxTP: 8, MaxInterleave: 2},
		},
		{
			name: "tight-mem1",
			m:    model.MustPreset("gpt3-175B").WithBatch(8),
			sys:  system.A100(8),
			opts: execution.EnumOptions{Procs: 8, Features: execution.FeatureAll, MaxInterleave: 2},
		},
		{
			name: "mixed-mem1",
			m:    model.MustPreset("gpt3-13B").WithBatch(16),
			sys:  system.A100(8).WithMem1Capacity(32 * units.GiB),
			opts: execution.EnumOptions{Procs: 8, Features: execution.FeatureAll, MaxInterleave: 2},
		},
	}
}

func compareRuns(t *testing.T, si int, seq []execution.Strategy,
	sRes []Result, sInfo []RunInfo, sErr []error,
	dRes []Result, dInfo []RunInfo, dErr []error) {
	t.Helper()
	for i := range seq {
		if (sErr[i] == nil) != (dErr[i] == nil) {
			t.Fatalf("seq %d step %d %+v: scratch err %v, delta err %v", si, i, seq[i], sErr[i], dErr[i])
		}
		if sErr[i] != nil {
			if !errors.Is(dErr[i], ErrInfeasible) {
				t.Fatalf("seq %d step %d: delta error not ErrInfeasible: %v", si, i, dErr[i])
			}
			if sErr[i].Error() != dErr[i].Error() {
				t.Fatalf("seq %d step %d: error text differs:\nscratch %q\ndelta   %q", si, i, sErr[i], dErr[i])
			}
		}
		if sInfo[i].PreScreened != dInfo[i].PreScreened || sInfo[i].CacheHit != dInfo[i].CacheHit {
			t.Fatalf("seq %d step %d %+v: info differs: scratch %+v delta %+v",
				si, i, seq[i], sInfo[i], dInfo[i])
		}
		if !reflect.DeepEqual(sRes[i], dRes[i]) {
			t.Fatalf("seq %d step %d %+v: results differ:\nscratch %+v\ndelta   %+v",
				si, i, seq[i], sRes[i], dRes[i])
		}
	}
}

// TestRunDeltaForeignChain checks that a RunInfo from one Runner's chain
// fed into another Runner starts a fresh chain instead of reusing foreign
// state.
func TestRunDeltaForeignChain(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	a, _ := NewRunner(m, system.A100(32))
	b, _ := NewRunner(m, system.A100(32).WithMem1Capacity(10*units.TiB))
	st := execution.Strategy{TP: 4, PP: 2, DP: 4, Microbatch: 1, Interleave: 1}
	_, info, err := runDelta(a, RunInfo{}, st)
	if err != nil {
		t.Fatal(err)
	}
	st2 := st
	st2.Recompute = execution.RecomputeFull
	got, _, err := runDelta(b, info, st2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := b.RunDetailed(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("foreign chain result differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestTermGroupRecomputeCounts pins, for one fixed search walked on a
// single chain as one search worker walks it under a top-10 + Pareto fold
// (mirrorSearches), how often the chain runs its memory half, on how many
// of those runs it reads the block profile and fetches a profile row, and
// on how many each memory row and time group recomputes. Each segment's
// memory pass answers every class at once; the floor half of the pass
// prices the floors of the fitting classes of the profile slots whose
// bound and slot floor keys pass keeps, and selects those whose floors
// pass too; the class walk seeks the selected classes, and the chain steps
// (RunLeaf) only into one whose floor still passes and descends through its
// leaves. The time groups run only when the fold asks for a leaf's exact
// keys, with the masks owed since they last ran. The counts come from the
// masks step hands the memory half (onMemoryHalf), so production code
// counts nothing. A widened mask or a lost class answer shows up here as an
// exact count change rather than as noise in wall time; a narrowed mask
// must also pass the equivalence suites above.
func TestTermGroupRecomputeCounts(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64).WithMem2(system.DDR5(512 * units.GiB))
	r, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	opts := execution.EnumOptions{Procs: 64, Features: execution.FeatureAll, HasMem2: true}
	got := mirrorSearches(t, m, []*Runner{r}, opts)
	// 2,076,480 leaves in 515 segments of 4,032 in 576 memory classes;
	// 11,088 leaves pre-screened (so 2,065,392 admitted), 2,010,498
	// feasible, 2,064,654 profile cache hits. No segment is floored: every
	// one holds a leaf that fits. Of the 515 × 18 profile slots, 1,758 pass
	// the fold on their bound keys, and 1,221 of those on their slot floor
	// keys too. The floor pass prices the floors of the 18,643 fitting
	// classes of those slots that the top-K test on the slot floor or the
	// front's memory limit leave (22,167 when the bound alone chose the
	// slots), and selects 2,185 classes in 75 segments (93 before), which
	// the class walks seek; walking to them visited 35,036 classes (42,264
	// before). The chain steps into the 1,192 selected classes whose floors
	// still pass keeps (1,424 before), so RunLeaf runs 8,334 times, on every
	// leaf of those classes, where it ran 9,726 times with the bound alone
	// and 30,089 times stepping to each class to price its first leaf's
	// floor; every run reaches the memory half, and every leaf is priced
	// for time. The profile is read on 427 memory halves: the stepped
	// classes that move a block switch. Only the 75 walked segments' first
	// steps have a mask that reaches TP or Microbatch; the chain's row memo
	// fetches a row from the shared memo on 125 calls in all, the memory
	// and floor passes' included, where (TP, Microbatch) changed. A seek
	// hands RunLeaf the OR of the masks the walk would have reported, so
	// every row and group count below is what walking gave.
	want := map[string]int{
		"leaves": 2076480, "classes sought": 2185, "pre-screened": 11088, "feasible": 2010498,
		"cache hits": 2064654, "segments floored": 0, "segments walked": 75, "slots passed": 1758,
		"slot floors passed": 1221, "class floors priced": 18643, "classes stepped": 1192,
		"RunLeaf calls": 8334, "memory-half runs": 8334, "timed": 8334,
		"row steps": 75, "row fetches": 125, "profile reads": 427, "shape": 75,
		"mem weights": 627, "mem optimizer": 994, "mem activations": 779,
		"tensor": 3993, "pipe": 4003, "data": 453, "optimizer": 994, "offload": 4758,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recompute counts changed:\n got %v\nwant %v", got, want)
	}
}

// mirrorSearches walks one search per Runner, in order, each on a fresh
// chain as a single search worker walks it under a top-10 + Pareto fold,
// and returns its counts: the lattice prune drops a triple the pre-screen
// rejects whole; every other segment gets its memory pass (PassSegment),
// which floors it when the segment floor shows no leaf fits; a profile slot
// whose bound keys pass keeps is tested again on its slot floor keys
// (SlotFloor), and when some slot passes both, the floor pass (PassFloors)
// prices the floors of the fitting classes of passing slots that the top-K
// test on the slot floor or the front's memory limit leave, and selects
// those whose floors pass keeps; the class walk seeks each selected class
// (ClassWalk.Seek) and steps the chain only into one whose floor still
// passes, ORing the masks of the classes it passes. Runners from one
// RunnerGroup share their profile rows, as the sizes of a sweep do. The
// counts of each memory half and of the term groups it and the time half
// rerun come through onMemoryHalf.
func mirrorSearches(t *testing.T, m model.LLM, runners []*Runner, opts execution.EnumOptions) map[string]int {
	t.Helper()
	memGroups := []struct {
		name string
		mask execution.FieldMask
	}{
		{"row steps", execution.FieldTP | execution.FieldMicrobatch}, {"profile reads", profileMask},
		{"shape", shapeMask}, {"mem weights", memWeightsMask},
		{"mem optimizer", memOptimMask}, {"mem activations", memActsMask},
	}
	timeGroups := []struct {
		name string
		mask execution.FieldMask
	}{
		{"tensor", tensorMask}, {"pipe", pipeMask}, {"data", dataMask},
		{"optimizer", optimMask}, {"offload", offloadMask},
	}
	got := map[string]int{"segments floored": 0, "segments walked": 0}
	// pending mirrors the chain's: the masks of the memory-half runs since
	// the time half last ran.
	var pending execution.FieldMask
	onMemoryHalf = func(mask execution.FieldMask) {
		got["memory-half runs"]++
		for _, g := range memGroups {
			if mask.Has(g.mask) {
				got[g.name]++
			}
		}
		pending |= mask
	}
	defer func() { onMemoryHalf = nil }()
	tog := opts.Toggles()
	lat := LatticeFor(&opts)
	var p SegmentPass
	for _, r := range runners {
		opts.Procs = r.sys.Procs
		screen := execution.NewPreScreen(m, execution.Limits{Procs: r.sys.Procs, Mem1: r.sys.Mem1.Capacity, Mem2: r.sys.Mem2.Capacity})
		fold := keysFold{topK: 10}
		var chain RunInfo
		// noteRow counts the row fetches: the calls after which the chain's
		// row memo holds another row.
		var row *profileRow
		noteRow := func() {
			if m := &chain.delta.memo; m.row != row {
				row = m.row
				got["row fetches"]++
			}
		}
		leaf := func(st *execution.Strategy, mask execution.FieldMask) (Keys, bool) {
			got["RunLeaf calls"]++
			k, ok := r.RunLeaf(&chain, st, mask)
			noteRow()
			return k, ok
		}
		// price is chain.Keys counting the time groups it runs: the ones the
		// masks owed since the time half last ran reach, if any are owed.
		price := func() Keys {
			if pending != 0 {
				got["timed"]++
				for _, g := range timeGroups {
					if pending.Has(g.mask) {
						got[g.name]++
					}
				}
				pending = 0
			}
			return chain.Keys()
		}
		base := 0
		for _, tpd := range opts.Triples(m) {
			if screen.CheckTriple(opts, tpd) != nil {
				n := opts.TripleLeafCount(m, tpd)
				base += n
				got["leaves"] += n
				got["pre-screened"] += n
				continue // the search prunes the subtree before any leaf
			}
			opts.Segments(&m, tpd, func(root *execution.Strategy) bool {
				defer func() { base += tog.Len() }()
				if fl, ok := r.mem1Floor(r.chainOf(&chain), lat, root); ok && fl > r.sys.Mem1.Capacity {
					got["segments floored"]++
				}
				r.PassSegment(&chain, lat, root, &p)
				noteRow()
				got["leaves"] += p.Evaluated
				got["pre-screened"] += p.PreScreened
				got["cache hits"] += p.CacheHits
				got["feasible"] += p.Feasible
				passing := false
				var below [MaxSlots]units.Bytes
				for i := range below[:lat.Slots()] {
					below[i] = units.Bytes(math.Inf(-1))
					if k, ok := p.Bound(i); !ok || !fold.keeps(base, k) {
						continue
					}
					got["slots passed"]++
					switch k := r.SlotFloor(&chain, &p, i); {
					case !fold.keeps(base, k):
						continue
					case fold.entersTop(base, k):
						below[i] = units.Bytes(math.Inf(1))
					default:
						below[i] = fold.frontLimit(k.BatchTime)
					}
					got["slot floors passed"]++
					passing = true
				}
				noteRow()
				if !passing {
					return true
				}
				selected := r.PassFloors(&chain, &p, below[:lat.Slots()], func(k *Keys) bool {
					got["class floors priced"]++
					return fold.keeps(base, *k)
				})
				noteRow()
				if selected == 0 {
					return true
				}
				got["segments walked"]++
				w := tog.Classes(root)
				skipped := w.Mask()
				for k := p.NextSelected(0); k >= 0; k = p.NextSelected(k + 1) {
					got["classes sought"]++
					skipped |= w.Seek(k)
					floor := p.Floor(k)
					if sel, ok := p.Selected(root); !ok || sel != floor {
						t.Fatalf("%v: the walk sought class %d, whose floor keys are %+v, onto a class selected %v with %+v", root, k, floor, ok, sel)
					}
					if !fold.keeps(base, floor) {
						continue
					}
					mask := skipped
					skipped = 0
					if _, ok := leaf(root, mask); !ok {
						t.Fatalf("%v: a class the pass fits does not", root)
					}
					got["classes stepped"]++
					for {
						if fold.keeps(base, floor) {
							exact := price()
							if seq := base + w.Rank(); fold.keeps(base, exact) && fold.keeps(seq, exact) {
								fold.offer(seq, exact)
							}
						}
						if !w.NextLeaf() {
							break
						}
						leaf(root, w.Mask())
					}
				}
				return true
			})
		}
	}
	return got
}

// keysFold is a top-K + Pareto fold over keys alone with the search's
// admission rules: rank by sample rate, then sequence number; the Pareto
// staircase by batch time, first-tier memory, then sequence number, with
// strictly decreasing memory. topK must be at least 1.
type keysFold struct {
	topK       int
	top, front []keyed
}

type keyed struct {
	seq int
	k   Keys
}

// ahead reports whether the candidate ranks before s in the top-K.
func ahead(seq int, k Keys, s keyed) bool {
	if k.SampleRate != s.k.SampleRate {
		return k.SampleRate > s.k.SampleRate
	}
	return seq < s.seq
}

// slot returns the candidate's place on the staircase and whether it
// survives there.
func (f *keysFold) slot(seq int, k Keys) (int, bool) {
	i := sort.Search(len(f.front), func(j int) bool {
		s := f.front[j]
		if k.BatchTime != s.k.BatchTime {
			return k.BatchTime < s.k.BatchTime
		}
		if k.Mem1 != s.k.Mem1 {
			return k.Mem1 < s.k.Mem1
		}
		return seq < s.seq
	})
	return i, i == 0 || f.front[i-1].k.Mem1 > k.Mem1
}

func (f *keysFold) keeps(seq int, k Keys) bool {
	if f.entersTop(seq, k) {
		return true
	}
	_, ok := f.slot(seq, k)
	return ok
}

// entersTop reports whether the candidate enters the top-K.
func (f *keysFold) entersTop(seq int, k Keys) bool {
	n := len(f.top)
	return n < f.topK || ahead(seq, k, f.top[n-1])
}

// frontLimit returns the Mem1 of the last front point strictly faster than
// t, +Inf when there is none: no candidate of batch time t or more enters
// the front from that memory up.
func (f *keysFold) frontLimit(t units.Seconds) units.Bytes {
	i := sort.Search(len(f.front), func(j int) bool { return f.front[j].k.BatchTime >= t })
	if i == 0 {
		return units.Bytes(math.Inf(1))
	}
	return f.front[i-1].k.Mem1
}

func (f *keysFold) offer(seq int, k Keys) {
	i := sort.Search(len(f.top), func(j int) bool { return ahead(seq, k, f.top[j]) })
	f.top = slices.Insert(f.top, i, keyed{seq, k})
	if len(f.top) > f.topK {
		f.top = f.top[:f.topK]
	}
	if i, ok := f.slot(seq, k); ok {
		e := i
		for e < len(f.front) && f.front[e].k.Mem1 >= k.Mem1 {
			e++
		}
		f.front = slices.Replace(f.front, i, e, keyed{seq, k})
	}
}

// runDelta is RunDeltaInto returning the result, for tests that compare
// whole Results.
func runDelta(r *Runner, prev RunInfo, st execution.Strategy) (Result, RunInfo, error) {
	var res Result
	info, err := r.RunDeltaInto(prev, st, &res)
	return res, info, err
}
