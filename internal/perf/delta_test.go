package perf

import (
	"errors"
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
// tight-mem1 enumeration fits; there the two paths must agree on that.
func TestBoundKeysSound(t *testing.T) {
	feasible := 0
	for _, tc := range deltaCases() {
		r, err := NewRunner(tc.m, tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		lc := leafChain{r: r}
		tc.opts.Enumerate(tc.m, func(st execution.Strategy) bool {
			got, err := lc.run(st)
			want, wantErr := r.Run(st)
			switch {
			case err != nil && err != ErrInfeasible:
				t.Fatalf("%s %v: %v", tc.name, st, err)
			case (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want):
				t.Fatalf("%s %v: leaf chain (err %v) differs from Run (err %v)", tc.name, st, err, wantErr)
			case err == nil:
				feasible++
			}
			return true
		})
	}
	if feasible == 0 {
		t.Fatal("no feasible leaf: the bound went unchecked")
	}
}

type deltaCase struct {
	name string
	m    model.LLM
	sys  system.System
	opts execution.EnumOptions
}

// deltaCases are the configurations the chain equivalence tests walk: a
// sequence-parallel space, every feature with a second memory tier, and a
// first tier so tight that most leaves overflow it.
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
// single chain as one search worker walks it under a top-10 + Pareto fold,
// how often the chain runs its memory half, on how many of those runs it
// reads the block profile and fetches a profile row, and on how many each
// memory row and time group recomputes. The walk goes class by class:
// RunLeaf runs once on one leaf of each memory class, and again on each
// other leaf of a class the worker descends into (keeps passes on the
// class's bound keys and the segment's first sequence number), where it
// steps the chain with a variant-only mask that reruns no memory row. The
// time groups run only when the fold asks for a leaf's exact keys, with the
// masks owed since they last ran. The counts come from the masks step
// hands the memory half (onMemoryHalf), so production code counts nothing.
// A widened mask or a lost class answer shows up here as an exact count
// change rather than as noise in wall time; a narrowed mask must also pass
// the equivalence suites above.
func TestTermGroupRecomputeCounts(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64).WithMem2(system.DDR5(512 * units.GiB))
	r, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	opts := execution.EnumOptions{Procs: 64, Features: execution.FeatureAll, HasMem2: true}
	type group struct {
		name string
		mask execution.FieldMask
	}
	memGroups := []group{
		{"row steps", execution.FieldTP | execution.FieldMicrobatch}, {"profile reads", profileMask},
		{"shape", shapeMask}, {"mem weights", memWeightsMask},
		{"mem optimizer", memOptimMask}, {"mem activations", memActsMask},
	}
	timeGroups := []group{
		{"tensor", tensorMask}, {"pipe", pipeMask}, {"data", dataMask},
		{"optimizer", optimMask}, {"offload", offloadMask},
	}
	got := map[string]int{}
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
	screen := execution.NewPreScreen(m, execution.Limits{Procs: sys.Procs, Mem1: sys.Mem1.Capacity, Mem2: sys.Mem2.Capacity})
	tog := opts.Toggles()
	fold := keysFold{topK: 10}
	var chain RunInfo
	// leaf is RunLeaf counting the row fetches: the steps after which the
	// chain's row memo holds another row.
	var row *profileRow
	leaf := func(st *execution.Strategy, mask execution.FieldMask) (Keys, bool) {
		k, ok := r.RunLeaf(&chain, st, mask)
		if m := &chain.delta.memo; m.row != row {
			row = m.row
			got["row fetches"]++
		}
		return k, ok
	}
	base := 0
	for _, tpd := range opts.Triples(m) {
		if screen.CheckTriple(opts, tpd) != nil {
			base += opts.TripleLeafCount(m, tpd)
			continue // the search prunes the subtree before any leaf
		}
		opts.Segments(&m, tpd, func(root *execution.Strategy) bool {
			w := tog.Classes(root)
			for more := true; more; more = w.NextClass() {
				got["classes"]++
				got["RunLeaf calls"]++
				k, ok := leaf(root, w.Mask())
				n := w.Len()
				got["leaves"] += n
				if chain.PreScreened {
					got["pre-screened"] += n
				}
				if !ok {
					continue
				}
				got["feasible"] += n
				if !fold.keeps(base, k) {
					continue
				}
				for {
					if seq := base + w.Rank(); fold.keeps(seq, k) {
						got["timed"]++
						exact := chain.Keys()
						for _, g := range timeGroups {
							if pending.Has(g.mask) {
								got[g.name]++
							}
						}
						pending = 0
						if fold.keeps(seq, exact) {
							fold.offer(seq, exact)
						}
					}
					if !w.NextLeaf() {
						break
					}
					got["RunLeaf calls"]++
					leaf(root, w.Mask())
				}
			}
			base += tog.Len()
			return true
		})
	}
	// 2,076,480 leaves in 515 segments of 4,032, so 296,640 classes of 7
	// on average; 11,088 leaves pre-screened (so 2,065,392 admitted),
	// 2,010,498 feasible. RunLeaf runs 423,443 times: once per class and on
	// 126,803 more leaves of the classes the worker descends into, and the
	// memory half on the 421,859 of those runs that pass admit, about a
	// fifth of the admitted leaves. 148,590 leaves are priced for time.
	// Walking leaf by leaf with a per-chain table of class answers (the
	// previous design) priced 148,377 leaves, ran the memory half 421,642
	// times on 2,076,480 RunLeaf calls, and reloaded the profile 41,334
	// times; the variant fields, which the class walk moves fastest, now
	// rerun the tensor and pipe groups more often (23,165 and 21,717 runs
	// then) and the others less. The profile is read on 23,175 memory
	// halves, the segment roots and the class steps that move a block
	// switch. Only the 515 segment roots have a mask that reaches TP or
	// Microbatch, and the chain's row memo fetches a row from the shared
	// memo on the 125 of them where (TP, Microbatch) changed; every other
	// profile read is one atomic load in the row the chain holds.
	want := map[string]int{
		"leaves": 2076480, "classes": 296640, "pre-screened": 11088, "feasible": 2010498,
		"RunLeaf calls": 423443, "memory-half runs": 421859, "timed": 148590,
		"row steps": 515, "row fetches": 125, "profile reads": 23175, "shape": 515,
		"mem weights": 74160, "mem optimizer": 179901, "mem activations": 97335,
		"tensor": 64916, "pipe": 68835, "data": 5349, "optimizer": 14215, "offload": 83026,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recompute counts changed:\n got %v\nwant %v", got, want)
	}
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
	n := len(f.top)
	if n < f.topK || ahead(seq, k, f.top[n-1]) {
		return true
	}
	_, ok := f.slot(seq, k)
	return ok
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
