package perf

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// leafStep is what a RunLeaf chain reported for one leaf: the bound keys
// (RunInfo.Bound, zero when infeasible), the feasibility and flags, and how many memory halves the chain ran
// inside RunLeaf.
type leafStep struct {
	bound  Keys
	ok     bool
	info   RunInfo
	halves int
}

// runLeaves feeds seq to one RunLeaf chain, as the search's walk does, and holds every leaf to RunDetailed on a second
// runner: the same feasibility and PreScreened/CacheHit flags, bound keys
// that bound the exact ones, and for the feasible leaves price picks, the
// same Result through chain.Result with the leaf's flags left as they were.
// The leaves price skips leave their time groups owed to a later leaf.
func runLeaves(t *testing.T, m model.LLM, sys system.System, seq []execution.Strategy, price func(i int) bool) []leafStep {
	t.Helper()
	r, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	halves := 0
	onMemoryHalf = func(groups) { halves++ }
	defer func() { onMemoryHalf = nil }()
	out := make([]leafStep, len(seq))
	var chain RunInfo
	var res Result
	for i := range seq {
		st := seq[i]
		before := halves
		ok := r.RunLeaf(&chain, &st)
		var k Keys
		if ok {
			k = chain.Bound()
		}
		out[i] = leafStep{bound: k, ok: ok, info: chain, halves: halves - before}
		want, info, wantErr := scratch.RunDetailed(seq[i])
		if ok != (wantErr == nil) || chain.PreScreened != info.PreScreened || chain.CacheHit != info.CacheHit {
			t.Fatalf("leaf %d %v: RunLeaf ok %v %+v, RunDetailed err %v %+v", i, seq[i], ok, chain, wantErr, info)
		}
		if !ok {
			continue
		}
		if err := checkBound(k, Keys{want.BatchTime, want.SampleRate, want.Mem1.Total()}); err != nil {
			t.Fatalf("leaf %d %v: %v", i, seq[i], err)
		}
		if price(i) {
			chain.Result(&res)
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("leaf %d %v: chain Result differs from RunDetailed:\n got %+v\nwant %+v", i, seq[i], res, want)
			}
			if chain.PreScreened != info.PreScreened || chain.CacheHit != info.CacheHit {
				t.Fatalf("leaf %d %v: pricing changed the flags to %+v", i, seq[i], chain)
			}
		}
	}
	return out
}

func always(int) bool { return true }

// leafCase is a roomy two-tier system on which the base strategy and its
// toggle variants fit.
func leafCase() (model.LLM, system.System, execution.Strategy) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(8).WithMem2(system.DDR5(512 * units.GiB))
	st := execution.Strategy{TP: 8, PP: 1, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeFull, TPOverlap: execution.TPOverlapNone}
	return m, sys, st
}

// TestRunLeafTimeRules feeds a chain leaves that fail a toggle rule over a
// variant field — sequence parallelism or PP RS+AG without TP RS+AG, an
// unknown TP overlap mode — between valid leaves of the same classes. The
// search never steps into such a leaf, but RunLeaf must still report
// RunDetailed's verdict and flags for it without running a memory half,
// and the valid leaf after it must be evaluated against the chain's last
// admitted leaf, priced or not.
func TestRunLeafTimeRules(t *testing.T) {
	m, sys, base := leafCase()
	sp := base
	sp.TPRSAG, sp.SeqParallel = true, true
	noRSAG := sp
	noRSAG.TPRSAG = false // sequence parallelism without TP RS+AG
	spPipe := sp
	spPipe.TPOverlap = execution.TPOverlapPipe
	badOverlap := sp
	badOverlap.TPOverlap = "bogus"
	plain := base
	ppNoRSAG := plain
	ppNoRSAG.PPRSAG = true // PP RS+AG without TP RS+AG
	ppRSAG := ppNoRSAG
	ppRSAG.TPRSAG = true
	seq := []execution.Strategy{
		noRSAG,     // 0: invalid
		sp,         // 1
		noRSAG,     // 2: invalid
		spPipe,     // 3: a variant of 1
		badOverlap, // 4: invalid
		sp,         // 5
		ppNoRSAG,   // 6: invalid
		plain,      // 7: another class
		ppNoRSAG,   // 8: invalid
		ppRSAG,     // 9: a variant of 7
	}
	for _, price := range []func(int) bool{always, func(int) bool { return false }} {
		got := runLeaves(t, m, sys, seq, price)
		for i, wantHalves := range []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1} {
			if got[i].halves != wantHalves {
				t.Errorf("leaf %d %v: %d memory halves in RunLeaf, want %d", i, seq[i], got[i].halves, wantHalves)
			}
		}
		for _, i := range []int{1, 3, 5, 7, 9} {
			if !got[i].ok {
				t.Fatalf("leaf %d %v: want a feasible leaf", i, seq[i])
			}
		}
		if got[3].bound != got[1].bound || got[9].bound != got[7].bound {
			t.Errorf("variants of one class got different bound keys: %+v %+v, %+v %+v",
				got[1].bound, got[3].bound, got[7].bound, got[9].bound)
		}
	}
}

// TestLeafTableResetsOnBase moves a chain between segment bases — each base
// field in turn, then back to the first base — on one memory class, where
// the verdicts differ. No verdict kept for a leaf of one base may answer a
// leaf of another: every leaf must get its own base's verdict (runLeaves
// holds each to RunDetailed), and a variant of the class on the moved base
// the same answer as the class's first leaf there.
func TestLeafTableResetsOnBase(t *testing.T) {
	m, sys, st := leafCase()
	st.OptimSharding = true
	moves := []func(*execution.Strategy){
		func(s *execution.Strategy) { s.TP, s.DP = 4, 2 },
		func(s *execution.Strategy) { s.TP, s.PP = 4, 2 },
		func(s *execution.Strategy) { s.Microbatch = 2 },
		func(s *execution.Strategy) { s.TP, s.PP, s.OneFOneB = 4, 2, false },
		func(s *execution.Strategy) { s.PP, s.TP, s.Interleave = 2, 4, 2 },
		func(s *execution.Strategy) {
			s.Inference, s.Recompute, s.OptimSharding = true, execution.RecomputeNone, false
		},
	}
	for mi, move := range moves {
		other := st
		move(&other)
		twin := other
		twin.TPRSAG = !twin.TPRSAG // a variant field: same class
		got := runLeaves(t, m, sys, []execution.Strategy{st, other, twin, st}, func(int) bool { return false })
		if got[1].bound == got[0].bound {
			t.Errorf("move %d: the two bases have equal bound keys %+v; the base change went unchecked", mi, got[0].bound)
		}
		if got[2].ok != got[1].ok || got[2].bound != got[1].bound {
			t.Errorf("move %d: a variant got %v %+v, its class %v %+v", mi, got[2].ok, got[2].bound, got[1].ok, got[1].bound)
		}
	}
}

// TestLeafTableAfterRunDelta steps a chain through a RunDeltaInto leaf
// between two RunLeaf leaves. Both compare their leaf with the chain's
// last admitted one, so a RunLeaf after a RunDeltaInto must be evaluated on
// its base and not answered from the leaf before.
func TestLeafTableAfterRunDelta(t *testing.T) {
	m, sys, st := leafCase()
	st.OptimSharding = true
	r, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	other := st
	other.TP, other.DP = 4, 2
	var chain RunInfo
	a := st
	if !r.RunLeaf(&chain, &a) {
		t.Fatalf("%v does not fit", st)
	}
	_, chain, err = runDelta(r, chain, other)
	if err != nil {
		t.Fatal(err)
	}
	b := other
	ok := r.RunLeaf(&chain, &b)
	want, wantErr := r.Run(other)
	if !ok || wantErr != nil {
		t.Fatalf("RunLeaf ok %v, Run err %v", ok, wantErr)
	}
	if err := checkBound(chain.Bound(), Keys{want.BatchTime, want.SampleRate, want.Mem1.Total()}); err != nil {
		t.Fatalf("RunLeaf after RunDeltaInto: %v", err)
	}
}

// classKey is a leaf with its variant fields cleared: the leaves of one
// memory class share it.
func classKey(s execution.Strategy) execution.Strategy {
	s.TPRSAG, s.PPRSAG, s.TPOverlap = false, false, ""
	return s
}

// walkClasses calls yield with the leaves of each memory class of the
// segment rooted at root: Walk's leaves grouped by class key, the classes in
// the order Walk first reaches them and each class's leaves in Walk's order.
func walkClasses(tog *execution.Toggles, root execution.Strategy, yield func(leaves []execution.Strategy)) {
	var classes [][]execution.Strategy
	index := map[execution.Strategy]int{}
	tog.Walk(&root, func(s *execution.Strategy) bool {
		k := classKey(*s)
		i, ok := index[k]
		if !ok {
			i = len(classes)
			index[k] = i
			classes = append(classes, nil)
		}
		classes[i] = append(classes[i], *s)
		return true
	})
	for _, c := range classes {
		yield(c)
	}
}

// TestClassAnswerHoldsForEveryLeaf walks the first segments of every triple
// of the TestDeltaEqualsScratch configurations (the first 4,096 leaves or
// one segment, whichever is more) class by class on one chain
// (walkClasses), as a search worker does: RunLeaf on one leaf of each
// class, then into a random half of the classes, pricing a random third of
// their leaves. The
// class's answer must be every one of its leaves' RunDetailed verdict and
// pre-screen flag; a leaf stepped inside a class must get the class's bound
// keys and verdict; and a priced leaf must get RunDetailed's Result, with
// the time groups it owes from the leaves before it that nobody priced.
func TestClassAnswerHoldsForEveryLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range deltaCases() {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(tc.m, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := NewRunner(tc.m, tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			tog := tc.opts.Toggles()
			var chain RunInfo
			var res Result
			priced := 0
			for _, tpd := range tc.opts.Triples(tc.m) {
				walked := 0
				tc.opts.Segments(&tc.m, tpd, func(root *execution.Strategy) bool {
					walkClasses(&tog, *root, func(leaves []execution.Strategy) {
						st := leaves[0]
						ok := r.RunLeaf(&chain, &st)
						var k Keys
						if ok {
							k = chain.Bound()
						}
						screened := chain.PreScreened
						for _, s := range leaves {
							_, info, err := scratch.RunDetailed(s)
							if (err == nil) != ok || info.PreScreened != screened {
								t.Fatalf("%v: class answer ok %v pre-screened %v, RunDetailed err %v %+v", s, ok, screened, err, info)
							}
						}
						if !ok || rng.Intn(2) == 0 {
							return
						}
						for j := range leaves {
							if st = leaves[j]; j > 0 && (!r.RunLeaf(&chain, &st) || chain.Bound() != k || chain.PreScreened) {
								t.Fatalf("%v: variant answer %+v, class bound keys %+v", st, chain, k)
							}
							if rng.Intn(3) == 0 {
								want, err := scratch.Run(st)
								if err != nil {
									t.Fatalf("%v: %v", st, err)
								}
								chain.Result(&res)
								if !reflect.DeepEqual(res, want) {
									t.Fatalf("%v: chain Result differs from RunDetailed:\n got %+v\nwant %+v", st, res, want)
								}
								priced++
							}
						}
					})
					walked += tog.Len()
					return walked < 4096
				})
			}
			if priced == 0 && tc.name != "tight-mem1" {
				t.Fatal("no leaf was priced")
			}
		})
	}
}

// variantFlip names a flip of one variant field (TPOverlap to each other
// mode) and the eval terms it may move: a TPRSAG or TPOverlap flip moves
// nothing outside tensorComm's and offload's outputs, a PPRSAG flip nothing
// outside pipelineComm's.
type variantFlip struct {
	name  string
	moves []string
	set   func(*execution.Strategy)
}

func variantFlips() []variantFlip {
	tensorTerms := []string{"fwdPenalty", "bwdPenalty", "tpFwdPerBlock", "tpBwdPerBlock",
		"tpFwdExposedPerBlock", "tpBwdExposedPerBlock",
		// offload reads tensorComm's exposed times as its overlap windows.
		"offloadTotal", "offloadExposed", "offloadBWRequired", "offloadBWUsed"}
	pipeTerms := []string{"ppPerMicrobatch", "ppExposedPerMicrobatch"}
	flips := []variantFlip{
		{"TPRSAG", tensorTerms, func(s *execution.Strategy) { s.TPRSAG = !s.TPRSAG }},
		{"PPRSAG", pipeTerms, func(s *execution.Strategy) { s.PPRSAG = !s.PPRSAG }},
	}
	for _, o := range []execution.TPOverlapMode{execution.TPOverlapNone, execution.TPOverlapPipe, execution.TPOverlapRing} {
		flips = append(flips, variantFlip{"TPOverlap=" + string(o), tensorTerms, func(s *execution.Strategy) { s.TPOverlap = o }})
	}
	return flips
}

// walkVariantFlips evaluates random admitted strategies of several spaces,
// with and without a second tier, through the reference evaluator
// (referenceEval), flips each variant field of each, and hands check the
// two evaluations. A flip that passes the toggle rules must pass the
// pre-screen too.
func walkVariantFlips(t *testing.T, check func(name string, st execution.Strategy, f variantFlip, base, got *evalState)) {
	t.Helper()
	cases := append(deltaCases(), deltaCase{
		name: "175B-mem2",
		m:    model.MustPreset("gpt3-175B").WithBatch(16),
		sys:  system.A100(16).WithMem2(system.DDR5(512 * units.GiB)),
		opts: execution.EnumOptions{Procs: 16, Features: execution.FeatureAll, HasMem2: true, MaxInterleave: 2},
	})
	flips := variantFlips()
	rng := rand.New(rand.NewSource(11))
	for _, tc := range cases {
		// A uniform sample of the space's leaves.
		var sample []execution.Strategy
		n := 0
		tc.opts.Enumerate(tc.m, func(s execution.Strategy) bool {
			if n++; len(sample) < 400 {
				sample = append(sample, s)
			} else if j := rng.Intn(n); j < len(sample) {
				sample[j] = s
			}
			return true
		})
		admitted := 0
		for _, st := range sample {
			_, base, err := referenceEval(tc.m, tc.sys, st)
			if err != nil {
				continue
			}
			if admitted++; admitted > 40 {
				break
			}
			for _, f := range flips {
				v := st
				f.set(&v)
				if v == st || v.Validate(&tc.m) != nil {
					continue // no move, or a toggle rule the chain re-checks
				}
				_, got, err := referenceEval(tc.m, tc.sys, v)
				if err != nil {
					t.Fatalf("%s: %v passes the pre-screen, %s flipped does not: %v", tc.name, st, f.name, err)
				}
				check(tc.name, st, f, base, got)
			}
		}
		if admitted == 0 {
			t.Fatalf("%s: no sampled leaf is admitted", tc.name)
		}
	}
}

// shapeTerms are the eval terms loadShape derives from the strategy.
var shapeTerms = []string{"n", "bp", "bc"}

// TestLeafClassCoversMemoryFields derives from the code what a chain's step
// inside a memory class (step) rests on: flipping a variant field through
// the reference evaluator leaves the pre-screen verdict, the memory rows,
// the profile's totals and the shape bit for bit as they were, so the
// memory class a leaf's non-variant fields name holds its memory half.
func TestLeafClassCoversMemoryFields(t *testing.T) {
	flips := 0
	walkVariantFlips(t, func(name string, st execution.Strategy, f variantFlip, base, got *evalState) {
		flips++
		if *got.e.tot != *base.e.tot || got.e.prof.recompute != base.e.prof.recompute ||
			got.e.boundaryBytes != base.e.boundaryBytes {
			t.Fatalf("%s: flipping %s of %v moves the block profile", name, f.name, st)
		}
		if !reflect.DeepEqual(got.mem1, base.mem1) || !reflect.DeepEqual(got.mem2, base.mem2) {
			t.Fatalf("%s: flipping %s of %v moves the memory rows", name, f.name, st)
		}
		if got.e.n != base.e.n || got.e.bp != base.e.bp || got.e.bc != base.e.bc {
			t.Fatalf("%s: flipping %s of %v moves the shape", name, f.name, st)
		}
	})
	if flips == 0 {
		t.Fatal("no variant flip passed the toggle rules: the test checks nothing")
	}
}

// TestClassFloorReadsNoVariantField derives from the code what PassFloors'
// class floor and the chain's variant step (variantGroups) rest on: on the
// same flips, every time term the evaluation holds is compared bit for
// bit. The data-parallel, optimizer and offload-transfer terms the class
// floor takes exactly never move, so the values one leaf of a memory class
// leaves are every leaf's; a flip moves nothing outside its own groups. A
// term added to eval is held fixed within a class unless it is named in
// variantFlips.
func TestClassFloorReadsNoVariantField(t *testing.T) {
	// The inputs, the memo and the profile a reference evaluation builds
	// afresh, and the profile and shape TestLeafClassCoversMemoryFields
	// compares.
	skip := append([]string{"m", "sys", "st", "memo", "prof", "tot", "boundaryBytes"}, shapeTerms...)
	moved := map[string]int{}
	walkVariantFlips(t, func(name string, st execution.Strategy, f variantFlip, base, got *evalState) {
		bv, gv := reflect.ValueOf(&base.e).Elem(), reflect.ValueOf(&got.e).Elem()
		for i := range bv.NumField() {
			term := bv.Type().Field(i).Name
			if slices.Contains(skip, term) {
				continue
			}
			var same bool
			switch a, b := bv.Field(i), gv.Field(i); a.Kind() {
			case reflect.Float64:
				same = math.Float64bits(a.Float()) == math.Float64bits(b.Float())
			case reflect.Int:
				same = a.Int() == b.Int()
			default:
				t.Fatalf("eval term %s has kind %s; teach this test to compare it", term, a.Kind())
			}
			switch {
			case same:
			case slices.Contains(f.moves, term):
				moved[f.name]++
			default:
				t.Fatalf("%s: flipping %s of %v moves %s", name, f.name, st, term)
			}
		}
	})
	for _, f := range variantFlips() {
		if moved[f.name] == 0 {
			t.Errorf("no %s flip moved a term it may move: the test checks nothing for it", f.name)
		}
	}
}
