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

// leafCase is a roomy two-tier system on which the base strategy and its
// toggle variants fit.
func leafCase() (model.LLM, system.System, execution.Strategy) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(8).WithMem2(system.DDR5(512 * units.GiB))
	st := execution.Strategy{TP: 8, PP: 1, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeFull, TPOverlap: execution.TPOverlapNone}
	return m, sys, st
}

// TestLeafTableResetsOnBase moves a class stepper between segment bases —
// each base field in turn, then back to the first base — on one memory
// class, where the verdicts differ. The segment pass keeps the chain's
// pre-screen verdicts per (TP, PP, DP) base, and no verdict kept for one
// base may answer a leaf of another: every leaf must get its own base's
// verdict and Result (RunDetailed's), and a variant of the class on the
// moved base the same bound keys as the class's first leaf there.
func TestLeafTableResetsOnBase(t *testing.T) {
	m, sys, st := leafCase()
	st.OptimSharding = true
	moves := []func(*execution.Strategy){
		func(s *execution.Strategy) { s.TP, s.DP = 4, 2 },
		func(s *execution.Strategy) { s.TP, s.PP = 4, 2 },
		func(s *execution.Strategy) { s.Microbatch = 2 },
		func(s *execution.Strategy) { s.TP, s.PP, s.OneFOneB = 4, 2, false },
		func(s *execution.Strategy) { s.PP, s.TP, s.Interleave = 2, 4, 2 },
	}
	opts := execution.EnumOptions{Features: execution.FeatureAll, HasMem2: true}
	for mi, move := range moves {
		r, err := NewRunner(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := NewRunner(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		other := st
		move(&other)
		twin := other
		twin.TPRSAG = !twin.TPRSAG // a variant field: same class
		cc := newClassChain(r, opts)
		var bounds [4]Keys
		for i, s := range []execution.Strategy{st, other, twin, st} {
			got, err := cc.run(s)
			want, wantErr := scratch.Run(s)
			if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("move %d, leaf %d %v: class stepper err %v, RunDetailed err %v", mi, i, s, err, wantErr)
			}
			if err == nil {
				bounds[i] = cc.chain.Bound()
			}
		}
		if bounds[1] == bounds[0] {
			t.Errorf("move %d: the two bases have equal bound keys %+v; the base change went unchecked", mi, bounds[0])
		}
		if bounds[2] != bounds[1] {
			t.Errorf("move %d: a variant got bound keys %+v, its class %+v", mi, bounds[2], bounds[1])
		}
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
// of every chain case's lattice (latticeCases; the first 4,096 leaves or one
// segment, whichever is more) on one chain, as a search worker does. The
// pass's answer for a class (SegmentPass.Class) must be every one of its
// leaves' RunDetailed verdict. Then the chain steps into the classes twice:
// every class the pass fits, slot by slot (SegmentPass.Fitting, the
// CollectRates path), and every class the floor pass selects with nothing
// turned away (PassFloors), fastest floor first; each class is entered
// (EnterClass) and its leaves priced (RunLeaf) until a random quarter of
// the classes stop after a random leaf, as a floor that stops passing
// does. Every priced leaf's exact keys must be RunDetailed's, and a random
// third of them must get RunDetailed's Result (RunInfo.Result).
func TestClassAnswerHoldsForEveryLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range latticeCases() {
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
			lat := LatticeFor(&tc.opts)
			var chain RunInfo
			var p SegmentPass
			var res Result
			below := make([]units.Bytes, lat.Slots())
			for i := range below {
				below[i] = units.Bytes(math.Inf(1))
			}
			priced, results := 0, 0
			for _, tpd := range tc.opts.Triples(tc.m) {
				walked := 0
				tc.opts.Segments(&tc.m, tpd, func(root *execution.Strategy) bool {
					r.PassSegment(&chain, lat, root, &p)
					want := map[execution.Strategy]Result{}
					walkClasses(&tog, *root, func(leaves []execution.Strategy) {
						_, _, fits := p.Class(&leaves[0])
						for _, s := range leaves {
							res, err := scratch.Run(s)
							if (err == nil) != fits {
								t.Fatalf("%v: the pass fits its class %v, RunDetailed err %v", s, fits, err)
							}
							want[s] = res
						}
					})
					for _, classes := range [][]Class{
						slices.Clone(p.Fitting()),
						r.PassFloors(&chain, &p, below, func(*Keys) bool { return true }),
					} {
						for _, c := range classes {
							stop := -1
							if rng.Intn(4) == 0 {
								stop = rng.Intn(8)
							}
							r.EnterClass(&chain, &p, root, c.Slot, c.Screen)
							n := 0
							tog.ClassLeaves(root, func(int) bool {
								if n++; n-1 == stop {
									return false
								}
								priced++
								exact := r.RunLeaf(&chain)
								w := want[*root]
								if k := (Keys{w.BatchTime, w.SampleRate, w.Mem1.Total()}); exact != k {
									t.Fatalf("%v: keys %+v, RunDetailed's %+v", root, exact, k)
								}
								if rng.Intn(3) == 0 {
									results++
									chain.Result(&res)
									if !reflect.DeepEqual(res, w) {
										t.Fatalf("%v: chain Result differs from RunDetailed:\n got %+v\nwant %+v", root, res, w)
									}
								}
								return true
							})
						}
					}
					walked += tog.Len()
					return walked < 4096
				})
			}
			if (priced == 0 || results == 0) && tc.name != "tight-mem1" {
				t.Fatalf("%d leaves priced, %d Results built", priced, results)
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

// TestLeafClassCoversMemoryFields derives from the code what pricing a leaf
// from its class (EnterClass, RunLeaf) rests on: flipping a variant field
// through the reference evaluator leaves the pre-screen verdict, the memory
// rows, the profile's totals and the shape bit for bit as they were, so the
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
// class floor and RunLeaf's variant terms rest on: on the
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
