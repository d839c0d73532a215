package perf

import (
	"math/rand"
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// leafStep is what a RunLeaf chain reported for one leaf: the bound keys,
// the feasibility and flags, and how many memory halves the chain ran
// inside RunLeaf.
type leafStep struct {
	bound  Keys
	ok     bool
	info   RunInfo
	halves int
}

// runLeaves feeds seq to one RunLeaf chain with per-step masks, as the
// search's walk does, and holds every leaf to RunDetailed on a second
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
	onMemoryHalf = func(execution.FieldMask) { halves++ }
	defer func() { onMemoryHalf = nil }()
	out := make([]leafStep, len(seq))
	var chain RunInfo
	var res Result
	sts := append([]execution.Strategy(nil), seq...)
	for i := range sts {
		sts[i].Normalize()
		mask := execution.AllFields
		if i > 0 {
			mask = execution.DiffMask(&sts[i-1], &sts[i])
		}
		before := halves
		k, ok := r.RunLeaf(&chain, &sts[i], mask)
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
// class walk never yields such a leaf, but RunLeaf must still report
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
// between two RunLeaf leaves. RunDeltaInto's leaves are diffed against the
// chain's state, so a RunLeaf after one, with the mask against it, must be
// evaluated on its base and not answered from the leaf before.
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
	if _, ok := r.RunLeaf(&chain, &a, execution.AllFields); !ok {
		t.Fatalf("%v does not fit", st)
	}
	_, chain, err = runDelta(r, chain, other)
	if err != nil {
		t.Fatal(err)
	}
	b := other
	got, ok := r.RunLeaf(&chain, &b, 0)
	want, wantErr := r.Run(other)
	if !ok || wantErr != nil {
		t.Fatalf("RunLeaf ok %v, Run err %v", ok, wantErr)
	}
	if err := checkBound(got, Keys{want.BatchTime, want.SampleRate, want.Mem1.Total()}); err != nil {
		t.Fatalf("RunLeaf after RunDeltaInto: %v", err)
	}
}

// classKey is a leaf with its variant fields cleared: the leaves of one
// memory class share it.
func classKey(s execution.Strategy) execution.Strategy {
	s.TPRSAG, s.PPRSAG, s.TPOverlap = false, false, ""
	return s
}

// TestClassAnswerHoldsForEveryLeaf walks the first segments of every triple
// of the TestDeltaEqualsScratch configurations (the first 4,096 leaves or
// one segment, whichever is more) class by class on one chain,
// as a search worker does: RunLeaf on one leaf of each class, then into a
// random half of the classes, pricing a random third of their leaves. The
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
					members := map[execution.Strategy][]execution.Strategy{}
					st := *root
					tog.Walk(&st, func(s *execution.Strategy, _ execution.FieldMask) bool {
						members[classKey(*s)] = append(members[classKey(*s)], *s)
						return true
					})
					w := tog.Classes(&st)
					for more := true; more; more = w.NextClass() {
						k, ok := r.RunLeaf(&chain, &st, w.Mask())
						screened := chain.PreScreened
						for _, s := range members[classKey(st)] {
							_, info, err := scratch.RunDetailed(s)
							if (err == nil) != ok || info.PreScreened != screened {
								t.Fatalf("%v: class answer ok %v pre-screened %v, RunDetailed err %v %+v", s, ok, screened, err, info)
							}
						}
						if !ok || rng.Intn(2) == 0 {
							continue
						}
						for {
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
							if !w.NextLeaf() {
								break
							}
							if vk, vok := r.RunLeaf(&chain, &st, w.Mask()); vk != k || vok != ok || chain.PreScreened {
								t.Fatalf("%v: variant answer %+v %v %+v, class %+v %v", st, vk, vok, chain, k, ok)
							}
						}
					}
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

// TestLeafClassCoversMemoryFields derives from the term-group masks that
// the memory half (the profile, the shape and the three memory rows), the
// pre-screen (its five switches; see screenTable) and batchTimeBound (which
// reads profile and shape outputs) read no field of
// execution.VariantFields, while every other toggle reaches one of them.
// Then it checks the same on a chain: moving a variant field leaves
// RunLeaf's verdict and bound keys as they were and reruns no memory row,
// and moving any other toggle reruns one. A new Strategy field that
// reaches the memory half fails here until it is kept out of
// VariantFields.
func TestLeafClassCoversMemoryFields(t *testing.T) {
	screenFields := execution.FieldWeightOffload | execution.FieldActOffload |
		execution.FieldOptimOffload | execution.FieldOptimSharding | execution.FieldDPOverlap
	memoryGroups := profileMask | shapeMask | memWeightsMask | memOptimMask | memActsMask
	memory := memoryGroups | screenFields
	if memory&execution.VariantFields != 0 {
		t.Fatalf("the memory half or the pre-screen reads variant fields %b", memory&execution.VariantFields)
	}
	m, sys, st := leafCase()
	st.TPRSAG = true // so SP and PP RS+AG flips pass the toggle rules
	r, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	var halves []execution.FieldMask
	onMemoryHalf = func(mask execution.FieldMask) { halves = append(halves, mask) }
	defer func() { onMemoryHalf = nil }()
	v := reflect.ValueOf(&st).Elem()
	seen := execution.FieldMask(0)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		moved := st
		mf := reflect.ValueOf(&moved).Elem().Field(i)
		switch x := f.Interface().(type) {
		case bool:
			mf.SetBool(!x)
		case int:
			mf.SetInt(int64(x + 1))
		case execution.RecomputeMode:
			mf.Set(reflect.ValueOf(execution.RecomputeAttn))
		case execution.TPOverlapMode:
			mf.Set(reflect.ValueOf(execution.TPOverlapRing))
		default:
			t.Fatalf("field %s: unhandled type %s", v.Type().Field(i).Name, f.Type())
		}
		bit := execution.DiffMask(&st, &moved)
		seen |= bit
		if bit.Has(execution.ShapeFields | execution.FieldInference) {
			continue // the segment base
		}
		name := v.Type().Field(i).Name
		if !bit.Has(execution.VariantFields) {
			if !bit.Has(memory) {
				t.Errorf("toggle %s reaches neither the memory half nor the pre-screen, but is no variant field", name)
			}
			continue
		}
		var chain RunInfo
		a, b := st, moved
		k, ok := r.RunLeaf(&chain, &a, execution.AllFields)
		halves = halves[:0]
		vk, vok := r.RunLeaf(&chain, &b, bit)
		if !ok || vok != ok || vk != k {
			t.Errorf("variant field %s moves RunLeaf's answer from %v %+v to %v %+v", name, ok, k, vok, vk)
		}
		if len(halves) != 1 || halves[0].Has(memoryGroups) {
			t.Errorf("variant field %s reran memory rows: memory halves %b", name, halves)
		}
	}
	if seen != execution.ShapeFields|execution.FieldInference|memory|execution.VariantFields {
		t.Errorf("strategy fields cover %b", seen)
	}
}
