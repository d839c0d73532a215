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
// inside RunLeaf (0 when the leaf table answered).
type leafStep struct {
	bound  Keys
	ok     bool
	info   RunInfo
	halves int
}

// runTable feeds seq to one RunLeaf chain with per-step masks, as the
// search's walk does, and holds every leaf to RunDetailed on a second
// runner: the same feasibility and PreScreened/CacheHit flags, bound keys
// that bound the exact ones, and for the feasible leaves price picks, the
// same Result through chain.Result. Leaves price skips are left to the
// table, so the chain carries their fields until a later step.
func runTable(t *testing.T, m model.LLM, sys system.System, seq []execution.Strategy, price func(i int) bool) []leafStep {
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

// tableCase is a roomy two-tier system on which the base strategy and its
// toggle variants fit.
func tableCase() (model.LLM, system.System, execution.Strategy) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	sys := system.A100(8).WithMem2(system.DDR5(512 * units.GiB))
	st := execution.Strategy{TP: 8, PP: 1, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeFull, TPOverlap: execution.TPOverlapNone}
	return m, sys, st
}

// TestLeafTableTimeRules revisits recorded classes with each combination of
// the time-only toggles that fails a toggle rule: sequence parallelism or
// PP RS+AG without TP RS+AG, and an unknown TP overlap mode. The table must
// not answer them — RunLeaf reports RunDetailed's verdict and flags, as for
// an invalid first leaf of a class — and must not record them, while valid
// revisits of the same classes are answered without a memory half.
func TestLeafTableTimeRules(t *testing.T) {
	m, sys, base := tableCase()
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
		noRSAG,     // 0: invalid first leaf of the SP class: not recorded
		sp,         // 1: the SP class's first step
		noRSAG,     // 2: invalid revisit
		spPipe,     // 3: valid revisit
		badOverlap, // 4: invalid revisit
		sp,         // 5: valid revisit
		ppNoRSAG,   // 6: invalid first leaf of the plain class
		plain,      // 7: the plain class's first step
		ppNoRSAG,   // 8: invalid revisit
		ppRSAG,     // 9: valid revisit
	}
	for _, price := range []func(int) bool{always, func(int) bool { return false }} {
		got := runTable(t, m, sys, seq, price)
		for i, wantHalves := range []int{0, 1, 0, 0, 0, 0, 0, 1, 0, 0} {
			if got[i].halves != wantHalves {
				t.Errorf("leaf %d %v: %d memory halves in RunLeaf, want %d", i, seq[i], got[i].halves, wantHalves)
			}
		}
		for _, i := range []int{1, 3, 5, 7, 9} {
			if !got[i].ok {
				t.Fatalf("leaf %d %v: want a feasible leaf", i, seq[i])
			}
		}
	}
}

// TestLeafTableResetsOnBase reuses one memory class across segment-base
// changes — each base field in turn, then back to the first base — where
// the verdicts differ: a slot recorded under one base must not answer a
// leaf of another.
func TestLeafTableResetsOnBase(t *testing.T) {
	m, sys, st := tableCase()
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
		twin.TPRSAG = !twin.TPRSAG // a time-only toggle: same class
		seq := []execution.Strategy{st, other, twin, st}
		got := runTable(t, m, sys, seq, func(int) bool { return false })
		if got[1].halves != 1 || got[3].halves != 1 {
			t.Errorf("move %d: base changes answered from the table (memory halves %d, %d)", mi, got[1].halves, got[3].halves)
		}
		if got[1].ok && got[2].halves != 0 {
			t.Errorf("move %d: a revisit on an unchanged base ran the memory half", mi)
		}
		if got[1].bound == got[0].bound {
			t.Errorf("move %d: the two bases have equal bound keys %+v; the reset went unchecked", mi, got[0].bound)
		}
	}
}

// TestLeafTableAfterRunDelta mixes the two chain entry points: RunDelta's
// leaves bypass the leaf table, so a RunLeaf after one must not be answered
// from a slot recorded on another base, even when its mask against the
// RunDelta leaf names no base field.
func TestLeafTableAfterRunDelta(t *testing.T) {
	m, sys, st := tableCase()
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
	_, chain, err = r.RunDelta(chain, other)
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
		t.Fatalf("RunLeaf after RunDelta: %v", err)
	}
}

// TestLeafTableSkippedFields walks the delta sequences of
// TestDeltaEqualsScratch pricing only some feasible leaves, as a fold does,
// so between two steps the chain skips runs of table answers whose fields
// the next step must take up.
func TestLeafTableSkippedFields(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range deltaCases() {
		t.Run(tc.name, func(t *testing.T) {
			hits := 0
			for _, seq := range deltaSequences(t, rng, tc.m, tc.opts) {
				for _, st := range runTable(t, tc.m, tc.sys, seq, func(i int) bool { return i%5 == 0 }) {
					if st.halves == 0 && (st.ok || st.info.PreScreened) {
						hits++
					}
				}
			}
			if hits == 0 {
				t.Fatal("no leaf was answered from the table")
			}
		})
	}
}

// TestLeafClassCoversMemoryFields derives the memory class from the
// term-group masks: the fields the memory half (the profile, the shape and
// the three memory rows) and the pre-screen read, minus the segment base,
// must be exactly classFields, and every one of them must move the slot
// while no other toggle does. A new Strategy field that reaches the memory
// half fails here until the slot key covers it.
func TestLeafClassCoversMemoryFields(t *testing.T) {
	screenFields := execution.FieldWeightOffload | execution.FieldActOffload |
		execution.FieldOptimOffload | execution.FieldOptimSharding | execution.FieldDPOverlap
	memory := profileMask | shapeMask | memWeightsMask | memOptimMask | memActsMask | screenFields
	if got := memory &^ baseFields; got != classFields {
		t.Fatalf("memory-half fields outside the base %b, classFields %b", got, classFields)
	}
	_, _, st := tableCase()
	st.TPRSAG = true // so SP and PP RS+AG flips pass the time-only rules
	var tab leafTable
	c0 := tab.class(&st, execution.AllFields)
	if c0 < 0 {
		t.Fatalf("%v has no class", st)
	}
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
		if bit.Has(baseFields) {
			continue // a base change resets the table instead
		}
		c := tab.class(&moved, execution.AllFields)
		switch {
		case bit.Has(classFields) && (c < 0 || c == c0):
			t.Errorf("field %s reaches the memory half but leaves the slot at %d (moved %d)", v.Type().Field(i).Name, c0, c)
		case !bit.Has(classFields) && c != c0:
			t.Errorf("time-only field %s moves the slot from %d to %d", v.Type().Field(i).Name, c0, c)
		}
	}
	if seen != baseFields|classFields|execution.FieldTPRSAG|execution.FieldPPRSAG|execution.FieldTPOverlap {
		t.Errorf("strategy fields cover %b", seen)
	}

	// The slots are distinct across every class and within the table.
	slots := map[int]bool{}
	for _, rc := range []execution.RecomputeMode{execution.RecomputeNone, execution.RecomputeAttn, execution.RecomputeFull} {
		for bits := 0; bits < 1<<8; bits++ {
			s := st
			s.Recompute = rc
			for j, p := range []*bool{&s.SeqParallel, &s.TPRedoForSP, &s.FusedLayers, &s.DPOverlap,
				&s.OptimSharding, &s.WeightOffload, &s.ActOffload, &s.OptimOffload} {
				*p = bits&(1<<j) != 0
			}
			c := tab.class(&s, execution.AllFields)
			if c < 0 || c >= 3<<8 || slots[c] {
				t.Fatalf("class %s/%08b: slot %d out of range or taken", rc, bits, c)
			}
			slots[c] = true
		}
	}
}

// TestLeafTableSlotsPerFeatureSet pins how many slots one segment's walk
// grows a chain's table to, per feature set: the switches a small feature
// set leaves off sit in the high bits of the slot index, so its chains
// allocate a few slots, not all 768.
func TestLeafTableSlotsPerFeatureSet(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(16)
	for _, tc := range []struct {
		name string
		opts execution.EnumOptions
		sys  system.System
		want int
	}{
		{"baseline", execution.EnumOptions{Features: execution.FeatureBaseline}, system.A100(8), 3},
		{"seqpar", execution.EnumOptions{Features: execution.FeatureSeqPar}, system.A100(8), 12},
		{"pinned", execution.EnumOptions{Features: execution.FeatureAll, PinBeneficial: true}, system.A100(8), 96},
		{"all", execution.EnumOptions{Features: execution.FeatureAll}, system.A100(8), 96},
		{"all-mem2", execution.EnumOptions{Features: execution.FeatureAll, HasMem2: true},
			system.A100(8).WithMem2(system.DDR5(512 * units.GiB)), 768},
	} {
		r, err := NewRunner(m, tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		tog := tc.opts.Toggles()
		root := execution.Strategy{TP: 8, PP: 1, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true}
		var chain RunInfo
		tog.Walk(&root, func(st *execution.Strategy, mask execution.FieldMask) bool {
			r.RunLeaf(&chain, st, mask)
			return true
		})
		if got := len(chain.delta.leaves.slots); got != tc.want {
			t.Errorf("%s: %d-leaf segment grew the table to %d slots, want %d", tc.name, tog.Len(), got, tc.want)
		}
	}
}
