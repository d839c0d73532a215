package perf

import (
	"math"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// FuzzRun draws a model, a system and a strategy from the fuzzer's input
// and holds Run to the reference evaluator and to the model's invariants.
// The model is a preset with a drawn batch and, optionally, sequence
// length; the system is a preset sized to the strategy (or one too small
// for it), with an optional first-tier cap, second tier, and network
// processor-usage fraction; the strategy takes parallelism degrees that
// divide the model's heads, blocks and batch, and draws every switch.
// Run must never panic, must equal referenceRun bit for bit (or fail with
// the same message, unless the pre-screen rejected the strategy first),
// and a success must carry finite, non-negative breakdown terms, an MFU of
// at most 1, and a breakdown whose Total is the batch time; the chain's bound
// keys must bound its keys (checkBound), and its class floor the keys of
// every leaf of its memory class (checkFuzzClass).
func FuzzRun(f *testing.F) {
	// Feasible: gpt3-13B t8 p4 d2 with full recompute on A100s; gpt3-175B
	// t8 p8 offloading weights and optimizer to a 512 GiB tier; gpt3-6.7B
	// inference at t4.
	f.Add(uint8(2), uint8(1), uint8(4), uint8(2), uint8(1), uint8(0), uint8(0), uint16(15), uint16(0), uint32(5), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(3), uint8(4), uint8(5), uint8(5), uint8(0), uint8(0), uint8(0), uint16(63), uint16(0), uint32(20581), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(4), uint8(1), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint16(7), uint16(0), uint32(32832), uint16(0), uint16(0), uint8(0))
	// Extremes: every switch on, tiny and huge tiers, long sequences, an
	// undersized system, overridden processor usage.
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(2), uint8(0), uint8(0), uint16(16), uint16(0), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(3), uint8(4), uint8(3), uint8(1), uint8(1), uint16(3), uint16(0), uint32(0xffffffff), uint16(40), uint16(512), uint8(0))
	f.Add(uint8(5), uint8(2), uint8(2), uint8(2), uint8(1), uint8(2), uint8(0), uint16(1), uint16(8192), uint32(0x5a5a5a5a), uint16(0), uint16(2048), uint8(128))
	f.Add(uint8(7), uint8(4), uint8(9), uint8(6), uint8(7), uint8(3), uint8(2), uint16(65535), uint16(65535), uint32(0x1234567), uint16(1), uint16(1), uint8(255))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint16(0), uint16(1), uint32(0x80), uint16(65535), uint16(0), uint8(1))

	models, systems := model.PresetNames(), system.PresetNames()
	f.Fuzz(func(t *testing.T, mSel, sSel, tpSel, ppSel, dpExp, mbExp, ilSel uint8,
		batches, seq uint16, bits uint32, mem1GiB, mem2GiB uint16, procUse uint8) {
		m := model.MustPreset(models[int(mSel)%len(models)])
		if seq > 0 {
			m.Seq = int(seq)
		}
		tps, pps := fuzzDivisors(m.AttnHeads), fuzzDivisors(m.Blocks)
		tp, pp := tps[int(tpSel)%len(tps)], pps[int(ppSel)%len(pps)]
		dp, mb := 1<<(dpExp%8), 1<<(mbExp%4)
		// The batch is a whole number of microbatches per pipeline.
		m.Batch = dp * mb * (1 + int(batches))
		bps := fuzzDivisors((m.Blocks + pp - 1) / pp)
		st := execution.Strategy{
			TP: tp, PP: pp, DP: dp, Microbatch: mb,
			Interleave:    bps[int(ilSel)%len(bps)],
			OneFOneB:      bits&(1<<0) != 0,
			Recompute:     fuzzRecompute[(bits>>1)%3],
			TPOverlap:     fuzzOverlap[(bits>>3)%3],
			SeqParallel:   bits&(1<<5) != 0,
			TPRSAG:        bits&(1<<6) != 0,
			TPRedoForSP:   bits&(1<<7) != 0,
			PPRSAG:        bits&(1<<8) != 0,
			DPOverlap:     bits&(1<<9) != 0,
			OptimSharding: bits&(1<<10) != 0,
			FusedLayers:   bits&(1<<11) != 0,
			WeightOffload: bits&(1<<12) != 0,
			ActOffload:    bits&(1<<13) != 0,
			OptimOffload:  bits&(1<<14) != 0,
			Inference:     bits&(1<<15) != 0,
		}

		procs := st.Procs()
		if bits&(1<<16) != 0 && procs > 1 {
			procs /= 2 // one size too small
		}
		sys := system.MustPreset(systems[int(sSel)%len(systems)], procs)
		if mem1GiB > 0 {
			sys = sys.WithMem1Capacity(units.Bytes(mem1GiB) * units.GiB)
		}
		if mem2GiB > 0 {
			sys = sys.WithMem2(system.DDR5(units.Bytes(mem2GiB) * units.GiB))
		}
		if bits&(1<<17) != 0 {
			nets := append([]system.Network(nil), sys.Networks...)
			for i := range nets {
				nets[i].ProcUse = float64(procUse) / 255
			}
			sys.Networks = nets
		}

		r, err := NewRunner(m, sys)
		if err != nil {
			if _, refErr := referenceRun(m, sys, st); refErr == nil || refErr.Error() != err.Error() {
				t.Fatalf("NewRunner: %v, reference: %v", err, refErr)
			}
			return
		}
		got, info, err := r.RunDetailed(st)
		checkReference(t, "Run", m, sys, st, got, info, err)
		if err != nil {
			return
		}
		// A fresh chain's first leaf: its bound keys must bound the
		// Result's, and Keys must return them exactly.
		var chain RunInfo
		leaf := st
		if !r.RunLeaf(&chain, &leaf) {
			t.Fatalf("%s %v on %s: Run feasible, RunLeaf not", m.Name, st, sys.Name)
		}
		bound := chain.Bound()
		exact := Keys{got.BatchTime, got.SampleRate, got.Mem1.Total()}
		if k := chain.Keys(); k != exact {
			t.Fatalf("%s %v on %s: chain keys %+v, Result keys %+v", m.Name, st, sys.Name, k, exact)
		}
		if err := checkBound(bound, exact); err != nil {
			t.Fatalf("%s %v on %s: %v", m.Name, st, sys.Name, err)
		}
		checkFuzzClass(t, r, st, chain.Floor())

		tb := got.Time
		for name, v := range map[string]units.Seconds{
			"FwdPass": tb.FwdPass, "BwdPass": tb.BwdPass, "Recompute": tb.Recompute,
			"OptimStep": tb.OptimStep, "PPBubble": tb.PPBubble,
			"TPComm": tb.TPComm, "PPComm": tb.PPComm, "DPComm": tb.DPComm,
			"TPExposed": tb.TPExposed, "PPExposed": tb.PPExposed, "DPExposed": tb.DPExposed,
			"OffloadTotal": tb.OffloadTotal, "OffloadExposed": tb.OffloadExposed,
		} {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
				t.Fatalf("%s %v on %s: %s = %v, want finite and non-negative", m.Name, st, sys.Name, name, f)
			}
		}
		if !(got.MFU <= 1) {
			t.Fatalf("%s %v on %s: MFU %v exceeds 1", m.Name, st, sys.Name, got.MFU)
		}
		if tb.Total() != got.BatchTime {
			t.Fatalf("%s %v on %s: breakdown total %v, batch time %v", m.Name, st, sys.Name, tb.Total(), got.BatchTime)
		}
	})
}

// checkFuzzClass runs every leaf of st's memory class: the leaves of the
// toggle walk over every toggle that share st's class key. Each leaf must be
// feasible, as st is, and floor must bound its exact keys (checkBound).
func checkFuzzClass(t *testing.T, r *Runner, st execution.Strategy, floor Keys) {
	t.Helper()
	tog := execution.EnumOptions{Features: execution.FeatureAll, HasMem2: true}.Toggles()
	var class []execution.Strategy
	walkClasses(&tog, st, func(leaves []execution.Strategy) {
		if classKey(leaves[0]) == classKey(st) {
			class = leaves
		}
	})
	if class == nil {
		t.Fatalf("%v: no class of the toggle walk holds it", st)
	}
	for _, leaf := range class {
		res, err := r.Run(leaf)
		if err != nil {
			t.Fatalf("%v, a leaf of the class of %v: %v", leaf, st, err)
		}
		if err := checkBound(floor, Keys{res.BatchTime, res.SampleRate, res.Mem1.Total()}); err != nil {
			t.Fatalf("%v, a leaf of the class of %v: class floor: %v", leaf, st, err)
		}
	}
}

var (
	fuzzRecompute = [3]execution.RecomputeMode{execution.RecomputeNone, execution.RecomputeAttn, execution.RecomputeFull}
	fuzzOverlap   = [3]execution.TPOverlapMode{execution.TPOverlapNone, execution.TPOverlapPipe, execution.TPOverlapRing}
)

// fuzzDivisors returns the positive divisors of n in ascending order.
func fuzzDivisors(n int) []int {
	var ds []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}
