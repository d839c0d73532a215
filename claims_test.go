package calculon_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"calculon"
	"calculon/internal/config"
	"calculon/internal/experiments"
	"calculon/internal/model"
	"calculon/internal/system"
)

// This file asserts the paper's three headline findings (§1) end-to-end
// through the public API, at reduced scale.

func searchOpts() calculon.SearchOptions {
	return calculon.SearchOptions{
		Enum: calculon.EnumOptions{
			Features:      calculon.FeatureAll,
			PinBeneficial: true,
			MaxInterleave: 4,
		},
	}
}

// TestClaim1NoUniformBestStrategy — "None of the existing software-
// parallelism strategies is uniformly the best. However, there is an
// optimal split-parallelism strategy … with the exact optimum depending on
// system parameters." The best split must beat every single-mode extreme,
// and changing the system must move the optimum.
func TestClaim1NoUniformBestStrategy(t *testing.T) {
	m := calculon.MustPreset("megatron-1T").WithBatch(512)

	sysA := calculon.A100(512)
	resA, err := calculon.SearchExecution(context.Background(), m, sysA, searchOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Found() {
		t.Fatal("search found nothing")
	}
	best := resA.Best
	// The optimum is a genuine split: no parallelism mode at its extreme.
	st := best.Strategy
	if st.TP == 1 || st.TP*st.PP*st.DP != 512 {
		t.Errorf("optimum should blend modes, got %v", st)
	}
	// Single-mode-heavy strategies lose to it.
	for _, extreme := range []calculon.Strategy{
		{TP: 32, PP: 16, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
			Recompute: calculon.RecomputeFull, TPRSAG: true, OptimSharding: true},
		{TP: 1, PP: 128, DP: 4, Microbatch: 1, Interleave: 1, OneFOneB: true,
			Recompute: calculon.RecomputeFull, TPRSAG: true, OptimSharding: true},
	} {
		r, err := calculon.Run(m, sysA, extreme)
		if err != nil {
			continue // an infeasible extreme also proves the point
		}
		if r.SampleRate >= best.SampleRate {
			t.Errorf("extreme %v (%.1f/s) should lose to the searched optimum (%.1f/s)",
				extreme, r.SampleRate, best.SampleRate)
		}
	}

	// A different system (bigger NVLink domain, more memory) moves the
	// optimal split.
	sysB := calculon.A100(512).WithFastDomain(32).WithMem1Capacity(160 * calculon.GiB)
	resB, err := calculon.SearchExecution(context.Background(), m, sysB, searchOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Found() {
		t.Fatal("search on system B found nothing")
	}
	if resA.Best.Strategy == resB.Best.Strategy {
		t.Errorf("the optimum should depend on system parameters; both systems chose %v",
			resA.Best.Strategy)
	}
}

// TestClaim2EfficiencyCliffs — "The speed of LLM training can be a
// sensitive function of system size": an awkward size right next to a
// well-factoring one performs markedly worse per GPU.
func TestClaim2EfficiencyCliffs(t *testing.T) {
	m := calculon.MustPreset("turing-530B").WithBatch(512) // 105 blocks, hard to map
	sizes := []int{248, 256}                               // 248 = 8·31: no clean (t,p,d) factorization
	pts, err := calculon.SearchSystemSize(context.Background(), m,
		func(n int) calculon.System { return calculon.A100(n) }, sizes, searchOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !pts[1].Found {
		t.Fatal("530B should run on 256 GPUs")
	}
	perGPU := func(p calculon.ScalingPoint) float64 {
		return p.Best.SampleRate / float64(p.Procs)
	}
	if pts[0].Found {
		drop := perGPU(pts[1]) / perGPU(pts[0])
		if drop < 1.05 {
			t.Errorf("expected an efficiency cliff at 248 GPUs; per-GPU ratio %.3f", drop)
		}
	}
	// If 248 cannot run at all, that is the deepest possible cliff — pass.
}

// TestClaim3OffloadTier — "Adding a second high-capacity tier of memory …
// enables efficient training of larger models [and] the bandwidth
// requirement … is within current technological capabilities."
func TestClaim3OffloadTier(t *testing.T) {
	m := calculon.MustPreset("megatron-1T").WithBatch(256)
	bare := calculon.A100(128)
	r1, err := calculon.SearchExecution(context.Background(), m, bare, searchOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Found() {
		t.Fatal("1T should not fit on 128 bare 80-GiB GPUs")
	}
	tiered := bare.WithMem2(calculon.DDR5(512 * calculon.GiB))
	r2, err := calculon.SearchExecution(context.Background(), m, tiered, searchOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Found() {
		t.Fatal("the offload tier should enable 1T training on 128 GPUs")
	}
	if r2.Best.MFU < 0.5 {
		t.Errorf("offload-enabled training should stay efficient, MFU %.1f%%", 100*r2.Best.MFU)
	}
	// "within current technological capabilities": the required offload
	// bandwidth must not exceed a DDR/CXL-class link.
	if r2.Best.OffloadBWRequired > 200e9 {
		t.Errorf("required offload bandwidth %v is beyond a DDR-class link",
			r2.Best.OffloadBWRequired)
	}
}

// TestGoldenReferenceConfigs pins the exact batch time and first-tier memory
// breakdown of the paper's Table 2 reference configurations — the
// Megatron-style models under full recompute and under sequence parallelism
// with selective recompute — loaded from the shipped JSON assets in
// configs/models and configs/systems. The goldens were produced by this
// model and exist to catch silent numeric drift: in particular, a cache-
// keying bug in the two-phase evaluation that served one configuration
// another's block profile would perturb these digits long before it moved a
// search optimum. Tolerance is 1e-9 relative — far tighter than any
// legitimate modeling change would land by accident.
func TestGoldenReferenceConfigs(t *testing.T) {
	goldens := []struct {
		preset    string
		gpus, pp  int
		mode      string
		batchTime float64
		mem1      calculon.MemBreakdown
	}{
		{"megatron-22B", 8, 1, "full",
			1.456927513332821,
			calculon.MemBreakdown{Weights: 5439873024, WeightGrads: 5439873024, Activations: 1207959552, ActGrads: 134217728, Optimizer: 32639238144}},
		{"megatron-22B", 8, 1, "seq+sel",
			1.0539197929908277,
			calculon.MemBreakdown{Weights: 5439873024, WeightGrads: 5439873024, Activations: 4680843264, ActGrads: 134217728, Optimizer: 32639238144}},
		{"gpt3-175B", 64, 8, "full",
			18.466107583057749,
			calculon.MemBreakdown{Weights: 5437845504, WeightGrads: 5437845504, Activations: 4831838208, ActGrads: 201326592, Optimizer: 32627073024}},
		{"gpt3-175B", 64, 8, "seq+sel",
			13.177672232179757,
			calculon.MemBreakdown{Weights: 5437845504, WeightGrads: 5437845504, Activations: 18723373056, ActGrads: 201326592, Optimizer: 32627073024}},
		{"turing-530B", 280, 35, "full",
			49.843145905172705,
			calculon.MemBreakdown{Weights: 3775718400, WeightGrads: 3775718400, Activations: 8808038400, ActGrads: 268435456, Optimizer: 22654310400}},
		{"turing-530B", 280, 35, "seq+sel",
			35.033783615868686,
			calculon.MemBreakdown{Weights: 3775718400, WeightGrads: 3775718400, Activations: 34131148800, ActGrads: 268435456, Optimizer: 22654310400}},
		{"megatron-1T", 512, 64, "full",
			91.809608457554901,
			calculon.MemBreakdown{Weights: 3932864000, WeightGrads: 3932864000, Activations: 13421772800, ActGrads: 335544320, Optimizer: 23597184000}},
		{"megatron-1T", 512, 64, "seq+sel",
			64.234977269071436,
			calculon.MemBreakdown{Weights: 3932864000, WeightGrads: 3932864000, Activations: 52009369600, ActGrads: 335544320, Optimizer: 23597184000}},
	}

	relClose := func(got, want float64) bool {
		if got == want {
			return true
		}
		return math.Abs(got-want) <= 1e-9*math.Abs(want)
	}

	baseSys, err := config.Load[system.System]("configs/systems/a100-80g.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		m, err := config.Load[model.LLM](fmt.Sprintf("configs/models/%s.json", g.preset))
		if err != nil {
			t.Fatal(err)
		}
		sys := baseSys.WithProcs(g.gpus)
		st := calculon.Strategy{
			TP: 8, PP: g.pp, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
			Recompute: calculon.RecomputeFull,
		}
		if g.mode == "seq+sel" {
			st.Recompute = calculon.RecomputeAttn
			st.TPRSAG, st.SeqParallel = true, true
		}
		res, err := calculon.Run(m, sys, st)
		if err != nil {
			t.Fatalf("%s %s: %v", g.preset, g.mode, err)
		}
		if !relClose(float64(res.BatchTime), g.batchTime) {
			t.Errorf("%s %s: batch time %.17g, golden %.17g",
				g.preset, g.mode, float64(res.BatchTime), g.batchTime)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"weights", float64(res.Mem1.Weights), float64(g.mem1.Weights)},
			{"weight grads", float64(res.Mem1.WeightGrads), float64(g.mem1.WeightGrads)},
			{"activations", float64(res.Mem1.Activations), float64(g.mem1.Activations)},
			{"act grads", float64(res.Mem1.ActGrads), float64(g.mem1.ActGrads)},
			{"optimizer", float64(res.Mem1.Optimizer), float64(g.mem1.Optimizer)},
		} {
			if !relClose(f.got, f.want) {
				t.Errorf("%s %s: mem1 %s %.17g, golden %.17g",
					g.preset, g.mode, f.name, f.got, f.want)
			}
		}
	}
}

// TestTable2ErrorCeiling — the Table 2 validation error may only go down.
// The average and maximum absolute error of the predicted batch times
// against the paper's measured ones stay at or under 4.341% and 10.149%,
// the levels this model stands at (the paper's own are 3.65% and 8.87%;
// EXPERIMENTS.md). A modeling change that narrows the gap lowers the
// ceilings with it.
func TestTable2ErrorCeiling(t *testing.T) {
	const maxAvgPct, maxWorstPct = 4.341, 10.149
	rows, err := experiments.Table2Validation()
	if err != nil {
		t.Fatal(err)
	}
	avg, worst := experiments.ValidationStats(rows)
	t.Logf("Table 2 error: average %.4f%%, maximum %.4f%%", avg, worst)
	if avg > maxAvgPct {
		t.Errorf("average Table 2 error %.4f%% exceeds its ceiling %.3f%%", avg, maxAvgPct)
	}
	if worst > maxWorstPct {
		t.Errorf("maximum Table 2 error %.4f%% exceeds its ceiling %.3f%%", worst, maxWorstPct)
	}
}
