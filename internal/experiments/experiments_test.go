package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"calculon/internal/cost"
)

func TestTable2ValidationAccuracy(t *testing.T) {
	rows, err := Table2Validation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("want 8 validation rows, got %d", len(rows))
	}
	avg, max := ValidationStats(rows)
	if avg > 6 {
		t.Errorf("average validation error %.2f%% (paper's tool: 3.65%%)", avg)
	}
	if max > 12 {
		t.Errorf("max validation error %.2f%% (paper's tool: 8.87%%)", max)
	}
	var b strings.Builder
	RenderTable2(&b, rows)
	if !strings.Contains(b.String(), "megatron-1T") || !strings.Contains(b.String(), "average |error|") {
		t.Errorf("render output incomplete:\n%s", b.String())
	}
}

func TestFig3BreakdownShape(t *testing.T) {
	r, err := Fig3Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 3 anchors: recompute ≈ 20% of batch time, HBM usage
	// well under the 80 GiB capacity with optimizer state a large share.
	recompFrac := float64(r.Time.Recompute) / float64(r.BatchTime)
	if recompFrac < 0.10 || recompFrac > 0.30 {
		t.Errorf("recompute fraction %.2f, paper shows ≈0.20", recompFrac)
	}
	optFrac := float64(r.Mem1.Optimizer) / float64(r.Mem1.Total())
	if optFrac < 0.15 || optFrac > 0.55 {
		t.Errorf("optimizer memory share %.2f, paper shows ≈0.29", optFrac)
	}
	if gib := float64(r.Mem1.Total()) / float64(1<<30); gib < 8 || gib > 30 {
		t.Errorf("HBM usage %.1f GiB, paper shows 17.4 GiB", gib)
	}
}

func TestTable4StrategyLadder(t *testing.T) {
	rows, err := Table4Strategies(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 strategy rows, got %d", len(rows))
	}
	// Table 4's MFU ladder: 36.67% → 49.61% → 70.96% → 76.71%. We require
	// the same strict ordering and a final MFU in the paper's range.
	for i := 1; i < len(rows); i++ {
		if rows[i].Result.MFU <= rows[i-1].Result.MFU {
			t.Errorf("MFU ladder broken at %s: %.3f after %.3f",
				rows[i].Name, rows[i].Result.MFU, rows[i-1].Result.MFU)
		}
	}
	final := rows[3].Result
	if final.MFU < 0.65 || final.MFU > 0.85 {
		t.Errorf("offload MFU %.1f%%, paper reports 76.71%%", 100*final.MFU)
	}
	// §8: "the majority of configurations, including the most performant
	// ones, do not utilize more than 20 GB of fast HBM" with offloading.
	if final.Mem1.Total() > 25*(1<<30) {
		t.Errorf("offload strategy HBM %v, paper keeps it ≈20 GB", final.Mem1.Total())
	}
	var b strings.Builder
	RenderTable4(&b, rows)
	if !strings.Contains(b.String(), "Calculon SW + offload") {
		t.Errorf("render incomplete:\n%s", b.String())
	}
}

func TestFig4ParallelismShape(t *testing.T) {
	sweeps, err := Fig4Parallelism()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 3 {
		t.Fatalf("want 3 sweeps, got %d", len(sweeps))
	}
	// §4.1 observation 1: over-emphasizing any one mode degrades time —
	// the middle of each sweep beats both extremes.
	for _, sw := range sweeps {
		first := sw.Cells[0].Result.BatchTime
		last := sw.Cells[len(sw.Cells)-1].Result.BatchTime
		bestMid := first
		for _, c := range sw.Cells[1 : len(sw.Cells)-1] {
			if c.Result.BatchTime < bestMid {
				bestMid = c.Result.BatchTime
			}
		}
		if !(bestMid < first && bestMid < last) {
			t.Errorf("%s: interior best %v should beat extremes %v / %v",
				sw.Title, bestMid, first, last)
		}
	}
	// §4.1 observation 2, TP vs DP sweep (PP fixed): increasing t cuts
	// weights while DP cannot (in TP-vs-PP the product t·p is constant, so
	// the per-processor weight share stays flat).
	td := sweeps[2]
	if !(td.Cells[len(td.Cells)-1].Result.Mem1.Weights < td.Cells[0].Result.Mem1.Weights) {
		t.Error("TP-vs-DP sweep should cut weight memory as t grows")
	}
	var b strings.Builder
	RenderFig4(&b, sweeps)
	if !strings.Contains(b.String(), "TP vs PP") {
		t.Error("render incomplete")
	}
}

func TestFig5GridsImprove(t *testing.T) {
	baseline, err := Fig5Optimizations(context.Background(), Fig5Baseline, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Fig5Optimizations(context.Background(), Fig5All, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	feasB, feasA := 0, 0
	bestB, bestA := math.Inf(1), math.Inf(1)
	for k, c := range baseline.Cells {
		if c.Found {
			feasB++
			if c.BatchSec < bestB {
				bestB = c.BatchSec
			}
		}
		ca := all.Cells[k]
		if ca.Found {
			feasA++
			if ca.BatchSec < bestA {
				bestA = ca.BatchSec
			}
			if c.Found && ca.BatchSec > c.BatchSec*1.001 {
				t.Errorf("cell %v: all-optimizations (%.1f) slower than baseline (%.1f)",
					k, ca.BatchSec, c.BatchSec)
			}
		}
	}
	// Fig. 5(a)→(c): more techniques mean more feasible mappings and a
	// faster best configuration.
	if feasA < feasB {
		t.Errorf("all-optimizations feasible cells %d < baseline %d", feasA, feasB)
	}
	if !(bestA < bestB) {
		t.Errorf("all-optimizations best %.1f should beat baseline %.1f", bestA, bestB)
	}
	var b strings.Builder
	RenderFig5(&b, baseline)
	if !strings.Contains(b.String(), "t=1") {
		t.Error("render incomplete")
	}
}

func TestFig5MoreMemoryHelps(t *testing.T) {
	g80, err := Fig5Optimizations(context.Background(), Fig5All, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	g160, err := Fig5Optimizations(context.Background(), Fig5All160, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	feas80, feas160 := 0, 0
	for k := range g80.Cells {
		if g80.Cells[k].Found {
			feas80++
		}
		if g160.Cells[k].Found {
			feas160++
		}
		if g80.Cells[k].Found && !g160.Cells[k].Found {
			t.Errorf("cell %v feasible at 80 GiB but not 160 GiB", k)
		}
	}
	if feas160 < feas80 {
		t.Errorf("160 GiB feasible cells %d < 80 GiB %d", feas160, feas80)
	}
}

func TestFig6NeedlesInHaystack(t *testing.T) {
	s, err := Fig6SearchSpace(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if s.Feasible == 0 || s.Feasible > s.Evaluated {
		t.Fatalf("counts: %d of %d", s.Feasible, s.Evaluated)
	}
	// A large share of the space must be infeasible (paper: ~82%).
	if frac := float64(s.Feasible) / float64(s.Evaluated); frac > 0.6 {
		t.Errorf("feasible fraction %.2f too high; the space should be mostly infeasible", frac)
	}
	// Good configurations are needles in a haystack: well under 1% within
	// 10% of the best.
	if frac := float64(s.Within10Pct) / float64(s.Feasible); frac > 0.01 {
		t.Errorf("%.4f%% of configs within 10%% of best; paper reports <0.002%%", 100*frac)
	}
	if s.Histogram.Total() != s.Feasible {
		t.Errorf("histogram total %d != feasible %d", s.Histogram.Total(), s.Feasible)
	}
	if len(s.TopCDF) == 0 || len(s.TopCDF) > 100 {
		t.Errorf("top CDF size %d", len(s.TopCDF))
	}
	var b strings.Builder
	RenderFig6(&b, s)
	if !strings.Contains(b.String(), "within 10%") {
		t.Error("render incomplete")
	}
}

func TestScalingStudyAndSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	base, err := ScalingStudy(context.Background(), false, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	off, err := ScalingStudy(context.Background(), true, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 3 || len(off) != 3 {
		t.Fatalf("curves: %d / %d", len(base), len(off))
	}
	for i := range base {
		for j, p := range base[i].Points {
			if p.Found && off[i].Points[j].Found {
				// Offloading never hurts: the offload search space is a
				// strict superset.
				if off[i].Points[j].Best.SampleRate < p.Best.SampleRate*0.999 {
					t.Errorf("%s at %d GPUs: offload %f slower than base %f",
						base[i].Model, p.Procs, off[i].Points[j].Best.SampleRate, p.Best.SampleRate)
				}
			}
			if p.Found && base[i].Relative[j] > 1.0001 {
				t.Errorf("relative efficiency above 1: %f", base[i].Relative[j])
			}
		}
		if d := base[i].CliffDepth(); d < 1 {
			t.Errorf("cliff depth below 1: %f", d)
		}
	}
	sp, err := OffloadSpeedup(base, off)
	if err != nil {
		t.Fatal(err)
	}
	anyPositive := false
	for _, c := range sp {
		for _, v := range c.SpeedupPct {
			if v > 1 || math.IsInf(v, 1) {
				anyPositive = true
			}
			if v < -1 {
				t.Errorf("%s: offload slowdown %.1f%%", c.Model, v)
			}
		}
	}
	if !anyPositive {
		t.Error("offloading should help somewhere (paper: 10–20% for the large models)")
	}
	var b strings.Builder
	RenderScaling(&b, "Fig. 7", base)
	RenderSpeedup(&b, sp)
	if !strings.Contains(b.String(), "megatron-1T") {
		t.Error("render incomplete")
	}
}

func TestOffloadSpeedupMismatch(t *testing.T) {
	if _, err := OffloadSpeedup(make([]ScalingCurve, 1), make([]ScalingCurve, 2)); err == nil {
		t.Error("mismatched curve sets must error")
	}
}

func TestFig9OffloadRequirements(t *testing.T) {
	inf, err := Fig9Offload(context.Background(), true, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := Fig9Offload(context.Background(), false, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	foundAny := false
	for k, ci := range inf.Cells {
		if !ci.Found {
			continue
		}
		foundAny = true
		cf := fin.Cells[k]
		if cf.Found {
			// §6: restricting the offload tier to 512 GiB @ 100 GB/s keeps
			// performance within a modest factor for most splits, and the
			// finite tier can never beat the infinite one.
			if cf.Rate > ci.Rate*1.001 {
				t.Errorf("cell %v: finite tier faster than infinite (%.1f vs %.1f)", k, cf.Rate, ci.Rate)
			}
			if cf.OffloadGB > 512*(1<<30) {
				t.Errorf("cell %v: offload capacity %v exceeds the 512 GiB tier", k, cf.OffloadGB)
			}
		}
	}
	if !foundAny {
		t.Fatal("no feasible cells in the infinite-offload grid")
	}
	var b strings.Builder
	RenderFig9(&b, inf)
	if !strings.Contains(b.String(), "sample rate") {
		t.Error("render incomplete")
	}
}

func TestTable1AblationDirections(t *testing.T) {
	rows, err := Table1Ablation()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Table 1's arrow directions, spot-checked.
	check := func(name string, f func(AblationRow) bool, why string) {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing ablation row %q", name)
		}
		if !f(r) {
			t.Errorf("%s: %s (got Δt=%.1f%% Δmem=%.1f%% Δnet=%.1f%%)",
				name, why, r.TimeDeltaPct, r.MemDeltaPct, r.NetDeltaPct)
		}
	}
	check("Recompute full", func(r AblationRow) bool { return r.TimeDeltaPct > 0 && r.MemDeltaPct < 0 },
		"full recompute trades time for memory")
	check("Fused layers", func(r AblationRow) bool { return r.TimeDeltaPct < 0 && r.MemDeltaPct < 0 },
		"fusion improves both time and memory")
	check("Optimizer sharding", func(r AblationRow) bool { return r.MemDeltaPct < 0 },
		"sharding cuts optimizer memory")
	check("Sequence parallelism", func(r AblationRow) bool { return r.MemDeltaPct < 0 },
		"sequence parallelism cuts memory")
	check("TP overlap (ring)", func(r AblationRow) bool { return r.NetDeltaPct < 0 },
		"overlap hides network time")
	check("DP overlap", func(r AblationRow) bool { return r.NetDeltaPct <= 0 },
		"overlap hides network time")
	check("Weight offload", func(r AblationRow) bool { return r.MemDeltaPct < 0 },
		"offload cuts first-tier memory")
	check("Microbatch 1→4", func(r AblationRow) bool { return r.MemDeltaPct > 0 },
		"bigger microbatches cost activation memory")
	check("GPipe schedule (1F1B off)", func(r AblationRow) bool { return r.MemDeltaPct > 0 },
		"dropping 1F1B costs memory")
	var b strings.Builder
	RenderTable1(&b, rows)
	if !strings.Contains(b.String(), "optimization") {
		t.Error("render incomplete")
	}
}

func TestTable3BudgetSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("budget sweep is slow")
	}
	evals, err := Table3Budget(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 16 {
		t.Fatalf("want 16 designs, got %d", len(evals))
	}
	// §7's headline: neither the cheapest nor the most expensive design
	// wins; some secondary-memory design is the top 1T performer.
	_, best, ok := cost.BestByPerf(evals, "megatron-1T")
	if !ok {
		t.Fatal("no design can train 1T")
	}
	if best.SampleRate <= 0 {
		t.Fatal("no performance recorded")
	}
	var b strings.Builder
	RenderTable3(&b, evals)
	out := b.String()
	if !strings.Contains(out, "best 1T design") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFig2ScheduleRenders(t *testing.T) {
	var b strings.Builder
	if err := Fig2Schedule(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"interleaved 1F1B", "stage  0", "stage  3", "gpipe"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig2 output missing %q", frag)
		}
	}
}

// TestSeqScaleExtension checks the long-context study's physics: the
// attention share grows with sequence length, throughput in tokens/s falls,
// and the optimum never abandons recomputation at very long context.
func TestSeqScaleExtension(t *testing.T) {
	pts, err := SeqScale(context.Background(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("want 3 points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AttnShare <= pts[i-1].AttnShare {
			t.Error("attention share must grow with sequence length")
		}
		if pts[i].Found && pts[i-1].Found && pts[i].TokensPerSec >= pts[i-1].TokensPerSec {
			t.Error("token throughput must fall as the s² terms grow")
		}
	}
	last := pts[len(pts)-1]
	if !last.Found {
		t.Fatal("32k context should still run at batch 128 on 512 GPUs")
	}
	if last.Best.Strategy.Recompute == "none" {
		t.Error("very long context should need recomputation")
	}
	var b strings.Builder
	RenderSeqScale(&b, pts)
	if !strings.Contains(b.String(), "32768") {
		t.Error("render incomplete")
	}
}
