package search

import (
	"testing"

	"calculon/internal/perf"
)

func pt(procs int, rate float64, found bool) ScalingPoint {
	p := ScalingPoint{Procs: procs, Found: found}
	p.Best = perf.Result{SampleRate: rate}
	return p
}

func TestBestEfficiency(t *testing.T) {
	pts := []ScalingPoint{
		pt(8, 8, true),   // 1.0/proc
		pt(16, 20, true), // 1.25/proc — best
		pt(24, 18, true), // cliff: 0.75/proc
		pt(32, 38, true), // 1.1875/proc
		pt(40, 0, false), // cannot run
	}
	best, ok := BestEfficiency(pts)
	if !ok || best.Procs != 16 {
		t.Fatalf("BestEfficiency = %v (%v), want 16 procs", best.Procs, ok)
	}
	if _, ok := BestEfficiency([]ScalingPoint{pt(8, 0, false)}); ok {
		t.Fatal("all-infeasible sweep must report not found")
	}
}

func TestBestEfficiencyPrefersSmallerOnTie(t *testing.T) {
	pts := []ScalingPoint{pt(16, 16, true), pt(8, 8, true)}
	best, ok := BestEfficiency(pts)
	if !ok || best.Procs != 8 {
		t.Fatalf("tie should pick the smaller system, got %d", best.Procs)
	}
}

func TestRightSizeAvoidsCliffs(t *testing.T) {
	pts := []ScalingPoint{
		pt(8, 8, true),   // 1.0/proc — within 20% of best
		pt(16, 20, true), // 1.25/proc — best efficiency
		pt(24, 18, true), // 0.75/proc — a cliff
	}
	got, ok := RightSize(pts, 0.25)
	if !ok || got.Procs != 8 {
		t.Fatalf("RightSize(25%%) = %d (%v), want the small 8-proc system", got.Procs, ok)
	}
	tight, ok := RightSize(pts, 0.05)
	if !ok || tight.Procs != 16 {
		t.Fatalf("RightSize(5%%) = %d (%v), want 16", tight.Procs, ok)
	}
	if _, ok := RightSize(nil, 0.1); ok {
		t.Fatal("empty sweep must report not found")
	}
}
