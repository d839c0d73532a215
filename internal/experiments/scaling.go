package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"calculon/internal/execution"
	"calculon/internal/report"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// ScalingCurve is one model's line of Fig. 7 or Fig. 10: the best
// achievable sample rate at every system size, normalized against perfect
// scaling.
type ScalingCurve struct {
	Model  string
	Points []search.ScalingPoint
	// Relative[i] is Points[i]'s efficiency against perfect scaling from
	// the best observed per-GPU rate; -1 marks sizes where the model does
	// not run at all (the zero-performance dots of Fig. 7).
	Relative []float64
}

// ScalingStudy reproduces Fig. 7 (offload=false) or Fig. 10 (offload=true):
// for each of the three study LLMs, search the full execution space at
// every system size and report the scaling envelope with its efficiency
// cliffs. ScaleFull sweeps multiples of 8 up to 8,192 GPUs as in the paper;
// ScaleSmall sweeps multiples of 312 (= 8·3·13, deliberately awkward to
// factor so the cliffs of "sizes that do not divide evenly" show up even in
// the reduced study) up to 4,096, plus the well-factoring 4,096 itself.
// Each per-model sweep shares one block-profile memo across all sizes and
// prunes pre-screen-dead (tp,pp,dp) subtrees whole (docs/MODEL.md §13),
// which is what makes the below-cliff sizes — where nothing fits — nearly
// free instead of the dominant cost.
func ScalingStudy(ctx context.Context, offload bool, scale Scale) ([]ScalingCurve, error) {
	sizes := append(search.Sizes(312, 4095), 4096)
	maxInterleave := 4
	if scale == ScaleFull {
		sizes = search.Sizes(8, 8192)
		maxInterleave = 8
	}
	sysAt := system.A100 // the Fig. 7 systems: Selene-like A100 machines
	if offload {
		// The §6 offload tier: 512 GiB DDR at 100 GB/s.
		sysAt = func(n int) system.System { return system.A100(n).WithMem2(system.DDR5(512 * units.GiB)) }
	}
	var curves []ScalingCurve
	for _, m := range studyModels() {
		pts, err := search.SystemSize(ctx, m, sysAt, sizes, sweepOptions(execution.FeatureAll, maxInterleave))
		if err != nil {
			return nil, fmt.Errorf("scaling %s: %w", m.Name, err)
		}
		curves = append(curves, ScalingCurve{Model: m.Name, Points: pts, Relative: search.Relative(pts)})
	}
	return curves, nil
}

// CliffDepth returns the largest ratio between a point's efficiency and the
// best efficiency among smaller-or-equal sizes — the paper's "performance
// variability exceeding 6×" metric reads off such drops.
func (c ScalingCurve) CliffDepth() float64 {
	worst := 1.0
	bestSoFar := 0.0
	for _, r := range c.Relative {
		if r < 0 {
			continue
		}
		if r > bestSoFar {
			bestSoFar = r
		}
		if bestSoFar > 0 && r > 0 {
			if ratio := bestSoFar / r; ratio > worst {
				worst = ratio
			}
		}
	}
	return worst
}

// SpeedupCurve is one model's line of Fig. 11: the relative improvement
// from adding offload memory at each system size.
type SpeedupCurve struct {
	Model string
	Sizes []int
	// SpeedupPct[i] is 100·(rate_off/rate_base − 1); +Inf where the model
	// only runs with offloading (the paper's "infinite speedup").
	SpeedupPct []float64
}

// OffloadSpeedup reproduces Fig. 11 by combining the Fig. 7 and Fig. 10
// sweeps. The two input slices must come from ScalingStudy(false, ·) and
// ScalingStudy(true, ·) at the same scale.
func OffloadSpeedup(base, off []ScalingCurve) ([]SpeedupCurve, error) {
	if len(base) != len(off) {
		return nil, fmt.Errorf("experiments: mismatched curve sets (%d vs %d)", len(base), len(off))
	}
	var out []SpeedupCurve
	for i := range base {
		b, o := base[i], off[i]
		if b.Model != o.Model || len(b.Points) != len(o.Points) {
			return nil, fmt.Errorf("experiments: curve %d mismatch", i)
		}
		sc := SpeedupCurve{Model: b.Model}
		for j := range b.Points {
			if b.Points[j].Procs != o.Points[j].Procs {
				return nil, fmt.Errorf("experiments: size mismatch at %d", j)
			}
			sc.Sizes = append(sc.Sizes, b.Points[j].Procs)
			switch {
			case !o.Points[j].Found:
				sc.SpeedupPct = append(sc.SpeedupPct, 0)
			case !b.Points[j].Found:
				sc.SpeedupPct = append(sc.SpeedupPct, math.Inf(1))
			default:
				sp := 100 * (o.Points[j].Best.SampleRate/b.Points[j].Best.SampleRate - 1)
				sc.SpeedupPct = append(sc.SpeedupPct, sp)
			}
		}
		out = append(out, sc)
	}
	return out, nil
}

// RenderScaling writes the Fig. 7/10-style relative-scaling charts.
func RenderScaling(w io.Writer, title string, curves []ScalingCurve) {
	fmt.Fprintln(w, title)
	for _, c := range curves {
		pts := make([]report.ScalingPointView, len(c.Points))
		for i, p := range c.Points {
			pts[i] = report.ScalingPointView{X: p.Procs, Y: c.Relative[i]}
		}
		report.Scaling(w, c.Model, pts, 40)
		fmt.Fprintf(w, "  worst efficiency cliff: %.2f×\n\n", c.CliffDepth())
	}
}

// RenderSpeedup writes the Fig. 11 speedup table.
func RenderSpeedup(w io.Writer, curves []SpeedupCurve) {
	for _, c := range curves {
		fmt.Fprintf(w, "%s — offload speedup by system size\n", c.Model)
		rows := [][]string{{"GPUs", "speedup"}}
		for i, n := range c.Sizes {
			v := c.SpeedupPct[i]
			cell := fmt.Sprintf("%+.1f%%", v)
			if math.IsInf(v, 1) {
				cell = "inf (only runs with offload)"
			}
			rows = append(rows, []string{fmt.Sprintf("%d", n), cell})
		}
		report.Table(w, rows)
		fmt.Fprintln(w)
	}
}
