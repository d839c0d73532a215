package experiments

import (
	"context"
	"fmt"
	"io"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/report"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// Fig4Cell is one bar of a Fig. 4 sweep: a (t,p,d) split with its time and
// memory breakdown.
type Fig4Cell struct {
	Label  string
	Result perf.Result
}

// Fig4Sweep is one of the three panels of Fig. 4.
type Fig4Sweep struct {
	Title string
	Cells []Fig4Cell
}

// Fig4Parallelism reproduces §4.1 / Fig. 4: Megatron-1T, global batch
// 4,096, on 4,096 A100s whose NVLink domain is stretched to the TP degree,
// with optimizer sharding and the 1F1B schedule. Memory capacity is left
// unconstrained so that the memory requirement of every split can be
// reported, exactly as the figure plots requirements beyond 80 GiB.
func Fig4Parallelism() ([]Fig4Sweep, error) {
	m := model.MustPreset("megatron-1T").WithBatch(4096)

	run := func(t, p, d int) (perf.Result, error) {
		sys := system.A100(4096).
			WithMem1Capacity(units.UnboundedBytes).
			WithFastDomain(max(t, 8))
		st := execution.Strategy{
			TP: t, PP: p, DP: d, Microbatch: 1, Interleave: 1, OneFOneB: true,
			Recompute: execution.RecomputeFull, TPRSAG: true, OptimSharding: true,
		}
		return perf.Run(m, sys, st)
	}

	sweep := func(title string, mk func(i int) (t, p, d int, label string), n int) (Fig4Sweep, error) {
		sw := Fig4Sweep{Title: title}
		for i := 0; i < n; i++ {
			t, p, d, label := mk(i)
			r, err := run(t, p, d)
			if err != nil {
				return sw, fmt.Errorf("%s %s: %w", title, label, err)
			}
			sw.Cells = append(sw.Cells, Fig4Cell{Label: label, Result: r})
		}
		return sw, nil
	}

	var out []Fig4Sweep
	tpVsPP, err := sweep("TP vs PP (DP=32) — Megatron-1T batch time & memory", func(i int) (int, int, int, string) {
		t := 1 << i
		p := 128 / t
		return t, p, 32, fmt.Sprintf("t=%d,p=%d", t, p)
	}, 6)
	if err != nil {
		return nil, err
	}
	out = append(out, tpVsPP)

	ppVsDP, err := sweep("PP vs DP (TP=8) — Megatron-1T batch time & memory", func(i int) (int, int, int, string) {
		p := 1 << i
		d := 512 / p
		return 8, p, d, fmt.Sprintf("p=%d,d=%d", p, d)
	}, 8)
	if err != nil {
		return nil, err
	}
	out = append(out, ppVsDP)

	tpVsDP, err := sweep("TP vs DP (PP=32) — Megatron-1T batch time & memory", func(i int) (int, int, int, string) {
		t := 1 << i
		d := 128 / t
		return t, 32, d, fmt.Sprintf("t=%d,d=%d", t, d)
	}, 6)
	if err != nil {
		return nil, err
	}
	out = append(out, tpVsDP)
	return out, nil
}

// RenderFig4 writes the three sweeps as stacked time and memory bars.
func RenderFig4(w io.Writer, sweeps []Fig4Sweep) {
	for _, sw := range sweeps {
		fmt.Fprintln(w, sw.Title)
		for _, c := range sw.Cells {
			report.StackedBar(w, "  "+c.Label+" time", "s", report.TimeSegments(c.Result), 30)
		}
		for _, c := range sw.Cells {
			report.StackedBar(w, "  "+c.Label+" memory", "GB", report.MemSegments(c.Result.Mem1), 30)
		}
		fmt.Fprintln(w)
	}
}

// Fig5Variant names one panel of Fig. 5.
type Fig5Variant string

const (
	// Fig5Baseline is panel (a): the original Megatron optimization set on
	// 80 GiB HBM.
	Fig5Baseline Fig5Variant = "baseline-80g"
	// Fig5SeqPar is panel (b): plus partial recompute and sequence
	// parallelism.
	Fig5SeqPar Fig5Variant = "seqpar-80g"
	// Fig5All is panel (c): every compatible Table 1 technique.
	Fig5All Fig5Variant = "all-80g"
	// Fig5All160 is panel (d): every technique with 160 GiB HBM.
	Fig5All160 Fig5Variant = "all-160g"
)

// Fig5Variants lists the four panels in paper order.
func Fig5Variants() []Fig5Variant {
	return []Fig5Variant{Fig5Baseline, Fig5SeqPar, Fig5All, Fig5All160}
}

// Fig5Cell is one (t,p) entry: the best batch time over the panel's
// optimization space and the memory that configuration needs.
type Fig5Cell struct {
	T, P     int
	Found    bool
	BatchSec float64
	Mem      units.Bytes
}

// Fig5Grid is one panel of Fig. 5.
type Fig5Grid struct {
	Variant Fig5Variant
	Ts, Ps  []int
	Cells   map[[2]int]Fig5Cell
}

// Fig5Optimizations reproduces one panel of Fig. 5: for every (t,p) with
// t·p·d = 4,096 it searches the panel's optimization family for the best
// feasible configuration under the panel's memory capacity.
func Fig5Optimizations(ctx context.Context, variant Fig5Variant, scale Scale) (Fig5Grid, error) {
	features := execution.FeatureBaseline
	capacity := 80 * units.GiB
	switch variant {
	case Fig5SeqPar:
		features = execution.FeatureSeqPar
	case Fig5All:
		features = execution.FeatureAll
	case Fig5All160:
		features = execution.FeatureAll
		capacity = 160 * units.GiB
	}
	grid := Fig5Grid{
		Variant: variant,
		Ts:      []int{1, 2, 4, 8, 16, 32},
		Ps:      []int{1, 2, 4, 8, 16, 32, 64},
	}
	if scale == ScaleSmall {
		grid.Ts = []int{1, 4, 16, 32}
		grid.Ps = []int{1, 4, 16, 64}
	}
	cells, err := tpGrid(ctx, grid.Ts, grid.Ps, features, func(t int) system.System {
		return system.A100(4096).WithMem1Capacity(capacity).WithFastDomain(max(t, 8))
	}, func(t, p int, res search.Result) Fig5Cell {
		c := Fig5Cell{T: t, P: p, Found: res.Found()}
		if c.Found {
			c.BatchSec, c.Mem = float64(res.Best.BatchTime), res.Best.Mem1.Total()
		}
		return c
	})
	grid.Cells = cells
	if err != nil {
		return grid, fmt.Errorf("fig5 %s %w", variant, err)
	}
	return grid, nil
}

// RenderFig5 writes a panel as the paper's t×p grid (best time over
// required memory, dashes for infeasible splits).
func RenderFig5(w io.Writer, g Fig5Grid) {
	report.Grid(w, fmt.Sprintf("Fig. 5 (%s): best batch time (s) over required memory", g.Variant),
		g.Ts, g.Ps, func(t, p int) report.GridCell {
			c := g.Cells[[2]int{t, p}]
			return report.GridCell{Top: fmt.Sprintf("%.1f", c.BatchSec), Bottom: c.Mem.String(), OK: c.Found}
		})
}

// tpGrid is the grid search of Figs. 5 and 9: for every (t,p) of ts×ps it
// searches Megatron-1T (batch 4,096) on the 4,096 processors of sysAt(t),
// with t, p and d = 4096/(t·p) fixed and the interleave capped at 8, and
// projects the search into the figure's cell.
func tpGrid[C any](ctx context.Context, ts, ps []int, features execution.FeatureSet,
	sysAt func(t int) system.System, cell func(t, p int, res search.Result) C) (map[[2]int]C, error) {
	m := model.MustPreset("megatron-1T").WithBatch(4096)
	cells := map[[2]int]C{}
	for _, t := range ts {
		for _, p := range ps {
			opts := sweepOptions(features, 8)
			opts.Enum.Procs = 4096
			opts.Enum.FixedTP, opts.Enum.FixedPP, opts.Enum.FixedDP = t, p, 4096/(t*p)
			res, err := search.Execution(ctx, m, sysAt(t), opts)
			if err != nil {
				return cells, fmt.Errorf("t=%d p=%d: %w", t, p, err)
			}
			cells[[2]int{t, p}] = cell(t, p, res)
		}
	}
	return cells, nil
}
